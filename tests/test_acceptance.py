"""Acceptance suite: one test per criterion, one printed line per
criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.

Everything asserted here is exact (integer or symbolic polynomial
equality); the two timed criteria also enforce their wall-clock bounds.
"""

import io
import contextlib
import functools
import itertools
import random
import time
from pathlib import Path

import numpy as np

from tlkit import cli
from tlkit.braids import (
    BraidWord,
    braid_image,
    braid_image_matrix,
    kauffman_loop_value,
)
from tlkit.composition import compose, compose_scaled
from tlkit.diagrams import PlanarDiagram, ScaledDiagram, connectability
from tlkit.elements import TLElement, multiply
from tlkit.enumeration import catalan, enumerate_diagrams, identity_diagram
from tlkit.laurent import LaurentPoly
from tlkit.matrices import PolyMatrix
from tlkit.representation import (
    Generator,
    generator_diagram,
    generator_matrices,
    ideal_partition,
    left_multiply,
    verify_tl_relations,
    verify_tl_relations_diagrams,
)

from oracles import (
    StackGraph,
    boundary_pairing_matrixpower,
    brute_force_basis,
    connectivity_matrixpower,
    loop_count_unionfind,
    reachability_power,
)

GOLDEN = Path(__file__).parent / "golden"

CATALAN_EXPECTED = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _run_cli(args) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def test_catalan_counts():
    counts = []
    start = time.perf_counter()
    for n in range(1, 11):
        t0 = time.perf_counter()
        code, out = _run_cli(["enumerate", "--dim", str(n), "--count-only"])
        elapsed = time.perf_counter() - t0
        counts.append((code, int(out), elapsed))
    total = time.perf_counter() - start
    ok = all(code == 0 for code, _, _ in counts)
    ok = ok and [c for _, c, _ in counts] == CATALAN_EXPECTED
    ok = ok and counts[9][2] < 5.0  # n=10 under five seconds
    _report(
        f"catalan-counts (n=1..10 exact, n=10 in {counts[9][2]:.3f}s, total {total:.2f}s)",
        ok,
    )


def test_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        fast = [d.pairing for d in enumerate_diagrams(n)]
        ok = ok and fast == brute_force_basis(n)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(f"oracle-equivalence (n<=6 set equality in {elapsed:.2f}s)", ok)


def test_connectability_ground_truth():
    ok = connectability(4).partners(1) == (2, 4, 5, 7)
    for n in range(1, 7):
        gamma = connectability(n)
        realized = set()
        for p in enumerate_diagrams(n):
            realized.update(p.pairs())
            realized.update((b, a) for a, b in p.pairs())
        for i in range(1, 2 * n + 1):
            for j in range(1, 2 * n + 1):
                ok = ok and gamma.value(i, j) == int((i, j) in realized)
    _report("connectability-ground-truth (n<=6, anchor {2,4,5,7})", ok)


def test_tl_relations():
    ok = True
    for n in range(2, 7):
        basis = enumerate_diagrams(n)
        matrix_report = verify_tl_relations(generator_matrices(basis))
        diagram_report = verify_tl_relations_diagrams(n)
        ok = ok and matrix_report.passed and diagram_report.passed
    _report("tl-relations (n=2..6, matrix and diagram level, symbolic)", ok)


def test_representation_shape():
    basis = enumerate_diagrams(4)
    matrices = generator_matrices(basis)
    ok = len(matrices) == 3
    ok = ok and all(gm.matrix.size == 13 for gm in matrices)
    ok = ok and ideal_partition(basis).block_sizes() == (8, 5)
    # anchored entry: column 2 row 1 holds the unit, and the two diagrams
    # linked by it are identified explicitly
    gm = matrices[0]
    first, second = gm.basis_order[0], gm.basis_order[1]
    ok = ok and first.pairing == (2, 1, 4, 3, 6, 5, 8, 7)
    ok = ok and second.pairing == (2, 1, 4, 3, 8, 7, 6, 5)
    ok = ok and gm.matrix.entry(0, 1) == LaurentPoly.one("d")
    product = left_multiply(Generator(1, generator_diagram(4, 1)), second)
    ok = ok and product == ScaledDiagram(first, 0)
    _report("representation-shape (three 13x13, blocks 8+5, col 2 -> row 1)", ok)


def _checked_compose(a: PlanarDiagram, b: PlanarDiagram) -> ScaledDiagram:
    """Compose and cross-check union-find against matrix powers."""
    product = compose(a, b)
    g = StackGraph.from_diagrams(a, b)
    assert loop_count_unionfind(g) == product.loop_exponent
    assert boundary_pairing_matrixpower(g) == product.diagram.pairing
    assert np.array_equal(
        connectivity_matrixpower(g), reachability_power(g, a.dimension + 1)
    )
    return product


def test_composition_laws():
    # The cross-checks run once per distinct pair of diagrams; every
    # composition of every law is still asserted.
    checked_compose = functools.cache(_checked_compose)
    ok = True
    checked = 0
    # unit laws, exhaustive
    for n in range(1, 5):
        ident = identity_diagram(n)
        for d in enumerate_diagrams(n):
            ok = ok and checked_compose(ident, d) == ScaledDiagram(d, 0)
            ok = ok and checked_compose(d, ident) == ScaledDiagram(d, 0)
            checked += 2
    # associativity, exhaustive for n <= 4
    for n in range(1, 5):
        diagrams = list(enumerate_diagrams(n))
        for a, b, c in itertools.product(diagrams, repeat=3):
            ab = checked_compose(a, b)
            left = checked_compose(ab.diagram, c)
            bc = checked_compose(b, c)
            right = checked_compose(a, bc.diagram)
            ok = ok and left.diagram == right.diagram
            ok = (
                ok
                and ab.loop_exponent + left.loop_exponent
                == bc.loop_exponent + right.loop_exponent
            )
            checked += 4
    # associativity, randomized for n = 5, 6 (kernel composes; the slower
    # matrix-power cross-check runs on a sample of the tested triples)
    for n in (5, 6):
        rng = random.Random(n)
        diagrams = list(enumerate_diagrams(n))
        for t in range(10_000):
            a, b, c = (rng.choice(diagrams) for _ in range(3))
            do_check = t % 50 == 0
            op = checked_compose if do_check else compose
            ab = op(a, b)
            left = op(ab.diagram, c)
            bc = op(b, c)
            right = op(a, bc.diagram)
            ok = ok and left.diagram == right.diagram
            ok = (
                ok
                and ab.loop_exponent + left.loop_exponent
                == bc.loop_exponent + right.loop_exponent
            )
            checked += 4
    # loop exponents additive
    rng = random.Random(99)
    for n in (2, 3, 4, 5):
        diagrams = list(enumerate_diagrams(n))
        for _ in range(200):
            a, b = rng.choice(diagrams), rng.choice(diagrams)
            ma, mb = rng.randint(0, 4), rng.randint(0, 4)
            bare = compose(a, b)
            scaled = compose_scaled(ScaledDiagram(a, ma), ScaledDiagram(b, mb))
            ok = ok and scaled.diagram == bare.diagram
            ok = ok and scaled.loop_exponent == ma + mb + bare.loop_exponent
    _report(f"composition-laws ({checked} compositions checked)", ok)


def test_kauffman_consistency():
    ok = True
    # 14-dimensional matrix image for n = 4
    n = 4
    ident14 = PolyMatrix.identity(catalan(n), "A")
    ok = ok and braid_image_matrix(BraidWord.identity(n)).size == 14
    for i in range(1, n):
        product = braid_image_matrix(BraidWord(n, (i,))) * braid_image_matrix(
            BraidWord(n, (-i,))
        )
        ok = ok and product == ident14
    for j in range(1, n - 1):
        ok = ok and braid_image_matrix(BraidWord(n, (j, j + 1, j))) == braid_image_matrix(
            BraidWord(n, (j + 1, j, j + 1))
        )
    ok = ok and braid_image_matrix(BraidWord(n, (1, 3))) == braid_image_matrix(
        BraidWord(n, (3, 1))
    )
    # TLElement form for n <= 4, words of length <= 6
    for strands in (2, 3, 4):
        identity_el = TLElement.from_diagram(
            identity_diagram(strands), LaurentPoly.one("A")
        )
        for i in range(1, strands):
            ok = ok and braid_image(BraidWord(strands, (i, -i))) == identity_el
        for j in range(1, strands - 1):
            ok = ok and braid_image(BraidWord(strands, (j, j + 1, j))) == braid_image(
                BraidWord(strands, (j + 1, j, j + 1))
            )
        for j in range(1, strands):
            for k in range(j + 2, strands):
                ok = ok and braid_image(BraidWord(strands, (j, k))) == braid_image(
                    BraidWord(strands, (k, j))
                )
        rng = random.Random(strands)
        letters = [s * i for i in range(1, strands) for s in (1, -1)]
        for length in range(1, 7):
            w = BraidWord(
                strands, tuple(rng.choice(letters) for _ in range(length))
            )
            ok = ok and braid_image(w * w.inverse()) == identity_el
            split = rng.randint(0, length)
            w1 = BraidWord(strands, w.letters[:split])
            w2 = BraidWord(strands, w.letters[split:])
            ok = ok and braid_image(w) == multiply(
                braid_image(w1), braid_image(w2), kauffman_loop_value()
            )
    _report("kauffman-consistency (14-dim image n=4; elements n<=4, len<=6)", ok)


def test_cli_determinism():
    commands = {
        "enumerate_dim4.txt": ["enumerate", "--dim", "4"],
        "repr_dim4_all.csv": ["repr", "--dim", "4", "--gen", "all"],
        "verify_dim4.txt": ["verify", "--dim", "4"],
    }
    ok = True
    for golden, args in commands.items():
        code1, out1 = _run_cli(args)
        code2, out2 = _run_cli(args)
        ok = ok and code1 == code2 == 0
        ok = ok and out1 == out2
        ok = ok and out1 == (GOLDEN / golden).read_text(encoding="utf-8")
    _report("cli-determinism (three commands, two runs, golden match)", ok)
