import itertools
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tlkit import _backend, _relations, cli
from tlkit.braids import BraidWord, _image_columns, _image_terms
from tlkit.composition import compose, compose_scaled
from tlkit.diagrams import ScaledDiagram, parse
from tlkit.enumeration import DiagramBasis, catalan, enumerate_diagrams, identity_diagram
from tlkit.representation import generator_diagram, generator_matrices, ideal_partition

from oracles import (
    StackGraph,
    boundary_pairing_matrixpower,
    boundary_pairing_unionfind,
    connectivity_matrixpower,
    loop_count_unionfind,
    reachability_power,
    reference_map,
)


def test_generator_square_gains_one_loop():
    for n in range(2, 7):
        for k in range(1, n):
            u = generator_diagram(n, k)
            product = compose(u, u)
            assert product.diagram == u
            assert product.loop_exponent == 1


def test_generator_triple_collapses():
    for n in range(2, 7):
        for i in range(1, n):
            for j in (i - 1, i + 1):
                if not 1 <= j <= n - 1:
                    continue
                u, v = generator_diagram(n, i), generator_diagram(n, j)
                inner = compose(u, v)
                outer = compose(inner.diagram, u)
                assert outer.diagram == u
                assert inner.loop_exponent + outer.loop_exponent == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_unit_laws(n):
    ident = identity_diagram(n)
    for d in enumerate_diagrams(n):
        left = compose(ident, d)
        right = compose(d, ident)
        assert left == ScaledDiagram(d, 0)
        assert right == ScaledDiagram(d, 0)


def test_worked_six_strand_product():
    # Two 6-strand diagrams transcribed from their pictures; the first
    # carries two free loops.  Stacking the first on top of the second
    # closes two more loops and leaves the expected matching.
    top = parse("TL 6 m=2 (1,2)(3,7)(4,10)(5,6)(8,9)(11,12)")
    bottom = parse("TL 6 m=0 (1,9)(2,10)(3,4)(5,6)(7,8)(11,12)")
    product = compose_scaled(bottom, top)
    assert product.diagram.pairing == (7, 10, 4, 3, 6, 5, 1, 9, 8, 2, 12, 11)
    assert product.loop_exponent == 4
    # the stacking itself contributes exactly two closed loops
    bare = compose(bottom.diagram, top.diagram)
    assert bare.loop_exponent == 2


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(identity_diagram(2), identity_diagram(3))
    with pytest.raises(ValueError):
        StackGraph.from_diagrams(identity_diagram(2), identity_diagram(3))


@pytest.mark.parametrize("n", [2, 3])
def test_associativity_exhaustive(n):
    basis = list(enumerate_diagrams(n))
    for a, b, c in itertools.product(basis, repeat=3):
        ab = compose(a, b)
        left = compose(ab.diagram, c)
        bc = compose(b, c)
        right = compose(a, bc.diagram)
        assert left.diagram == right.diagram
        assert ab.loop_exponent + left.loop_exponent == bc.loop_exponent + right.loop_exponent


@pytest.mark.parametrize("n", [4, 5, 6])
def test_associativity_randomized(n):
    rng = random.Random(n)
    basis = list(enumerate_diagrams(n))
    for _ in range(300):
        a, b, c = (rng.choice(basis) for _ in range(3))
        ab = compose(a, b)
        left = compose(ab.diagram, c)
        bc = compose(b, c)
        right = compose(a, bc.diagram)
        assert left.diagram == right.diagram
        assert ab.loop_exponent + left.loop_exponent == bc.loop_exponent + right.loop_exponent


def _maps(basis):
    return _backend.generator_maps([d.pairing for d in basis], range(1, basis.dimension))


@pytest.mark.parametrize("n", range(1, 11))
def test_spanning_tree_reaches_every_diagram_by_loop_free_steps(n):
    basis = enumerate_diagrams(n)
    root = basis.index_of(identity_diagram(n))
    steps = _backend.spanning_tree(_maps(basis), root)
    generators = {k: generator_diagram(n, k) for k in range(1, n)}
    reached = {root}
    for position, parent, k in steps:
        assert parent in reached and position not in reached
        reached.add(position)
        step = compose(basis[parent], generators[k])
        assert step == ScaledDiagram(basis[position], 0)
    assert len(reached) == len(basis)


def test_spanning_tree_refuses_maps_that_miss_a_diagram():
    # U_1 alone on dimension 3 reaches two of the five basis diagrams.
    basis = enumerate_diagrams(3)
    maps = _maps(basis)[:1]
    with pytest.raises(ValueError, match="do not reach every basis diagram"):
        _backend.spanning_tree(maps, basis.index_of(identity_diagram(3)))


@pytest.mark.parametrize("n", range(1, 9))
def test_generator_map_over_the_kernel_walk_equals_action(n):
    # compose --table, verify and repr build their maps on the walk's
    # tuples alone; they are the maps of the generator matrices over the
    # identity-included basis, whether the library or a caller built it.
    pairings = _backend.enumerate_pairings(n)
    caller_built = DiagramBasis(n, tuple(enumerate_diagrams(n)))
    expected = _backend.generator_maps(pairings, range(1, n))
    for basis in (caller_built, enumerate_diagrams(n)):
        matrices = generator_matrices(basis, include_identity=True)
        assert [(m.targets, m.exponents) for m in matrices] == expected
    assert pairings == [d.pairing for d in enumerate_diagrams(n)]


@pytest.mark.parametrize("n", range(1, 11))
def test_maps_equal_the_rule_on_every_pairing(n):
    # ``generator_maps`` applies each U_k once per top link state and
    # relabels the bottom state of every other position; the reference
    # applies it to every pairing.  The maps come in the order of the
    # indices given.  The identity-free walk in the ideal blocks' order,
    # the basis of ``verify`` and ``repr``, lacks the identity's top and
    # bottom states, and no U_k yields the identity.
    walk = _backend.enumerate_pairings(n)
    identity_free = [walk[i] for i in _relations.representation_order(walk, False)]
    for pairings in (walk, identity_free):
        expected = [reference_map(pairings, k) for k in range(1, n)]
        assert _backend.generator_maps(pairings, range(1, n)) == expected
        assert _backend.generator_maps(pairings, reversed(range(1, n))) == expected[::-1]


@pytest.mark.parametrize("n", range(1, 10))
def test_locate_reads_the_ids_of_every_position(n):
    # ``locate`` reads a pairing's rows as ``link_states`` reads the
    # basis, so it gives each position's own (top, bottom) ids.
    pairings = _backend.enumerate_pairings(n)
    top, bottom, _, _, locate = _backend.link_grid(pairings)
    assert [locate(p) for p in pairings] == list(zip(top, bottom))


def test_each_generator_map_is_built_once_per_basis(monkeypatch):
    # Nothing keeps a map, so each library call builds every map it reads
    # once, and ``generator_maps`` applies each generator once per top link
    # state: the table reads the maps it is given, the ideal blocks read
    # none, and the bracket matrix image builds none: it applies the
    # letters once, in its element image, and composes the rest.
    n = 5
    calls = 0
    rule = _backend._apply_generator

    def counted(*args):
        nonlocal calls
        calls += 1
        return rule(*args)

    def built(call, *args, **kwargs):
        nonlocal calls
        calls = 0
        call(*args, **kwargs)
        return calls

    monkeypatch.setattr(_backend, "_apply_generator", counted)
    basis = DiagramBasis(n, tuple(enumerate_diagrams(n)))
    every_map = (n - 1) * math.comb(n, n // 2)
    # the identity-free basis lacks one top state, the identity's
    identity_free = (n - 1) * (math.comb(n, n // 2) - 1)
    maps = _maps(basis)
    assert calls == every_map
    assert built(lambda: list(_backend.table_rows(maps, basis.index_of(identity_diagram(n))))) == 0
    assert built(ideal_partition, basis) == 0
    assert built(generator_matrices, basis, include_identity=False) == identity_free
    assert built(generator_matrices, basis, include_identity=True) == every_map
    repeated = BraidWord(n, (1, -2, 1, 3, -1, -2, 1))
    element = built(_image_terms, repeated)
    pairings = [d.pairing for d in basis]
    assert built(lambda: list(_image_columns(repeated, pairings, str))) == element
    # Each CLI route that maps a whole basis builds every map it reads once,
    # on a walk of its own.
    for argv, expected in (
        (["compose", "--dim", "5", "--table"], every_map),
        (["verify", "--dim", "5"], identity_free),
        (["repr", "--dim", "5"], identity_free),
        (["repr", "--dim", "5", "--include-identity"], every_map),
    ):
        calls = 0
        assert cli.run(cli._parse(argv))[0] == cli.EXIT_OK
        assert calls == expected, argv
    element = built(_image_terms, BraidWord(n, (1, -2, 3, -4)))
    argv = ["bracket", "--strands", "5", "--word=1,-2,3,-4", "--matrix"]
    assert built(cli.run, cli._parse(argv)) == element


def test_a_basis_keeps_no_map_after_a_call_returns():
    # The basis is the test's own, so no other test has filled it, and it
    # stays alive across the measured call; a basis that kept the maps of
    # dimension 8 would hold about 161 kB here.
    basis = DiagramBasis(8, tuple(enumerate_diagrams(8)))
    tracemalloc.start()
    try:
        # the same call on another basis fills the interpreter's free lists
        # with traced blocks, which the measured call then reuses
        generator_matrices(enumerate_diagrams(8))
        before = tracemalloc.get_traced_memory()[0]
        generator_matrices(basis)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 10_000
    assert len(basis) == catalan(8)


def test_threads_sharing_a_basis_read_the_same_maps():
    n = 6
    expected = _maps(enumerate_diagrams(n))
    basis = DiagramBasis(n, tuple(enumerate_diagrams(n)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(_maps, basis) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)
    assert _maps(basis) == expected


def test_loop_exponent_additivity():
    u = generator_diagram(3, 1)
    s1 = ScaledDiagram(u, 2)
    s2 = ScaledDiagram(u, 5)
    product = compose_scaled(s1, s2)
    assert product.diagram == u
    assert product.loop_exponent == 2 + 5 + 1


def test_exponent_scaling_commutes_with_order():
    # Moving a d-power from one factor to the other never changes the result.
    rng = random.Random(7)
    basis = list(enumerate_diagrams(4))
    for _ in range(100):
        a, b = rng.choice(basis), rng.choice(basis)
        k = rng.randint(0, 3)
        left = compose_scaled(ScaledDiagram(a, k), ScaledDiagram(b, 0))
        right = compose_scaled(ScaledDiagram(a, 0), ScaledDiagram(b, k))
        assert left == right


@pytest.mark.parametrize("n", range(1, 7))
def test_closure_under_composition(n):
    rng = random.Random(n)
    basis = enumerate_diagrams(n)
    diagrams = list(basis)
    for _ in range(100):
        a, b = rng.choice(diagrams), rng.choice(diagrams)
        product = compose(a, b)
        assert product.diagram in basis


class TestStackGraph:
    def test_degrees_enforced(self):
        u = generator_diagram(2, 1)
        g = StackGraph.from_diagrams(u, u)
        # middle cup/cap stack: parallel edges kept as a multiset
        assert sorted(g.edges).count((3, 4)) == 2
        with pytest.raises(ValueError):
            StackGraph(1, ((1, 2), (2, 3), (2, 3), (1, 3)))

    def test_single_strand_reachability(self):
        g = StackGraph.from_diagrams(identity_diagram(1), identity_diagram(1))
        reach = reachability_power(g, 2)
        assert reach[0, 2] and reach[0, 1]
        assert np.array_equal(connectivity_matrixpower(g), reach)

    def test_parallel_middle_edges_count_as_one_loop(self):
        u = generator_diagram(2, 1)
        g = StackGraph.from_diagrams(u, u)
        assert loop_count_unionfind(g) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_strand_walk_matches_unionfind(n):
    # Every pair up to N = 4, 500 seeded random pairs above.
    diagrams = list(enumerate_diagrams(n))
    if n <= 4:
        pairs = list(itertools.product(diagrams, repeat=2))
    else:
        rng = random.Random(100 + n)
        pairs = [(rng.choice(diagrams), rng.choice(diagrams)) for _ in range(500)]
    for a, b in pairs:
        g = StackGraph.from_diagrams(a, b)
        expected = (boundary_pairing_unionfind(g), loop_count_unionfind(g))
        assert _backend.compose_pairings(a.pairing, b.pairing) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_unionfind_and_matrixpower_agree(n):
    rng = random.Random(n)
    diagrams = list(enumerate_diagrams(n))
    for _ in range(60):
        a, b = rng.choice(diagrams), rng.choice(diagrams)
        g = StackGraph.from_diagrams(a, b)
        product = compose(a, b)
        assert boundary_pairing_unionfind(g) == product.diagram.pairing
        assert boundary_pairing_matrixpower(g) == product.diagram.pairing
        assert loop_count_unionfind(g) == product.loop_exponent
        # full closure equals the documented N+1 path-length bound
        assert np.array_equal(
            connectivity_matrixpower(g), reachability_power(g, n + 1)
        )


def test_middle_path_of_maximal_length():
    # A five-strand pair whose product joins bottom node 5 to top-left
    # (node 6) through all five middle nodes in one path.
    bottom = parse("TL 5 m=0 (1,2)(3,4)(5,10)(6,7)(8,9)")
    top = parse("TL 5 m=0 (1,6)(2,3)(4,5)(7,8)(9,10)")
    product = compose(bottom.diagram, top.diagram)
    assert product.diagram.pairing == (2, 1, 4, 3, 6, 5, 8, 7, 10, 9)
    assert product.loop_exponent == 0
    g = StackGraph.from_diagrams(bottom.diagram, top.diagram)
    reach = connectivity_matrixpower(g)
    assert reach[4, 10]  # stack nodes 5 and 11, through middle 10,9,8,7,6
