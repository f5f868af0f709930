import contextlib
import functools
import io
import itertools
import math
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tlkit import _backend, _relations, cli
from tlkit.braids import verify_artin
from tlkit.composition import compose
from tlkit.diagrams import ConnectabilityMatrix, connectability
from tlkit.enumeration import DiagramBasis, catalan, enumerate_diagrams, identity_diagram
from tlkit.laurent import LaurentPoly
from tlkit.matrices import PolyMatrix
from tlkit.representation import (
    Generator,
    GeneratorMatrix,
    IdealPartition,
    RelationReport,
    generator_diagram,
    generator_matrices,
    generator_matrix,
    generators,
    ideal_partition,
    left_multiply,
    representation_basis,
    verify_tl_relations,
    verify_tl_relations_diagrams,
)

from oracles import bottom_pattern_partition, dense_tl_relations, matrix_product, position_blocks

D = LaurentPoly.monomial("d", 1)
ONE = LaurentPoly.one("d")


class TestGenerators:
    def test_count(self):
        assert len(generators(4)) == 3
        assert len(generators(2)) == 1

    def test_dim2_cup(self):
        assert generators(2)[0].diagram.pairing == (2, 1, 4, 3)

    def test_structure(self):
        for g in generators(5):
            d = g.diagram
            assert d.bottom_pairs() == frozenset({(g.index, g.index + 1)})
            assert d.top_pairs() == frozenset({(5 + g.index, 5 + g.index + 1)})
            assert d.through_count() == 3

    @pytest.mark.parametrize("n", range(2, 7))
    def test_members_of_basis(self, n):
        basis = enumerate_diagrams(n)
        for g in generators(n):
            assert g.diagram in basis

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            generators(1)
        with pytest.raises(ValueError):
            generator_diagram(4, 4)


class TestIdealPartition:
    def test_dim4_split(self):
        part = ideal_partition(enumerate_diagrams(4))
        assert part.block_sizes() == (8, 5)
        for i, block in enumerate(part.blocks):
            assert all(part.block_of(d) == i for d in block)
        with pytest.raises(KeyError):
            part.block_of(identity_diagram(4))

    def test_dim2_single_cup_block(self):
        part = ideal_partition(enumerate_diagrams(2))
        assert part.block_sizes() == (1,)
        assert part.blocks[0][0] == generator_diagram(2, 1)

    def test_identity_included_collapses(self):
        part = ideal_partition(enumerate_diagrams(4), include_identity=True)
        assert part.block_sizes() == (14,)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_block_sizes(self, n):
        # From dimension 5 on every diagram but the identity lies in one
        # block, so the representation order is the canonical one without it.
        basis = enumerate_diagrams(n)
        expected = {2: (1,), 3: (2, 2), 4: (8, 5)}.get(n, (catalan(n) - 1,))
        assert ideal_partition(basis).block_sizes() == expected
        if n >= 5:
            without = tuple(d for d in basis if d != identity_diagram(n))
            assert representation_basis(basis) == without

    @pytest.mark.parametrize("n", range(2, 6))
    def test_blocks_closed_under_left_multiplication(self, n):
        basis = enumerate_diagrams(n)
        part = ideal_partition(basis)
        for block in part.blocks:
            members = set(block)
            for g in generators(n):
                for d in block:
                    assert left_multiply(g, d).diagram in members

    @pytest.mark.parametrize("n", range(2, 6))
    def test_blocks_cover_basis_without_identity(self, n):
        basis = enumerate_diagrams(n)
        part = ideal_partition(basis)
        covered = [d for block in part.blocks for d in block]
        assert len(covered) == len(basis) - 1
        assert identity_diagram(n) not in set(covered)


def _shuffled(basis, seed):
    diagrams = list(basis)
    random.Random(seed).shuffle(diagrams)
    return DiagramBasis(basis.dimension, tuple(diagrams))


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("include_identity", [False, True])
@pytest.mark.parametrize("n", range(2, 9))
def test_partition_matches_bottom_pattern_oracle(n, include_identity, shuffled):
    basis = enumerate_diagrams(n)
    if shuffled:
        basis = _shuffled(basis, seed=n)
    expected = bottom_pattern_partition(basis, include_identity)
    assert ideal_partition(basis, include_identity).blocks == expected
    order = (
        tuple(basis)
        if include_identity
        else tuple(d for block in expected for d in block)
    )
    assert representation_basis(basis, include_identity) == order
    index = {d: i for i, d in enumerate(order)}
    for g, gm in zip(generators(n), generator_matrices(basis, include_identity)):
        assert gm.basis_order == order
        for i, d in enumerate(order):
            product = left_multiply(g, d)
            assert (gm.targets[i], gm.exponents[i]) == (
                index[product.diagram],
                product.loop_exponent,
            )


@pytest.mark.parametrize("include_identity", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_ideal_blocks_on_the_kernel_walk_match_the_oracle(n, include_identity):
    pairings = _backend.enumerate_pairings(n)
    blocks = _backend.ideal_blocks(pairings, include_identity)
    expected = bottom_pattern_partition(enumerate_diagrams(n), include_identity)
    assert {frozenset(tuple(pairings[i]) for i in block) for block in blocks} == {
        frozenset(d.pairing for d in block) for block in expected
    }


@pytest.mark.parametrize("include_identity", [False, True])
@pytest.mark.parametrize("n", range(1, 10))
def test_ideal_blocks_equal_the_position_union_find(n, include_identity):
    # The bottom-state union-find against the union-find over every
    # position along the generator maps, in the walk's order and shuffled:
    # the kernel on the walk's bytes rows, the oracle on their tuples.
    walk = _backend.enumerate_pairings(n)
    for pairings in (walk, random.Random(n).sample(walk, len(walk))):
        expected = position_blocks(list(map(tuple, pairings)), include_identity)
        assert _backend.ideal_blocks(pairings, include_identity) == expected
        order = _backend.representation_order(pairings, include_identity)
        assert list(order) == (
            list(range(len(pairings))) if include_identity else [i for b in expected for i in b]
        )


@pytest.mark.parametrize("n", range(1, 11))
def test_kernel_block_sizes(n):
    # Without the identity: (1,), (2, 2) and (8, 5) for N = 2, 3, 4, then
    # one block of Catalan(N) - 1 diagrams for every N >= 5.  With it, one
    # block holds the whole basis.
    pairings = _backend.enumerate_pairings(n)
    expected = {1: (), 2: (1,), 3: (2, 2), 4: (8, 5)}.get(n, (catalan(n) - 1,))
    assert tuple(map(len, _backend.ideal_blocks(pairings, False))) == expected
    assert _backend.ideal_blocks(pairings, True) == [list(range(catalan(n)))]


@pytest.mark.parametrize("n", [4, 7])
def test_the_order_builds_no_generator_map(n, monkeypatch):
    # The ideal blocks are read off the bottom link states, so only the
    # maps a call returns are built: none for the partition and the order,
    # one for a single generator matrix, with the rule applied once per top
    # link state of the basis it is built on: the identity-free basis
    # lacks the identity's.
    calls = 0
    rule = _backend._apply_generator

    def counted(*args):
        nonlocal calls
        calls += 1
        return rule(*args)

    monkeypatch.setattr(_backend, "_apply_generator", counted)
    fresh = functools.partial(DiagramBasis, n, tuple(enumerate_diagrams(n)))
    ideal_partition(fresh(), include_identity=False)
    ideal_partition(fresh(), include_identity=True)
    representation_basis(fresh(), include_identity=False)
    representation_basis(fresh(), include_identity=True)
    assert calls == 0
    for include_identity in (False, True):
        generator_matrix(n - 1, fresh(), include_identity)
        assert calls == math.comb(n, n // 2) - (not include_identity)
        calls = 0


def _shuffled_basis(n):
    return DiagramBasis(n, tuple(random.Random(n).sample(enumerate_diagrams(n).diagrams, catalan(n))))


@pytest.mark.parametrize(
    "call",
    [
        lambda: cli.main(["verify", "--dim", "4"]) == 0,
        lambda: cli.main(["verify", "--dim", "6"]) == 0,
        lambda: cli.main(["repr", "--dim", "4"]) == 0,
        lambda: cli.main(["repr", "--dim", "4", "--include-identity"]) == 0,
        lambda: cli.main(["repr", "--dim", "6"]) == 0,
        lambda: cli.main(["repr", "--dim", "6", "--include-identity"]) == 0,
        lambda: generator_matrices(enumerate_diagrams(4)),
        lambda: generator_matrices(_shuffled_basis(4)),
    ],
    ids=["verify-4", "verify-6", "repr-4", "repr-4-identity", "repr-6", "repr-6-identity",
         "matrices-4", "matrices-4-shuffled"],
)
def test_each_row_is_split_once_per_call(call, monkeypatch):
    # A route that maps a whole basis reads its representation order and
    # its link-state grid off one split of each row: dimension 4 without
    # the identity has two ideal blocks, and the shuffled basis is put in
    # their order too.
    splits = []
    split = _backend.link_states

    def counted(pairings, top):
        splits.append(top)
        return split(pairings, top)

    monkeypatch.setattr(_backend, "link_states", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert call()
    assert sorted(splits) == [False, True]


def test_generator_matrices_make_no_compositions(monkeypatch):
    basis = enumerate_diagrams(6)
    calls = 0
    kernel = _backend.compose_pairings

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(_backend, "compose_pairings", counted)
    generator_matrices(basis)
    assert calls == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: generator_diagram(4, 1.5),
        lambda: generator_matrix(1.5, enumerate_diagrams(4)),
        lambda: generators(2.5),
        lambda: identity_diagram(2.5),
        lambda: verify_tl_relations_diagrams(2.5),
        lambda: verify_artin(2.5),
        lambda: verify_artin(3, max_len=2.5),
        lambda: verify_artin(3, seed=[1]),
        lambda: catalan(2.5),
    ],
    ids=[
        "generator_diagram",
        "generator_matrix",
        "generators",
        "identity_diagram",
        "verify_tl_relations_diagrams",
        "verify_artin",
        "verify_artin_max_len",
        "verify_artin_seed",
        "catalan",
    ],
)
def test_entry_points_reject_non_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


CUP2 = generator_diagram(2, 1)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Generator(1, "U"), "a generator needs a PlanarDiagram, got 'U'"),
        (lambda: ConnectabilityMatrix(0, ()), "dimension must be at least 1"),
        (lambda: ConnectabilityMatrix(1, ((0, 1), (1,))), "2 rows of 2 integers"),
        (lambda: ConnectabilityMatrix(1, ((0, 1), (1, 0.0))), "2 rows of 2 integers"),
        (lambda: IdealPartition(0, ()), "dimension must be at least 1"),
        (lambda: IdealPartition(3, ((CUP2,),)), "a diagram of dimension 3"),
        (lambda: IdealPartition(2, ((5,),)), "a diagram of dimension 2"),
        (lambda: RelationReport(5, ()), "title must be text, got 5"),
        (lambda: RelationReport("t", (("x", 1),)), "entries must be (text, bool) pairs"),
        (lambda: RelationReport("t", ("x",)), "entries must be (text, bool) pairs"),
        (
            lambda: RelationReport("t", (), (("x", None),)),
            "witnesses must be (text, str) pairs",
        ),
    ],
    ids=[
        "generator-diagram", "connectability-dimension", "connectability-ragged",
        "connectability-float", "partition-dimension", "partition-other-dimension",
        "partition-non-diagram", "report-title", "report-entry-value",
        "report-entry-shape", "report-witness",
    ],
)
def test_constructors_check_their_shape(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_constructors_keep_the_library_values():
    gamma = connectability(3)
    assert ConnectabilityMatrix(3, [list(row) for row in gamma.entries]) == gamma
    basis = enumerate_diagrams(4)
    partition = ideal_partition(basis)
    assert IdealPartition(4, [list(b) for b in partition.blocks]) == partition
    report = verify_tl_relations_diagrams(4)
    assert RelationReport(report.title, list(report.entries)) == report


class TestGeneratorMatrix:
    def test_shapes(self):
        basis = enumerate_diagrams(4)
        assert generator_matrix(1, basis).matrix.size == 13
        assert generator_matrix(1, basis, include_identity=True).matrix.size == 14
        # dimension 1 has no generator, and its identity-free basis is empty
        basis = enumerate_diagrams(1)
        assert generator_matrices(basis) == generator_matrices(basis, True) == []

    @pytest.mark.parametrize("include_identity", [False, True])
    def test_identity_flag_is_read_off_the_basis_order(self, include_identity):
        gm = generator_matrix(1, enumerate_diagrams(3), include_identity)
        assert gm.include_identity is include_identity
        rebuilt = GeneratorMatrix(1, list(gm.basis_order), gm.targets, gm.exponents)
        assert rebuilt == gm and rebuilt.include_identity is include_identity

    def test_anchored_unit_entry(self):
        # The second basis diagram maps to the first without a loop, so
        # column 2 carries a plain 1 in row 1.
        basis = enumerate_diagrams(4)
        gm = generator_matrix(1, basis)
        assert gm.basis_order[0].pairing == (2, 1, 4, 3, 6, 5, 8, 7)
        assert gm.basis_order[1].pairing == (2, 1, 4, 3, 8, 7, 6, 5)
        assert gm.matrix.entry(0, 1) == ONE
        gen = Generator(1, generator_diagram(4, 1))
        scaled = left_multiply(gen, gm.basis_order[1])
        assert scaled.diagram == gm.basis_order[0]
        assert scaled.loop_exponent == 0

    def test_diagonal_d_on_own_column(self):
        basis = enumerate_diagrams(4)
        gm = generator_matrix(1, basis)
        k = gm.basis_order.index(generator_diagram(4, 1))
        assert gm.matrix.entry(k, k) == D

    def test_dim2_with_identity(self):
        basis = enumerate_diagrams(2)
        gm = generator_matrix(1, basis, include_identity=True)
        assert gm.basis_order[0] == generator_diagram(2, 1)
        assert gm.basis_order[1] == identity_diagram(2)
        zero = LaurentPoly.zero("d")
        assert gm.matrix.rows == ((D, ONE), (zero, zero))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_columns_are_monomials(self, n):
        basis = enumerate_diagrams(n)
        for gm in generator_matrices(basis):
            for j in range(gm.matrix.size):
                nonzero = [p for p in gm.matrix.column(j) if not p.is_zero()]
                assert len(nonzero) == 1
                ((exp, coeff),) = nonzero[0].coeffs
                assert coeff == 1 and exp in (0, 1)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matrix_matches_diagram_products(self, n):
        basis = enumerate_diagrams(n)
        for gm in generator_matrices(basis):
            gen = Generator(gm.generator_index, generator_diagram(n, gm.generator_index))
            index = {d: i for i, d in enumerate(gm.basis_order)}
            for i, d in enumerate(gm.basis_order):
                scaled = left_multiply(gen, d)
                j = index[scaled.diagram]
                assert gm.matrix.entry(j, i) == LaurentPoly.monomial(
                    "d", scaled.loop_exponent
                )

    def test_block_diagonal_under_refined_order(self):
        basis = enumerate_diagrams(4)
        part = ideal_partition(basis)
        sizes = part.block_sizes()
        for gm in generator_matrices(basis):
            # no entry may link different blocks
            bounds = []
            start = 0
            for s in sizes:
                bounds.append((start, start + s))
                start += s

            def block_of(i):
                return next(b for b, (lo, hi) in enumerate(bounds) if lo <= i < hi)

            for i in range(gm.matrix.size):
                for j in range(gm.matrix.size):
                    if not gm.matrix.entry(i, j).is_zero():
                        assert block_of(i) == block_of(j)

    def test_invalid_generator_index(self):
        with pytest.raises(ValueError):
            generator_matrix(4, enumerate_diagrams(4))

    def test_map_fields_agree_with_dense_view(self):
        gm = generator_matrix(2, enumerate_diagrams(4))
        assert len(gm.targets) == len(gm.exponents) == gm.size == 13
        for i, (j, m) in enumerate(zip(gm.targets, gm.exponents)):
            assert gm.matrix.entry(j, i) == LaurentPoly.monomial("d", m)
            assert type(j) is int and type(m) is int
        assert gm.matrix is gm.matrix

    def test_dense_matrices_are_built_from_columns(self):
        a, z = LaurentPoly.monomial("A", 2), LaurentPoly.zero("A")
        m = PolyMatrix("A", [{1: a}, {}, {2: -a, 0: a}])
        assert m.rows == ((z, z, a), (a, z, z), (z, z, -a))
        # each column's pairs in row order, as the constructor takes them
        assert m.columns == (((1, a),), (), ((0, a), (2, -a)))
        assert PolyMatrix("A", m.columns) == m
        assert PolyMatrix("A", []).size == 0

    def test_generator_matrices_match_single_builds(self):
        basis = enumerate_diagrams(5)
        for include_identity in (False, True):
            for gm in generator_matrices(basis, include_identity):
                assert gm == generator_matrix(
                    gm.generator_index, basis, include_identity
                )


class TestGeneratorMatrixValidation:
    @pytest.fixture
    def gm(self):
        return generator_matrix(1, enumerate_diagrams(3))

    def rebuilt(self, gm, targets=None, exponents=None, basis_order=None):
        return GeneratorMatrix(
            gm.generator_index,
            gm.basis_order if basis_order is None else basis_order,
            gm.targets if targets is None else targets,
            gm.exponents if exponents is None else exponents,
        )

    def test_accepts_library_map(self, gm):
        assert self.rebuilt(gm) == gm

    def test_rejects_length_mismatch(self, gm):
        with pytest.raises(ValueError, match="one entry per column"):
            self.rebuilt(gm, targets=gm.targets[:-1])
        with pytest.raises(ValueError, match="one entry per column"):
            self.rebuilt(gm, exponents=gm.exponents + (0,))
        with pytest.raises(ValueError, match="one entry per column"):
            self.rebuilt(gm, basis_order=gm.basis_order[:-1])

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_rejects_target_out_of_range(self, gm, bad):
        targets = (bad,) + gm.targets[1:]
        with pytest.raises(ValueError, match="target"):
            self.rebuilt(gm, targets=targets)

    @pytest.mark.parametrize("field", ["basis_order", "targets", "exponents"])
    def test_stores_lists_as_tuples(self, gm, field):
        rebuilt = self.rebuilt(gm, **{field: list(getattr(gm, field))})
        assert rebuilt == gm
        assert hash(rebuilt) == hash(gm)

    @pytest.mark.parametrize("field", ["targets", "exponents"])
    def test_rejects_non_integers(self, gm, field):
        values = (0.0,) + getattr(gm, field)[1:]
        with pytest.raises(ValueError, match="integers"):
            self.rebuilt(gm, **{field: values})

    def test_rejects_negative_exponent(self, gm):
        exponents = gm.exponents[:-1] + (-1,)
        with pytest.raises(ValueError, match="non-negative"):
            self.rebuilt(gm, exponents=exponents)


@pytest.mark.parametrize("n", [4, 5])
def test_representation_property_on_short_words(n):
    # products of up to three generators: the matrix of the product diagram
    # (times d^loops) equals the product of the generator matrices
    basis = enumerate_diagrams(n)
    with_id = representation_basis(basis, include_identity=True)
    index = {d: i for i, d in enumerate(with_id)}
    mats = {
        gm.generator_index: gm.matrix
        for gm in generator_matrices(basis, include_identity=True)
    }

    def diagram_matrix(scaled):
        zero = LaurentPoly.zero("d")
        size = len(with_id)
        grid = [[zero] * size for _ in range(size)]
        factor = LaurentPoly.monomial("d", scaled.loop_exponent)
        for i, d in enumerate(with_id):
            product = compose(d, scaled.diagram)
            grid[index[product.diagram]][i] = factor * LaurentPoly.monomial(
                "d", product.loop_exponent
            )
        return PolyMatrix.from_rows("d", grid)

    gens = {g.index: g.diagram for g in generators(n)}
    for length in (1, 2, 3):
        for word in itertools.product(sorted(gens), repeat=length):
            # w = U_{k1} . U_{k2} ... : right letter acts first
            scaled = None
            for k in reversed(word):
                if scaled is None:
                    from tlkit.diagrams import ScaledDiagram

                    scaled = ScaledDiagram(gens[k], 0)
                else:
                    step = compose(scaled.diagram, gens[k])
                    scaled = step.with_extra_loops(scaled.loop_exponent)
            assert diagram_matrix(scaled) == matrix_product(mats[k] for k in word)


class TestVerifyRelations:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_matrix_level(self, n):
        report = verify_tl_relations(generator_matrices(enumerate_diagrams(n)))
        assert report.passed, report.lines()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matrix_level_with_identity(self, n):
        report = verify_tl_relations(
            generator_matrices(enumerate_diagrams(n), include_identity=True)
        )
        assert report.passed, report.lines()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_diagram_level(self, n):
        report = verify_tl_relations_diagrams(n)
        assert report.passed, report.lines()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_kernel_route_prints_the_library_reports(self, n):
        reports = [
            verify_tl_relations(generator_matrices(enumerate_diagrams(n))),
            verify_tl_relations_diagrams(n),
        ]
        lines = [line for report in reports for line in (*report.lines(), "")]
        args = SimpleNamespace(dim=n, relations="tl")
        assert _relations._run_verify(args) == (True, "\n".join(lines))

    def test_diagram_witness_names_both_sides(self, monkeypatch):
        original = _backend.compose_pairings

        def extra_loop(bottom, top):
            pairing, loops = original(bottom, top)
            return pairing, loops + 1

        monkeypatch.setattr(_backend, "compose_pairings", extra_loop)
        report = verify_tl_relations_diagrams(2)
        assert report.entries == (("U_1^2 = d*U_1", False),)
        assert report.witnesses == (
            ("U_1^2 = d*U_1", "expected TL 2 m=1 (1,2)(3,4), got TL 2 m=2 (1,2)(3,4)"),
        )

    def test_dim2_single_relation(self):
        report = verify_tl_relations(generator_matrices(enumerate_diagrams(2)))
        assert [name for name, _ in report.entries] == ["U_1^2 = d*U_1"]
        assert report.passed

    def test_requires_shared_basis(self):
        m2 = generator_matrices(enumerate_diagrams(2))
        m3 = generator_matrices(enumerate_diagrams(3))
        with pytest.raises(ValueError):
            verify_tl_relations(m2 + m3)
        with pytest.raises(ValueError):
            verify_tl_relations([])

    def test_requires_one_basis_order(self):
        mats = generator_matrices(enumerate_diagrams(4))
        u = mats[1]
        # the same diagrams in the reverse order, with the map renumbered
        last = u.size - 1
        reordered = GeneratorMatrix(
            u.generator_index,
            u.basis_order[::-1],
            tuple(last - u.targets[i] for i in reversed(range(u.size))),
            u.exponents[::-1],
        )
        with pytest.raises(ValueError, match="share one basis and ordering"):
            verify_tl_relations([mats[0], reordered] + mats[2:])
        # an equal order held in a separate tuple is the same basis
        copied = GeneratorMatrix(
            u.generator_index,
            tuple(list(u.basis_order)),
            u.targets,
            u.exponents,
        )
        assert copied.basis_order is not u.basis_order
        assert verify_tl_relations([mats[0], copied] + mats[2:]).passed

    def test_report_lines_shape(self):
        report = verify_tl_relations_diagrams(3)
        lines = report.lines()
        assert lines[0].startswith("Temperley-Lieb relations")
        assert lines[-1] == "overall: PASS"

    def test_witness_names_corrupted_column(self):
        mats = generator_matrices(enumerate_diagrams(4))
        u = mats[0]
        # A column outside the image of U_1 (U_1.D_c != d.D_c): no other
        # column maps to it, so sending it to itself changes column c of
        # U_1^2 and of d*U_1 only: (c, 2m) against (c, m + 1), m = 0 here.
        c = next(
            i for i in range(5, u.size) if u.targets[i] != i and u.exponents[i] == 0
        )
        targets = u.targets[:c] + (c,) + u.targets[c + 1 :]
        broken = GeneratorMatrix(1, u.basis_order, targets, u.exponents)
        report = verify_tl_relations([broken] + mats[1:])
        assert not report.passed
        witnesses = dict(report.witnesses)
        assert set(witnesses) == {name for name, ok in report.entries if not ok}
        assert witnesses["U_1^2 = d*U_1"] == (
            f"first differing column {c}: expected d in row {c}, got 1 in row {c}"
        )
        lines = report.lines()
        at = lines.index("U_1^2 = d*U_1: FAIL")
        assert lines[at + 1] == "  " + witnesses["U_1^2 = d*U_1"]
        assert lines[-1] == "overall: FAIL"

    def test_equal_maps_have_no_witness(self):
        for gm in generator_matrices(enumerate_diagrams(4)):
            m = gm.targets, gm.exponents
            assert _relations.map_witness(m, m) is None

    def test_passing_report_has_no_witnesses(self):
        report = verify_tl_relations(generator_matrices(enumerate_diagrams(4)))
        assert report.witnesses == ()
        assert all(not line.startswith("  ") for line in report.lines())


@functools.cache
def _generator_set(n, include_identity):
    return tuple(generator_matrices(enumerate_diagrams(n), include_identity))


@st.composite
def generator_sets(draw):
    """The generator maps of dimension 2..5, with or without the identity;
    in half the draws only a non-empty subset of them, and in half the
    draws one column of one generator re-targeted and re-weighted."""
    mats = list(_generator_set(draw(st.integers(2, 5)), draw(st.booleans())))
    if draw(st.booleans()):
        size = len(mats)
        keep = draw(st.lists(st.booleans(), min_size=size, max_size=size).filter(any))
        mats = [gm for gm, kept in zip(mats, keep) if kept]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(mats) - 1))
        gm = mats[k]
        c = draw(st.integers(0, gm.size - 1))
        targets = list(gm.targets)
        exponents = list(gm.exponents)
        targets[c] = draw(st.integers(0, gm.size - 1))
        exponents[c] = draw(st.integers(0, 2))
        mats[k] = GeneratorMatrix(
            gm.generator_index,
            gm.basis_order,
            tuple(targets),
            tuple(exponents),
        )
    return mats


@given(generator_sets())
def test_map_relations_match_dense_oracle(mats):
    report = verify_tl_relations(mats)
    assert report.entries == dense_tl_relations(mats).entries
    assert {name for name, _ in report.witnesses} == {
        name for name, ok in report.entries if not ok
    }
