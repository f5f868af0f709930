import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tlkit import _backend
from tlkit.composition import compose
from tlkit.enumeration import DiagramBasis, enumerate_diagrams, identity_diagram
from tlkit.laurent import LaurentPoly
from tlkit.matrices import PolyMatrix, matrix_product
from tlkit.representation import (
    Generator,
    GeneratorMatrix,
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

from oracles import bottom_pattern_partition, dense_tl_relations

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

    def test_dim2_single_cup_block(self):
        part = ideal_partition(enumerate_diagrams(2))
        assert part.block_sizes() == (1,)
        assert part.blocks[0][0] == generator_diagram(2, 1)

    def test_identity_included_collapses(self):
        part = ideal_partition(enumerate_diagrams(4), include_identity=True)
        assert part.block_sizes() == (14,)

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


def test_generator_matrices_compose_each_pair_once(monkeypatch):
    basis = enumerate_diagrams(6)
    calls = 0
    kernel = _backend.compose_pairings

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(_backend, "compose_pairings", counted)
    generator_matrices(basis)
    assert calls <= 5 * len(basis)


class TestGeneratorMatrix:
    def test_shapes(self):
        basis = enumerate_diagrams(4)
        assert generator_matrix(1, basis).matrix.size == 13
        assert generator_matrix(1, basis, include_identity=True).matrix.size == 14

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
        m = PolyMatrix.from_columns("A", [{1: a}, {}, {0: a, 2: -a}])
        assert m.rows == ((z, z, a), (a, z, z), (z, z, -a))
        assert PolyMatrix.from_columns("A", []).size == 0

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
            gm.include_identity,
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
        broken = GeneratorMatrix(1, False, u.basis_order, targets, u.exponents)
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

    def test_passing_report_has_no_witnesses(self):
        report = verify_tl_relations(generator_matrices(enumerate_diagrams(4)))
        assert report.witnesses == ()
        assert all(not line.startswith("  ") for line in report.lines())


@functools.cache
def _generator_set(n, include_identity):
    return tuple(generator_matrices(enumerate_diagrams(n), include_identity))


@st.composite
def generator_sets(draw):
    """The generator maps of dimension 2..5, with or without the identity,
    and in half the draws one column of one generator re-targeted and
    re-weighted."""
    mats = list(_generator_set(draw(st.integers(2, 5)), draw(st.booleans())))
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
            gm.include_identity,
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
