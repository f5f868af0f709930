import tracemalloc

import pytest

from tlkit.diagrams import (
    PlanarDiagram,
    ScaledDiagram,
    canonical_compare,
    connectability,
    is_noncrossing,
    parse,
    restrict_connectability,
    serialize,
    serialize_pairings,
)
from tlkit.enumeration import enumerate_diagrams

from oracles import (
    PartialDiagram,
    all_involutions,
    brute_force_basis,
    completions,
    extend,
    geometric_noncrossing,
    pairwise_noncrossing,
)


class TestConnectability:
    def test_node_one_anchor_dim4(self):
        gamma = connectability(4)
        assert gamma.partners(1) == (2, 4, 5, 7)

    def test_corner_to_corner_blocked_dim4(self):
        assert connectability(4).value(1, 8) == 0

    def test_single_strand(self):
        assert connectability(1).value(1, 2) == 1

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            connectability(0)

    def test_symmetric_zero_diagonal(self):
        gamma = connectability(5)
        for i in range(1, 11):
            assert gamma.value(i, i) == 0
            for j in range(1, 11):
                assert gamma.value(i, j) == gamma.value(j, i)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_ground_truth_against_brute_force(self, n):
        # gamma(i, j) = 1 exactly when some complete noncrossing diagram
        # contains the edge (i, j).
        gamma = connectability(n)
        realized = {(i, j): False for i in range(1, 2 * n + 1) for j in range(1, 2 * n + 1)}
        for p in brute_force_basis(n):
            for i in range(1, 2 * n + 1):
                realized[(i, p[i - 1])] = True
        for i in range(1, 2 * n + 1):
            for j in range(1, 2 * n + 1):
                assert gamma.value(i, j) == int(realized[(i, j)]), (n, i, j)


class TestNoncrossing:
    def test_adjacent_arcs(self):
        assert is_noncrossing((2, 1, 4, 3), 2)

    def test_identity_strands(self):
        assert is_noncrossing((3, 4, 1, 2), 2)

    def test_diagonals_cross(self):
        # Strands 1-4 and 2-3 join opposite box corners and must intersect.
        assert not is_noncrossing((4, 3, 2, 1), 2)

    def test_edge_1_3_never_completes(self):
        for p in all_involutions(4):
            if p[0] == 3:
                assert not is_noncrossing(p, 4)

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            is_noncrossing((2, 3, 1, 4), 2)
        with pytest.raises(ValueError):
            is_noncrossing((1, 2, 4, 3), 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_agrees_with_geometry_and_fast_path(self, n):
        for p in all_involutions(n):
            expected = geometric_noncrossing(p, n)
            assert is_noncrossing(p, n) == expected
            assert pairwise_noncrossing(p, n) == expected


class TestPlanarDiagram:
    def test_validates_on_construction(self):
        with pytest.raises(ValueError):
            PlanarDiagram(2, (4, 3, 2, 1))
        with pytest.raises(ValueError):
            PlanarDiagram(2, (1, 2, 4, 3))
        with pytest.raises(ValueError):
            PlanarDiagram(2, (2, 1, 4))

    def test_stores_a_list_pairing_as_tuple(self):
        d = PlanarDiagram(2, [2, 1, 4, 3])
        assert d.pairing == (2, 1, 4, 3)
        assert hash(d) == hash(PlanarDiagram(2, (2, 1, 4, 3)))
        assert d in enumerate_diagrams(2)

    @pytest.mark.parametrize(
        "dimension,pairing",
        [(2, (2.0, 1, 4, 3)), (2, (2, 1, "4", 3)), (2.0, (2, 1, 4, 3)), (2, 2143)],
    )
    def test_rejects_non_integers(self, dimension, pairing):
        with pytest.raises(ValueError, match="integers"):
            PlanarDiagram(dimension, pairing)

    def test_pairs_and_views(self):
        d = PlanarDiagram(2, (2, 1, 4, 3))
        assert d.pairs() == ((1, 2), (3, 4))
        assert d.bottom_pairs() == frozenset({(1, 2)})
        assert d.top_pairs() == frozenset({(3, 4)})
        assert d.through_count() == 0
        assert not d.is_identity()
        ident = PlanarDiagram(2, (3, 4, 1, 2))
        assert ident.is_identity()
        assert ident.through_count() == 2

    def test_connection_matrix_view(self):
        d = PlanarDiagram(2, (2, 1, 4, 3))
        m = d.connection_matrix()
        for i in range(4):
            assert sum(m[i]) == 1
            for j in range(4):
                assert m[i][j] == m[j][i]
                assert m[i][j] == int(d.partner(i + 1) == j + 1)


class TestScaledDiagram:
    @pytest.mark.parametrize(
        "diagram,loop_exponent",
        [
            (PlanarDiagram(1, (2, 1)), 1.5),
            (PlanarDiagram(1, (2, 1)), "1"),
            (PlanarDiagram(1, (2, 1)), -1),
            ("x", 1),
            ((2, 1), 0),
        ],
    )
    def test_rejects_bad_values(self, diagram, loop_exponent):
        with pytest.raises(ValueError):
            ScaledDiagram(diagram, loop_exponent)


class TestCanonicalOrder:
    def test_identity_after_cup(self):
        cup = PlanarDiagram(2, (2, 1, 4, 3))
        ident = PlanarDiagram(2, (3, 4, 1, 2))
        assert canonical_compare(ident, cup) > 0
        assert cup < ident

    def test_equal(self):
        d = PlanarDiagram(2, (2, 1, 4, 3))
        assert canonical_compare(d, PlanarDiagram(2, (2, 1, 4, 3))) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            canonical_compare(PlanarDiagram(1, (2, 1)), PlanarDiagram(2, (2, 1, 4, 3)))

    def test_sorting_basis_is_stable_and_duplicate_free(self):
        basis = list(enumerate_diagrams(4))
        resorted = sorted(basis)
        assert resorted == basis
        assert len({d.pairing for d in basis}) == 14

    def test_strict_total_order_on_basis(self):
        basis = list(enumerate_diagrams(3))
        for a in basis:
            for b in basis:
                ca, cb = canonical_compare(a, b), canonical_compare(b, a)
                assert ca == -cb
                for c in basis:
                    if ca < 0 and canonical_compare(b, c) < 0:
                        assert canonical_compare(a, c) < 0


class TestSerialization:
    def test_identity_line(self):
        ident = ScaledDiagram(PlanarDiagram(2, (3, 4, 1, 2)), 0)
        assert serialize(ident) == "TL 2 m=0 (1,3)(2,4)"

    def test_loop_exponent_line(self):
        scaled = parse("TL 4 m=2 (1,2)(3,7)(4,8)(5,6)")
        assert scaled.loop_exponent == 2
        assert serialize(scaled) == "TL 4 m=2 (1,2)(3,7)(4,8)(5,6)"

    def test_round_trip_whole_basis(self):
        for d in enumerate_diagrams(4):
            scaled = ScaledDiagram(d, 3)
            assert parse(serialize(scaled)) == scaled

    @pytest.mark.parametrize("n", range(1, 10))
    def test_bulk_lines_match_serialize(self, n):
        basis = enumerate_diagrams(n)
        lines = serialize_pairings(n, [d.pairing for d in basis]).splitlines(keepends=True)
        assert len(lines) == len(basis)
        for line, d in zip(lines, basis):
            pairs = "".join(f"({a},{b})" for a, b in d.pairs())
            assert line == f"TL {n} m=0 {pairs}\n"
            assert line == serialize(ScaledDiagram(d, 0)) + "\n"

    @pytest.mark.parametrize(
        "line",
        [
            "TL 2 m=0 (1,1)(2,4)",  # fixed point
            "TL 2 m=0 (1,4)(2,3)",  # crossing
            "TL 2 m=0 (1,2)",  # missing partners
            "TL 2 m=0 (1,2)(1,3)",  # duplicate node
            "TL 2 m=0 (1,9)(2,3)",  # out of range
            "TL 2 (1,2)(3,4)",  # missing loop exponent
            "nonsense",
        ],
    )
    def test_parse_rejects(self, line):
        with pytest.raises(ValueError):
            parse(line)

    def test_parse_memory_bounded_by_text(self):
        # A short line declaring a huge dimension is rejected by its pair
        # count before anything is sized by the dimension.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                parse("TL 5000000 m=0 (1,2)")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRestrictConnectability:
    def test_after_bottom_cup(self):
        gamma = connectability(4)
        restricted = restrict_connectability({1: 2, 2: 1}, 3, gamma)
        assert restricted.partners(3) == (4, 5, 7)

    def test_inside_enclosing_bottom_edge(self):
        gamma = connectability(4)
        restricted = restrict_connectability({1: 4, 4: 1}, 2, gamma)
        assert restricted.partners(2) == (3,)

    def test_rejects_matched_node(self):
        gamma = connectability(4)
        with pytest.raises(ValueError):
            restrict_connectability({1: 2, 2: 1}, 2, gamma)

    def test_rejects_top_frontier(self):
        gamma = connectability(4)
        with pytest.raises(ValueError):
            restrict_connectability({1: 5, 5: 1, 2: 3, 3: 2, 4: 8, 8: 4}, 6, gamma)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_agrees_with_completions_on_reachable_partials(self, n):
        # Walk the enumeration tree; at every bottom frontier the restricted
        # row must list exactly the partners occurring in some completion.
        gamma = connectability(n)
        stack = [PartialDiagram.empty(n)]
        checked = 0
        while stack:
            p = stack.pop()
            f = p.frontier
            if f is None:
                continue
            if f <= n:
                restricted = restrict_connectability(p.matched_map(), f, gamma)
                oracle = sorted({q[f - 1] for q in completions(p.matched_map(), n)})
                assert list(restricted.partners(f)) == oracle, (n, p.pairing, f)
                checked += 1
            stack.extend(extend(p))
        assert checked > 0
