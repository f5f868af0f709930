import pytest

from tlkit import _backend
from tlkit.diagrams import PlanarDiagram
from tlkit.enumeration import (
    DiagramBasis,
    catalan,
    count_diagrams,
    enumerate_diagrams,
    identity_diagram,
)

from oracles import (
    PartialDiagram,
    brute_force_basis,
    completions,
    enumerate_breadth_first,
    enumerate_depth_first,
    extend,
    legal_partners,
)

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_catalan_values():
    assert [catalan(n) for n in range(1, 11)] == CATALAN


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_size(n):
    assert len(enumerate_diagrams(n)) == catalan(n)
    assert count_diagrams(n) == catalan(n)


def test_basis_is_sorted_and_indexed():
    basis = enumerate_diagrams(5)
    diagrams = list(basis)
    assert diagrams == sorted(diagrams)
    for i, d in enumerate(diagrams):
        assert basis.index_of(d) == i
        assert d in basis


def test_basis_rejects_diagram_of_other_dimension():
    with pytest.raises(ValueError, match="dimension 2"):
        DiagramBasis(2, (identity_diagram(2), identity_diagram(3)))


def test_basis_lookup_needs_same_dimension():
    basis = enumerate_diagrams(2)
    assert identity_diagram(3) not in basis
    assert "TL 2" not in basis
    with pytest.raises(KeyError):
        basis.index_of(identity_diagram(3))


@pytest.mark.parametrize("n", range(1, 6))
def test_matches_brute_force(n):
    assert [d.pairing for d in enumerate_diagrams(n)] == brute_force_basis(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_worklist_and_recursive_routes_agree(n):
    expected = list(enumerate_diagrams(n))
    assert enumerate_breadth_first(n) == expected
    assert enumerate_depth_first(n) == expected


def test_ceiling_enforced():
    with pytest.raises(ValueError):
        enumerate_diagrams(5, max_dimension=4)
    with pytest.raises(ValueError):
        count_diagrams(5, max_dimension=4)
    with pytest.raises(ValueError):
        enumerate_diagrams(0)


@pytest.mark.parametrize("dimension", [2.0, 1.5, "3", None])
def test_rejects_non_integer_dimension(dimension):
    with pytest.raises(ValueError, match="integer"):
        enumerate_diagrams(dimension)
    with pytest.raises(ValueError, match="integer"):
        count_diagrams(dimension)


def test_kernel_rejects_bad_dimension():
    with pytest.raises(ValueError):
        _backend.enumerate_pairings(0)
    with pytest.raises(ValueError):
        _backend.count_pairings(0)


def test_identity_diagram():
    assert identity_diagram(2).pairing == (3, 4, 1, 2)
    assert identity_diagram(4).pairing == (5, 6, 7, 8, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        identity_diagram(0)


class TestPartialDiagram:
    def test_empty_has_frontier_one(self):
        p = PartialDiagram.empty(3)
        assert p.frontier == 1
        assert not p.is_complete()

    def test_with_edge_and_completion(self):
        p = PartialDiagram.empty(2).with_edge(1, 2).with_edge(3, 4)
        assert p.is_complete()
        assert p.to_diagram() == PlanarDiagram(2, (2, 1, 4, 3))

    def test_rejects_crossing_partial(self):
        with pytest.raises(ValueError):
            PartialDiagram(2, (4, 3, 2, 1))

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            PartialDiagram(2, (2, 0, 0, 0))

    def test_with_edge_rejects_matched(self):
        p = PartialDiagram.empty(2).with_edge(1, 2)
        with pytest.raises(ValueError):
            p.with_edge(2, 3)

    def test_incomplete_to_diagram_rejected(self):
        with pytest.raises(ValueError):
            PartialDiagram.empty(2).to_diagram()


class TestExtend:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_empty_diagram_has_n_children(self, n):
        assert len(extend(PartialDiagram.empty(n))) == n

    def test_forced_completion(self):
        p = PartialDiagram.empty(2).with_edge(1, 2)
        children = extend(p)
        assert len(children) == 1
        assert children[0].pairing == (2, 1, 4, 3)

    def test_children_of_enclosing_edge(self):
        # {1-4} walls node 2 in: the only continuation pairs it with 3.
        p = PartialDiagram.empty(4).with_edge(1, 4)
        children = extend(p)
        assert [c.pairing[1] for c in children] == [3]
        oracle = sorted({q[1] for q in completions({1: 4, 4: 1}, 4)})
        assert sorted(legal_partners(p)) == oracle

    def test_complete_partial_has_no_children(self):
        p = PartialDiagram.empty(1).with_edge(1, 2)
        assert extend(p) == []

    def test_ascending_partner_order(self):
        children = extend(PartialDiagram.empty(4))
        partners = [c.pairing[0] for c in children]
        assert partners == sorted(partners) == [2, 4, 5, 7]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exactly_the_completable_children(self, n):
        # Instrumented walk: a child exists iff the oracle completes it,
        # so nothing completable is pruned and nothing dead survives.
        stack = [PartialDiagram.empty(n)]
        while stack:
            p = stack.pop()
            f = p.frontier
            if f is None:
                continue
            oracle = sorted({q[f - 1] for q in completions(p.matched_map(), n)})
            assert sorted(legal_partners(p)) == oracle, (n, p.pairing)
            stack.extend(extend(p))


def test_basis_rejects_wrong_count():
    b = enumerate_diagrams(2)
    with pytest.raises(ValueError):
        DiagramBasis(2, b.diagrams[:1])
