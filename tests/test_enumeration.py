import gc
import random
import sys
import tracemalloc

import pytest

from tlkit import _backend
from tlkit.braids import BraidWord, _image_columns, _image_terms
from tlkit.diagrams import PlanarDiagram, connectability, restrict_connectability
from tlkit.enumeration import (
    DiagramBasis,
    catalan,
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


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_rows_are_bytes_in_the_reference_order(n):
    # The walk emits each row as ``bytes``, the shape of the link states
    # read off it; as tuples its rows are the brute-force basis, in order.
    rows = _backend.enumerate_pairings(n)
    assert {type(row) for row in rows} == {bytes}
    assert list(map(tuple, rows)) == brute_force_basis(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_bytes_rows_sort_as_their_tuples(n):
    # So the walk's order, the ideal blocks' canonical order and the order
    # of the bracket image's columns do not depend on the row type.
    rows = _backend.enumerate_pairings(n)
    assert sorted(rows) == rows
    shuffled = random.Random(n).sample(rows, len(rows))
    tuples = list(map(tuple, shuffled))
    assert list(map(tuple, sorted(shuffled))) == sorted(tuples)
    for include_identity in (False, True):
        blocks = _backend.ideal_blocks(shuffled, include_identity)
        assert blocks == _backend.ideal_blocks(tuples, include_identity)
    rng = random.Random(n)
    word = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(4 * (n > 1))))
    # the element image keeps tuples, sorted as ever
    terms = [pairing for pairing, _ in _image_terms(word)]
    assert {type(p) for p in terms} == {tuple} and terms == sorted(terms)
    assert list(_image_columns(word, rows, str)) == list(_image_columns(word, list(map(tuple, rows)), str))


@pytest.mark.parametrize("n", range(1, 8))
def test_the_basis_holds_tuple_pairings(n):
    # The object layer converts the walk's rows in one place, so a
    # diagram's pairing is the public tuple, a user-built diagram is found
    # by its tuple, and the identity is the identity.
    basis = enumerate_diagrams(n)
    assert {type(d.pairing) for d in basis} == {tuple}
    for i, d in enumerate(basis):
        assert basis.index_of(PlanarDiagram(n, list(d.pairing))) == i
    assert identity_diagram(n).is_identity()
    assert basis[basis.index_of(identity_diagram(n))].is_identity()


@pytest.mark.parametrize("n", range(1, 6))
def test_worklist_and_recursive_routes_agree(n):
    expected = list(enumerate_diagrams(n))
    assert enumerate_breadth_first(n) == expected
    assert enumerate_depth_first(n) == expected


def test_ceiling_enforced():
    with pytest.raises(ValueError):
        enumerate_diagrams(5, max_dimension=4)
    with pytest.raises(ValueError):
        enumerate_diagrams(0)


@pytest.mark.parametrize("dimension", [2.0, 1.5, "3", None])
def test_rejects_non_integer_dimension(dimension):
    with pytest.raises(ValueError, match="integer"):
        enumerate_diagrams(dimension)


# The two walks and the count, which keeps their depth check, each called
# with a dimension alone.
KERNELS = {
    "enumerate_pairings": _backend.enumerate_pairings,
    "count_pairings": _backend.count_pairings,
    "pairing_lines": _backend.pairing_lines,
}


def test_kernel_rejects_bad_dimension():
    # The kernels hold the one size rule, with its messages.
    cases = [
        (0, "dimension must be at least 1"),
        (-2, "dimension must be at least 1"),
        (2.0, "dimension must be an integer, got 2.0"),
        ("3", "dimension must be an integer, got '3'"),
    ]
    for kernel in KERNELS.values():
        for dimension, message in cases:
            with pytest.raises(ValueError) as exc:
                kernel(dimension)
            assert str(exc.value) == message


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_walks_refuse_a_depth_the_interpreter_cannot_reach(kernel, monkeypatch):
    deepest = sys.getrecursionlimit() // 4
    refusal = f"dimension {deepest + 1} exceeds the search depth limit {deepest}"
    if kernel is _backend.enumerate_pairings:
        # Its rows hold each partner, up to 2N, in a byte: a bound below
        # the depth limit, refused by name.
        assert deepest > 127
        deepest, refusal = 127, "dimension 128 out of range 1..127"
    with pytest.raises(ValueError) as exc:
        kernel(deepest + 1)
    assert str(exc.value) == refusal
    # At the limit the walk runs: cut to the first branch of every search
    # state, it reaches its one leaf without a RecursionError.
    partners = _backend._partners

    def first(matched, n):
        f, options = partners(matched, n)
        return f, None if options is None else options[:1]

    monkeypatch.setattr(_backend, "_partners", first)
    # The real pair texts at this depth would be 124,750 strings, cached:
    # every pair reads "" here.
    monkeypatch.setattr(_backend, "_pair_texts", lambda n: [[""] * (2 * n + 1)] * (2 * n))
    assert kernel(deepest)


def test_partners_match_the_restricted_connectability():
    # Walk the search tree by the rule itself; at each bottom frontier the
    # rule must give the partners the connectability matrix allows once
    # the placed edges restrict it.
    checked = 0
    for n in range(1, 8):
        gamma = connectability(n)
        stack = [(1, {})]
        while stack:
            matched, partial = stack.pop()
            f, partners = _backend._partners(matched, n)
            if partners is None:
                continue
            if f <= n:
                expected = restrict_connectability(partial, f, gamma).partners(f)
                assert tuple(partners) == expected, (n, partial)
                checked += 1
            for j in partners:
                stack.append((matched | 1 << f | 1 << j, {**partial, f: j, j: f}))
    assert checked == 398


@pytest.mark.parametrize("n", range(1, 11))
def test_every_reachable_state_has_a_partner(n):
    # "Every branch completes": no state short of the leaf is a dead end.
    seen = set()
    stack = [1]
    while stack:
        matched = stack.pop()
        if matched in seen:
            continue
        seen.add(matched)
        f, partners = _backend._partners(matched, n)
        if partners is None:
            assert matched == (1 << 2 * n + 1) - 1
            continue
        assert partners, (n, bin(matched))
        stack.extend(matched | 1 << f | 1 << j for j in partners)


@pytest.mark.parametrize("n", range(1, 12))
def test_memoized_count_matches_the_walk(n):
    assert _backend.count_pairings(n) == len(_backend.enumerate_pairings(n))


@pytest.mark.parametrize("n", range(1, 16))
def test_memoized_count_is_catalan(n):
    assert _backend.count_pairings(n) == catalan(n)


@pytest.mark.parametrize(
    "walk,bound",
    [
        # 289 KB of memo was held here while the memo outlived the call
        (lambda: _backend.count_pairings(12), 16 << 10),
        # 13.6 MB (the leaves) was held here; what is left is the
        # interpreter's free lists of small tuples
        (lambda: len(_backend.enumerate_pairings(11)), 1 << 20),
        (lambda: len(_backend.pairing_lines(11)), 1 << 20),
    ],
    ids=["count_pairings", "enumerate_pairings", "pairing_lines"],
)
def test_walks_hold_nothing_after_they_return(walk, bound):
    # The walks recurse through closures that refer to themselves, so what
    # they hold is freed at return only if the walk frees it: a garbage
    # collection, switched off here, would hide the leak.
    walk()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        walk()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < bound


@pytest.mark.parametrize(
    "action",
    [
        lambda: _backend.generator_maps(_backend.enumerate_pairings(8), range(1, 8)),
        lambda: list(_image_columns(BraidWord(8, (1, -2, 3, -7)), _backend.enumerate_pairings(8), str)),
    ],
    ids=["maps", "image_columns"],
)
def test_left_actions_leave_no_cycle(action):
    # The link grid memoizes its relabelling in a closure; one that referred
    # to itself would hold the grid until a garbage collection, switched
    # off here, as the walks once held their memos.
    gc.collect()
    gc.disable()
    try:
        action()
        assert gc.collect() == 0
    finally:
        gc.enable()


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
