"""Independent oracles the library is checked against.

Everything here is deliberately naive.  These share no code with the
kernel search or the strand-walk composition under test:

* full enumeration of involutions filtered by the direct pairwise
  noncrossing predicate, and a geometric straight-segment intersection test on a
  circle embedding of the box boundary;
* the stack of two diagrams as an explicit graph, resolved by union-find
  and by boolean matrix-power reachability;
* partial diagrams with an independent legal-partner rule, and
  breadth-first and depth-first enumerators built on it.

``element_matrix`` builds the matrix of left multiplication by an element
column by column through element products, to cross-check the element
and matrix routes of the braid image against each other.

``reference_image_terms`` is the bracket element image built the way the
library first built it, one letter at a time in ``LaurentPoly``
arithmetic: ``tlkit.braids._image_rows``, which carries each coefficient
as a row of integers at stride 2, is checked against it.

``reference_map`` is the map of one generator over a basis built the way
the library first built it, by the generator rule applied to every
pairing: ``_backend.generator_maps``, which applies it once per top
link state and relabels the rest, is checked against it.  ``reference_image_columns``
is the bracket matrix image built the way the library first built it,
one letter at a time over every column with ``LaurentPoly`` entries, on
``reference_map``: ``tlkit.braids._image_columns``, which composes the
element image instead, is checked against it.

``bottom_pattern_partition`` is the ideal partition computed the way the
library first did it: group diagrams by bottom pairing pattern and merge
groups along the generator action until they are closed.
``position_blocks`` is the union-find over every basis position along
the generator maps of ``reference_map``, which the library ran before it
read the blocks off the bottom link states.

``dense_braid_image_matrix`` and ``dense_tl_relations`` are the dense
``PolyMatrix`` routes the library replaced by column-monomial maps: the
bracket image as a product of ``a.I + b.U`` letter matrices, and the TL
relations checked by matrix products over ``gm.matrix``.  The matrix
arithmetic they need beyond ``PolyMatrix.__mul__`` (sum, scaling, entry
map, product of a sequence) is defined here.

``dense_product`` is the textbook triple loop over ``rows``, zero cells
included, against which the sparse-column ``PolyMatrix.__mul__`` is
checked.

``closure_bracket`` is the Kauffman bracket of a braid closure, read off
the element image with a union-find over each term's closure.  Its known
values and the Markov moves pin the bracket convention, which the Artin
relations alone do not: they also hold under the mirrored substitution.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from tlkit.braids import BraidWord, braid_image, kauffman_loop_value
from tlkit._backend import Map, _apply_generator, identity_pairing
from tlkit.composition import compose
from tlkit.diagrams import PlanarDiagram
from tlkit.elements import TLElement, multiply
from tlkit.enumeration import DiagramBasis, enumerate_diagrams, identity_diagram
from tlkit.laurent import LaurentPoly
from tlkit.matrices import PolyMatrix
from tlkit.representation import (
    GeneratorMatrix,
    RelationReport,
    generator_matrix,
    generators,
)


def node_position(node: int, dimension: int) -> int:
    """Circular position of a node: bottom row left to right, then top row
    right to left."""
    return node if node <= dimension else 3 * dimension + 1 - node


def all_involutions(dimension: int) -> Iterator[tuple[int, ...]]:
    """Every fixed-point-free involution on 2N nodes as a partner tuple."""
    n = dimension
    pairing = [0] * (2 * n)

    def rec(remaining: list[int]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(pairing)
            return
        a = remaining[0]
        for k in range(1, len(remaining)):
            b = remaining[k]
            pairing[a - 1] = b
            pairing[b - 1] = a
            yield from rec(remaining[1:k] + remaining[k + 1 :])
            pairing[a - 1] = 0
            pairing[b - 1] = 0

    yield from rec(list(range(1, 2 * n + 1)))


def pairwise_noncrossing(pairing: Sequence[int], dimension: int) -> bool:
    """Whether a fixed-point-free involution on the 2N boundary nodes is
    drawable without crossings.

    This is the direct pairwise interleaving test in circular position
    space.  It is deliberately the dumbest correct implementation, since
    it serves as the independent check for the enumeration machinery.
    """
    chords = []
    for i in range(1, 2 * dimension + 1):
        j = pairing[i - 1]
        if i < j:
            p, q = node_position(i, dimension), node_position(j, dimension)
            chords.append((min(p, q), max(p, q)))
    for idx, (a, b) in enumerate(chords):
        for c, d in chords[idx + 1 :]:
            if a < c < b < d or c < a < d < b:
                return False
    return True


def brute_force_basis(dimension: int) -> list[tuple[int, ...]]:
    """All involutions passing pairwise_noncrossing, sorted."""
    return sorted(
        p for p in all_involutions(dimension) if pairwise_noncrossing(p, dimension)
    )


@functools.cache
def _brute_force_basis_once(dimension: int) -> tuple[tuple[int, ...], ...]:
    # A walk asks for the completions of each of its partial diagrams, all
    # filtered from the same basis: it is built once per dimension.
    return tuple(brute_force_basis(dimension))


def completions(partial: Mapping[int, int], dimension: int) -> list[tuple[int, ...]]:
    """All noncrossing perfect matchings containing the given edges."""
    return [
        p
        for p in _brute_force_basis_once(dimension)
        if all(p[a - 1] == b for a, b in partial.items())
    ]


def _orient(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def geometric_noncrossing(pairing: tuple[int, ...], dimension: int) -> bool:
    """Straight chords on a circle carrying the box boundary order.

    Walking the box boundary (bottom left to right, then up the side and
    back along the top) visits the nodes in one cyclic order; placing
    them on a circle in that order is a homeomorphic embedding, and two
    strands can be drawn disjoint exactly when the straight chords do not
    intersect.  Distinct chords of a circle are never collinear, so the
    orientation-sign test is robust here.
    """
    n = dimension
    points = {}
    for i in range(1, 2 * n + 1):
        angle = 2 * math.pi * (node_position(i, n) - 1) / (2 * n)
        points[i] = (math.cos(angle), math.sin(angle))
    chords = [
        (points[i], points[pairing[i - 1]])
        for i in range(1, 2 * n + 1)
        if i < pairing[i - 1]
    ]
    for idx, (p1, p2) in enumerate(chords):
        for p3, p4 in chords[idx + 1 :]:
            o1 = _orient(p1, p2, p3)
            o2 = _orient(p1, p2, p4)
            o3 = _orient(p3, p4, p1)
            o4 = _orient(p3, p4, p2)
            if o1 * o2 < 0 and o3 * o4 < 0:
                return False
    return True


@dataclass(frozen=True)
class StackGraph:
    """The 3N-node gluing of two diagrams of dimension N.

    ``edges`` is an edge multiset (sorted pairs, 1-based stack labels);
    parallel middle edges are kept separate because a doubled middle edge
    is a closed loop.
    """

    dimension: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.dimension
        degree = [0] * (3 * n + 1)
        for a, b in self.edges:
            if not (1 <= a <= 3 * n and 1 <= b <= 3 * n):
                raise ValueError(f"edge ({a},{b}) out of range")
            degree[a] += 1
            degree[b] += 1
        for node in range(1, 3 * n + 1):
            want = 2 if n < node <= 2 * n else 1
            if degree[node] != want:
                raise ValueError(
                    f"stack node {node} has degree {degree[node]}, expected {want}"
                )

    @classmethod
    def from_diagrams(cls, d1: PlanarDiagram, d2: PlanarDiagram) -> StackGraph:
        """Glue d2 on top of d1.  The bottom factor keeps its labels (its
        top row becomes the middle); the top factor shifts up by N."""
        if d1.dimension != d2.dimension:
            raise ValueError(
                f"cannot stack dimensions {d1.dimension} and {d2.dimension}"
            )
        n = d1.dimension
        edges = [(a, b) for a, b in d1.pairs()]
        edges += [(a + n, b + n) for a, b in d2.pairs()]
        return cls(n, tuple(sorted(edges)))

    def is_boundary(self, node: int) -> bool:
        n = self.dimension
        return node <= n or node > 2 * n

    def boundary_label(self, node: int) -> int:
        """Map a stack boundary node to the 1..2N label of the product."""
        n = self.dimension
        return node if node <= n else node - n


def _components(g: StackGraph) -> list[list[int]]:
    n = g.dimension
    parent = list(range(3 * n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    members: dict[int, list[int]] = {}
    for x in range(1, 3 * n + 1):
        members.setdefault(find(x), []).append(x)
    return list(members.values())


def loop_count_unionfind(g: StackGraph) -> int:
    """Number of connected components containing only middle nodes."""
    return sum(
        1
        for comp in _components(g)
        if not any(g.is_boundary(x) for x in comp)
    )


def boundary_pairing_unionfind(g: StackGraph) -> tuple[int, ...]:
    """Partner tuple of the product diagram read off the components."""
    n = g.dimension
    pairing = [0] * (2 * n)
    for comp in _components(g):
        boundary = [x for x in comp if g.is_boundary(x)]
        if not boundary:
            continue
        if len(boundary) != 2:
            raise ValueError(f"component {comp} has {len(boundary)} boundary ends")
        u, v = (g.boundary_label(x) for x in boundary)
        pairing[u - 1] = v
        pairing[v - 1] = u
    return tuple(pairing)


def _adjacency_with_unit_diagonal(g: StackGraph) -> np.ndarray:
    n = g.dimension
    m = np.eye(3 * n, dtype=np.int64)
    for a, b in g.edges:
        m[a - 1, b - 1] = 1
        m[b - 1, a - 1] = 1
    return m


def connectivity_matrixpower(g: StackGraph) -> np.ndarray:
    """Boolean reachability between all stack nodes (0-based array), by
    squaring the unit-diagonal adjacency matrix to a fixpoint."""
    reach = _adjacency_with_unit_diagonal(g) > 0
    while True:
        nxt = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def reachability_power(g: StackGraph, exponent: int) -> np.ndarray:
    """Reachability by paths of length <= exponent (0-based array); the
    fixed-power variant the full closure is checked against."""
    m = _adjacency_with_unit_diagonal(g)
    acc = np.eye(3 * g.dimension, dtype=np.int64)
    base = m
    k = exponent
    while k:
        if k & 1:
            acc = np.minimum(acc @ base, 1)
        base = np.minimum(base @ base, 1)
        k >>= 1
    return acc > 0


def boundary_pairing_matrixpower(g: StackGraph) -> tuple[int, ...]:
    """Partner tuple of the product read off matrix-power reachability."""
    n = g.dimension
    reach = connectivity_matrixpower(g)
    pairing = [0] * (2 * n)
    boundary = [x for x in range(1, 3 * n + 1) if g.is_boundary(x)]
    for u in boundary:
        mates = [
            v for v in boundary if v != u and reach[u - 1, v - 1]
        ]
        if len(mates) != 1:
            raise ValueError(f"boundary node {u} reaches {len(mates)} others")
        pairing[g.boundary_label(u) - 1] = g.boundary_label(mates[0])
    return tuple(pairing)


@dataclass(frozen=True)
class PartialDiagram:
    """A partially built diagram: some nodes matched, the rest free.

    ``pairing[i-1]`` is the partner of node i, or 0 while unmatched.  The
    frontier is the smallest unmatched node.  Instances are immutable;
    ``with_edge`` copies.
    """

    dimension: int
    pairing: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.pairing) != 2 * self.dimension:
            raise ValueError("pairing length must be 2N")
        for i, j in enumerate(self.pairing, start=1):
            if j and (j == i or self.pairing[j - 1] != i):
                raise ValueError(f"partial pairing is not an involution at node {i}")
        if not self._placed_edges_noncrossing():
            raise ValueError("placed edges cross")

    def _placed_edges_noncrossing(self) -> bool:
        chords = []
        for a, b in self.placed_edges():
            p, q = node_position(a, self.dimension), node_position(b, self.dimension)
            chords.append((min(p, q), max(p, q)))
        for idx, (a, b) in enumerate(chords):
            for c, d in chords[idx + 1 :]:
                if a < c < b < d or c < a < d < b:
                    return False
        return True

    @classmethod
    def empty(cls, dimension: int) -> PartialDiagram:
        return cls(dimension, (0,) * (2 * dimension))

    @property
    def frontier(self) -> int | None:
        """Smallest unmatched node, or None when complete."""
        for i, j in enumerate(self.pairing, start=1):
            if not j:
                return i
        return None

    def is_complete(self) -> bool:
        return self.frontier is None

    def placed_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j) for i, j in enumerate(self.pairing, start=1) if j and i < j
        )

    def matched_map(self) -> dict[int, int]:
        return {i: j for i, j in enumerate(self.pairing, start=1) if j}

    def with_edge(self, a: int, b: int) -> PartialDiagram:
        if self.pairing[a - 1] or self.pairing[b - 1]:
            raise ValueError(f"node {a} or {b} is already matched")
        grid = list(self.pairing)
        grid[a - 1] = b
        grid[b - 1] = a
        return PartialDiagram(self.dimension, tuple(grid))

    def to_diagram(self) -> PlanarDiagram:
        if not self.is_complete():
            raise ValueError("partial diagram is not complete")
        return PlanarDiagram(self.dimension, self.pairing)


def legal_partners(p: PartialDiagram) -> tuple[int, ...]:
    """Partners of the frontier node which keep the diagram completable.

    A partner j qualifies when the new strand crosses nothing already
    placed and leaves an even number of unmatched nodes strictly inside
    it; for partials reached by frontier-order placement this is exactly
    the set of partners occurring in some noncrossing completion.
    """
    f = p.frontier
    if f is None:
        return ()
    n = p.dimension
    size = 2 * n
    pos = [node_position(i, n) for i in range(0, size + 1)]  # pos[0] unused
    chords = [
        (min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in p.placed_edges()
    ]
    unmatched_at = [False] * (size + 2)
    for i in range(1, size + 1):
        if not p.pairing[i - 1]:
            unmatched_at[pos[i]] = True

    result = []
    pf = pos[f]
    for j in range(f + 1, size + 1):
        if p.pairing[j - 1]:
            continue
        lo, hi = min(pf, pos[j]), max(pf, pos[j])
        if any(a < lo < b < hi or lo < a < hi < b for a, b in chords):
            continue
        inside = sum(1 for q in range(lo + 1, hi) if unmatched_at[q])
        if inside % 2 == 0:
            result.append(j)
    return tuple(result)


def extend(p: PartialDiagram) -> list[PartialDiagram]:
    """One child per legal partner of the frontier, ascending partner
    order.  Complete partials return the empty list."""
    f = p.frontier
    if f is None:
        return []
    return [p.with_edge(f, j) for j in legal_partners(p)]


def enumerate_breadth_first(dimension: int) -> list[PlanarDiagram]:
    """Worklist enumeration over extend(), one generation of edges at a
    time; returns the sorted basis.  Reference path for tests."""
    generation: deque[PartialDiagram] = deque([PartialDiagram.empty(dimension)])
    complete: list[PlanarDiagram] = []
    while generation:
        p = generation.popleft()
        if p.is_complete():
            complete.append(p.to_diagram())
            continue
        generation.extend(extend(p))
    return sorted(complete)


def enumerate_depth_first(dimension: int) -> list[PlanarDiagram]:
    """Recursive enumeration over extend(); returns the sorted basis.
    Reference path for tests."""
    out: list[PlanarDiagram] = []

    def rec(p: PartialDiagram) -> None:
        if p.is_complete():
            out.append(p.to_diagram())
            return
        for child in extend(p):
            rec(child)

    rec(PartialDiagram.empty(dimension))
    return sorted(out)


def element_matrix(element: TLElement) -> PolyMatrix:
    """Matrix of left multiplication by an element over the
    identity-included canonical basis; used to cross-check the two braid
    image routes against each other."""
    basis = enumerate_diagrams(element.dimension)
    index = {d: i for i, d in enumerate(basis)}
    size = len(basis)
    zero = LaurentPoly.zero("A")
    grid = [[zero] * size for _ in range(size)]
    for i, d in enumerate(basis):
        column = multiply(
            element,
            TLElement.from_diagram(d, LaurentPoly.one("A")),
            kauffman_loop_value(),
        )
        for image, c in column.terms:
            grid[index[image]][i] = c
    return PolyMatrix.from_rows("A", grid)


def matrix_sum(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    a._check(b)
    return PolyMatrix.from_rows(
        a.variable,
        tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)),
    )


def matrix_scaled(m: PolyMatrix, factor: LaurentPoly) -> PolyMatrix:
    if factor.variable != m.variable:
        raise ValueError("scale factor must share the matrix variable")
    return PolyMatrix.from_rows(
        m.variable, tuple(tuple(entry * factor for entry in row) for row in m.rows)
    )


def map_entries(
    m: PolyMatrix, f: Callable[[LaurentPoly], LaurentPoly], variable: str | None = None
) -> PolyMatrix:
    """Apply f to every entry; pass ``variable`` when f changes it."""
    mapped = tuple(tuple(f(entry) for entry in row) for row in m.rows)
    return PolyMatrix.from_rows(variable or m.variable, mapped)


def dense_product(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """a * b cell by cell: entry (i, j) is the sum over k of
    a[i][k] * b[k][j], read from the dense rows of both."""
    a._check(b)
    left, right, zero = a.rows, b.rows, LaurentPoly.zero(a.variable)
    cells = range(a.size)
    return PolyMatrix.from_rows(
        a.variable,
        tuple(
            tuple(sum((left[i][k] * right[k][j] for k in cells), zero) for j in cells)
            for i in cells
        ),
    )


def matrix_product(matrices: Iterable[PolyMatrix]) -> PolyMatrix:
    result: PolyMatrix | None = None
    for m in matrices:
        result = m if result is None else result * m
    if result is None:
        raise ValueError("empty matrix product")
    return result


@functools.cache
def _dense_letter_matrix(strands: int, letter: int) -> PolyMatrix:
    """a.I + b.U_|letter| over the identity-included basis, U with its
    entries taken at d = -A^2 - A^-2.  A ``PolyMatrix`` is immutable, so
    each (strands, letter) is built once and shared."""
    basis = enumerate_diagrams(strands)
    gm = generator_matrix(abs(letter), basis, include_identity=True)
    loop = kauffman_loop_value()
    u = map_entries(gm.matrix, lambda p: p.substitute(loop), variable="A")
    a = LaurentPoly.monomial("A", 1)
    a_inv = LaurentPoly.monomial("A", -1)
    straight, crossed = (a, a_inv) if letter > 0 else (a_inv, a)
    return matrix_sum(
        matrix_scaled(PolyMatrix.identity(u.size, "A"), straight),
        matrix_scaled(u, crossed),
    )


def dense_braid_image_matrix(word: BraidWord) -> PolyMatrix:
    """The bracket image matrix as the ordered product of dense letter
    matrices."""
    acc = PolyMatrix.identity(len(enumerate_diagrams(word.strands)), "A")
    for letter in word.letters:
        acc = acc * _dense_letter_matrix(word.strands, letter)
    return acc


def reference_map(pairings: Sequence[tuple[int, ...]], k: int) -> Map:
    """U_k on every pairing of the basis ``pairings``, in order, by the
    generator rule applied to each: (targets, exponents) with
    U_k . P_i = d^exponents[i] . P_targets[i]."""
    index = {p: i for i, p in enumerate(pairings)}
    images = (_apply_generator(p, k, len(p) // 2) for p in pairings)
    return tuple(zip(*[(index[p], m) for p, m in images]))


def reference_image_terms(word: BraidWord) -> list[tuple[tuple[int, ...], LaurentPoly]]:
    """The bracket image of a word as its nonzero (partner tuple,
    ``LaurentPoly``) terms, sorted, one letter at a time in ``LaurentPoly``
    arithmetic: a letter of sign s takes each term c.P to A^s.c.P plus
    A^-s.d^m.c.U(P), where U closes m loops on P."""
    n = word.strands
    terms = {identity_pairing(n): LaurentPoly.one("A")}
    # b.d for either sign, the factor of a term whose U closes a loop
    d = kauffman_loop_value()
    with_loop = {shift: d.shifted(-shift) for shift in (1, -1)}
    for letter in reversed(word.letters):
        # the letter is a.1 + b.U with a = A^shift and b = A^-shift
        shift = 1 if letter > 0 else -1
        updated = {pairing: c.shifted(shift) for pairing, c in terms.items()}
        for pairing, c in terms.items():
            image, loops = _apply_generator(pairing, abs(letter), n)
            q = c * with_loop[shift] if loops else c.shifted(-shift)
            updated[image] = updated[image] + q if image in updated else q
        terms = {p: c for p, c in updated.items() if not c.is_zero()}
    return sorted(terms.items())


def reference_image_columns(
    word: BraidWord, pairings: Sequence[tuple[int, ...]]
) -> list[dict[int, LaurentPoly]]:
    """The bracket image over the identity-included basis ``pairings`` as
    sparse columns of ``LaurentPoly`` entries, one letter at a time:
    column c becomes a.col_c + b.d^{m_c}.col_{t_c}, and an entry that
    cancels is dropped."""
    one = LaurentPoly.one("A")
    columns = [{i: one} for i in range(len(pairings))]
    loop = kauffman_loop_value()
    maps = {k: reference_map(pairings, k) for k in {abs(letter) for letter in word.letters}}
    for letter in word.letters:
        targets, exponents = maps[abs(letter)]
        shift = 1 if letter > 0 else -1
        with_loop = LaurentPoly.monomial("A", -shift) * loop
        updated = []
        for own, target, m in zip(columns, targets, exponents):
            column = {row: p.shifted(shift) for row, p in own.items()}
            for row, p in columns[target].items():
                q = p * with_loop if m else p.shifted(-shift)
                if row in column:
                    q = column[row] + q
                    if q.is_zero():
                        del column[row]
                        continue
                column[row] = q
            updated.append(column)
        columns = updated
    return columns


def dense_tl_relations(matrices: Sequence[GeneratorMatrix]) -> RelationReport:
    """The TL relations checked by dense products of ``gm.matrix``; the
    entries match ``verify_tl_relations`` (no witnesses)."""
    by_index = {m.generator_index: m.matrix for m in matrices}
    d = LaurentPoly.monomial("d", 1)
    entries: list[tuple[str, bool]] = []
    indices = sorted(by_index)
    for i in indices:
        u = by_index[i]
        entries.append((f"U_{i}^2 = d*U_{i}", u * u == matrix_scaled(u, d)))
    for i in indices:
        if i + 1 in by_index:
            u, v = by_index[i], by_index[i + 1]
            entries.append((f"U_{i}*U_{i + 1}*U_{i} = U_{i}", u * v * u == u))
    for i in indices:
        if i - 1 in by_index:
            u, v = by_index[i], by_index[i - 1]
            entries.append((f"U_{i}*U_{i - 1}*U_{i} = U_{i}", u * v * u == u))
    for i in indices:
        for j in indices:
            if j - i >= 2:
                u, v = by_index[i], by_index[j]
                entries.append((f"U_{i}*U_{j} = U_{j}*U_{i}", u * v == v * u))
    size = next(iter(by_index.values())).size
    return RelationReport(
        f"Temperley-Lieb relations, matrix level ({size}x{size})",
        tuple(entries),
    )


@functools.cache
def _bottom_steps(d: PlanarDiagram) -> tuple[frozenset, tuple[frozenset, ...]]:
    """The bottom pairs of ``d`` and of d.U_k for every generator U_k,
    each built once per diagram: the closure below reads them for several
    orders of a basis, with and without the identity."""
    gens = generators(d.dimension) if d.dimension >= 2 else []
    return d.bottom_pairs(), tuple(compose(d, g.diagram).diagram.bottom_pairs() for g in gens)


def bottom_pattern_partition(
    basis: DiagramBasis, include_identity: bool = False
) -> tuple[tuple[PlanarDiagram, ...], ...]:
    """Ideal blocks by bottom-pattern closure: diagrams with one bottom
    pairing pattern start in one group, and the groups of D and U_k.D are
    merged for every generator.  Blocks are sorted inside and by their
    smallest member, as ``ideal_partition`` sorts them."""
    ident = identity_diagram(basis.dimension)
    members = [d for d in basis if include_identity or d != ident]
    parent = {own: own for own, _ in map(_bottom_steps, members)}

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for d in members:
        own, images = _bottom_steps(d)
        for image in images:
            ra, rb = find(own), find(image)
            if ra != rb:
                parent[rb] = ra
    grouped: dict[frozenset, list[PlanarDiagram]] = {}
    for d in members:
        grouped.setdefault(find(_bottom_steps(d)[0]), []).append(d)
    blocks = [tuple(sorted(block)) for block in grouped.values()]
    return tuple(sorted(blocks, key=lambda b: b[0].pairing))


def position_blocks(pairings: Sequence[tuple[int, ...]], include_identity: bool) -> list[list[int]]:
    """The positions of the basis ``pairings`` grouped into the components
    of the generator action by a union-find over every position: i and
    targets[i] share a block for every map of U_1..U_{N-1}.  Sorted
    canonically within each block and by first members; the identity and
    its edges are left out unless it is included."""
    n = len(pairings[0]) // 2
    skip = -1 if include_identity else pairings.index(identity_pairing(n))
    parent = list(range(len(pairings)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for k in range(1, n):
        for i, j in enumerate(reference_map(pairings, k)[0]):
            if i != skip:
                parent[find(j)] = find(i)
    grouped: dict[int, list[int]] = {}
    for i in range(len(pairings)):
        if i != skip:
            grouped.setdefault(find(i), []).append(i)
    blocks = [sorted(block, key=pairings.__getitem__) for block in grouped.values()]
    return sorted(blocks, key=lambda block: pairings[block[0]])


def closure_bracket(word: BraidWord) -> LaurentPoly:
    """The Kauffman bracket of the closure of ``word``, with the unknot
    worth 1: the sum of c.d^(loops - 1) over the terms (E, c) of
    ``braid_image(word)``, where the closure of E joins top node N+i to
    bottom node i and loops counts its cycles (Kauffman, "State models
    and the Jones polynomial", Topology 26, 1987)."""
    n = word.strands
    d = kauffman_loop_value()
    total = LaurentPoly.zero("A")
    for diagram, c in braid_image(word).terms:
        parent = list(range(2 * n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in (*diagram.pairs(), *((n + i, i) for i in range(1, n + 1))):
            parent[find(a)] = find(b)
        loops = len({find(x) for x in range(1, 2 * n + 1)})
        total = total + c * d ** (loops - 1)
    return total
