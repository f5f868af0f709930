"""Planar diagram types, connectability rules and serialization.

Node convention (1-based everywhere a number crosses an interface): a
diagram of dimension N lives in a box with N marked points on the bottom
edge, numbered 1..N left to right, and N points on the top edge, numbered
N+1..2N left to right.  A loop-free planar diagram is a perfect matching
of the 2N boundary points drawable inside the box without strand
crossings.

Crossing test: walking the box boundary bottom-left -> bottom-right ->
top-right -> top-left visits the nodes in a circle, so planarity in the
box is the classical noncrossing condition for chords of a circle.  The
library checks it in one stack pass over that walk,
``_backend._noncrossing``: a chord closes when its other end is on top
of the stack.  The test oracle ``tests/oracles.py:node_position`` places
node i at position i for bottom nodes and 3N+1-i for top nodes, where
two chords cross exactly when their endpoint positions interleave.

A ``ScaledDiagram`` is d^m times a loop-free diagram: compositions factor
every closed loop out as one power of the loop parameter d.

Diagram line format (one diagram per line, used by the CLI and the
enumeration cache):

    TL <N> m=<m> (<a1>,<b1>)(<a2>,<b2>)...

with pairs sorted by smaller endpoint and the smaller endpoint written
first, e.g. ``TL 4 m=2 (1,2)(3,7)(4,8)(5,6)``.  ``serialize`` writes it
through ``_backend.diagram_line`` and ``parse`` reads it through
``_backend.read_line``; the CLI calls both directly, on partner
tuples.

The value base ``_Value`` and the type checks the classes here use
(``_require``, ``_integers``, ``_pairs``) live in ``tlkit._values``, so
that the modules that need no diagram (``laurent``, ``braids``) do not
load this one.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping
from itertools import chain
from typing import Sequence

from ._backend import _dimension, _in_range, _integer, _noncrossing, diagram_line, identity_pairing, read_line
from ._values import _integers, _pairs, _require, _Value


def _node(value: int, dimension: int) -> int:
    """``value`` as a node number of a diagram of ``dimension``, 1..2N."""
    return _in_range(value, "node", 1, 2 * dimension)


def _check_involution(pairing: tuple[int, ...], dimension: int) -> None:
    size = 2 * dimension
    if len(pairing) != size:
        raise ValueError(f"pairing must list {size} partners, got {len(pairing)}")
    for i in range(1, size + 1):
        j = pairing[i - 1]
        if not 1 <= j <= size:
            raise ValueError(f"partner {j} of node {i} out of range 1..{size}")
        if j == i:
            raise ValueError(f"node {i} is paired with itself")
        if pairing[j - 1] != i:
            raise ValueError(f"pairing is not an involution at nodes {i}, {j}")


def is_noncrossing(pairing: Sequence[int], dimension: int) -> bool:
    """Whether a fixed-point-free involution on the 2N boundary nodes is
    drawable without crossings (the stack pass ``_backend._noncrossing``).
    Non-involutions are rejected with ValueError.
    """
    dimension = _dimension(dimension)
    pairing = _integers(pairing, "partners must be integers, given as a sequence")
    _check_involution(pairing, dimension)
    return _noncrossing(pairing, dimension)


@functools.total_ordering
class PlanarDiagram(_Value):
    """A loop-free planar diagram, stored as its partner array.

    ``pairing[i-1]`` is the partner of node i.  The partner array is the
    canonical in-memory form; the symmetric 0/1 connection matrix is a
    derived view (``connection_matrix``).  Instances are immutable.

    The public constructor validates: it stores the partners as a tuple
    of ints and rejects non-integers, non-involutions and crossing
    pairings.  ``_trusted``, the held route ``_Value`` builds for every
    value class, skips that check and is only for pairings the library
    made itself (kernel output, composition products, ``parse`` after
    its own check).
    """

    __slots__ = _fields = ("dimension", "pairing")
    dimension: int
    pairing: tuple[int, ...]

    def __init__(self, dimension: int, pairing: Sequence[int]) -> None:
        values = _integers(
            chain((dimension,), pairing),
            "dimension and partners must be integers, given as a sequence",
        )
        dimension, pairing = _dimension(values[0]), values[1:]
        _check_involution(pairing, dimension)
        if not _noncrossing(pairing, dimension):
            raise ValueError("pairing has crossing strands")
        self._set(dimension, pairing)

    def partner(self, node: int) -> int:
        return self.pairing[_node(node, self.dimension) - 1]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All pairs (a, b) with a < b, sorted by the smaller endpoint."""
        return tuple(
            (i, self.pairing[i - 1])
            for i in range(1, 2 * self.dimension + 1)
            if i < self.pairing[i - 1]
        )

    def bottom_pairs(self) -> frozenset[tuple[int, int]]:
        """Bottom-to-bottom pairs.  The library groups no diagrams by them;
        ``tests/oracles.py:bottom_pattern_partition``, the first ideal
        grouping, does."""
        n = self.dimension
        return frozenset((a, b) for a, b in self.pairs() if b <= n)

    def top_pairs(self) -> frozenset[tuple[int, int]]:
        n = self.dimension
        return frozenset((a, b) for a, b in self.pairs() if a > n)

    def through_count(self) -> int:
        n = self.dimension
        return sum(1 for a, b in self.pairs() if a <= n < b)

    def is_identity(self) -> bool:
        return self.pairing == identity_pairing(self.dimension)

    def connection_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The symmetric 0/1 matrix P with P[i][j] = 1 iff i and j are
        paired (0-based rows and columns for nodes 1..2N)."""
        size = 2 * self.dimension
        rows = []
        for i in range(1, size + 1):
            row = [0] * size
            row[self.pairing[i - 1] - 1] = 1
            rows.append(tuple(row))
        return tuple(rows)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, PlanarDiagram):
            return NotImplemented
        return canonical_compare(self, other) < 0

    def __str__(self) -> str:
        return serialize(ScaledDiagram(self, 0))


def canonical_compare(a: PlanarDiagram, b: PlanarDiagram) -> int:
    """Total order on diagrams of one dimension: lexicographic on the
    partner array read from node 1 to 2N.  Returns -1, 0 or 1."""
    for diagram in (a, b):
        _require(diagram, PlanarDiagram, "canonical_compare needs PlanarDiagrams")
    if a.dimension != b.dimension:
        raise ValueError(
            f"cannot compare diagrams of dimensions {a.dimension} and {b.dimension}"
        )
    if a.pairing == b.pairing:
        return 0
    return -1 if a.pairing < b.pairing else 1


class ScaledDiagram(_Value):
    """d^loop_exponent times a loop-free diagram."""

    __slots__ = _fields = ("diagram", "loop_exponent")
    diagram: PlanarDiagram
    loop_exponent: int

    def __init__(self, diagram: PlanarDiagram, loop_exponent: int = 0) -> None:
        _require(diagram, PlanarDiagram, "a scaled diagram needs a PlanarDiagram")
        loop_exponent = _integer(loop_exponent, "loop exponent")
        if loop_exponent < 0:
            raise ValueError("loop exponent must be nonnegative")
        self._set(diagram, loop_exponent)

    @property
    def dimension(self) -> int:
        return self.diagram.dimension

    def with_extra_loops(self, count: int) -> ScaledDiagram:
        count = _integer(count, "loop count")
        return ScaledDiagram(self.diagram, self.loop_exponent + count)

    def __str__(self) -> str:
        return serialize(self)


class ConnectabilityMatrix(_Value):
    """Symmetric 0/1 matrix saying which node pairs can still be joined.
    The constructor checks the shape: 2N rows of 2N integers."""

    __slots__ = _fields = ("dimension", "entries")
    dimension: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, dimension: int, entries: tuple[tuple[int, ...], ...]) -> None:
        dimension = _dimension(dimension)
        size = 2 * dimension
        message = f"entries must be {size} rows of {size} integers"
        entries = tuple(
            _integers(row, message) for row in _require(entries, Iterable, message)
        )
        if len(entries) != size or any(len(row) != size for row in entries):
            raise ValueError(message)
        self._set(dimension, entries)

    def value(self, i: int, j: int) -> int:
        n = self.dimension
        return self.entries[_node(i, n) - 1][_node(j, n) - 1]

    def partners(self, i: int) -> tuple[int, ...]:
        """Nodes j with value(i, j) == 1, ascending."""
        row = self.entries[_node(i, self.dimension) - 1]
        return tuple(j for j in range(1, 2 * self.dimension + 1) if row[j - 1])

    def zeroed(self, i: int, columns: Sequence[int]) -> ConnectabilityMatrix:
        """Copy with the given (i, j) and (j, i) entries set to 0."""
        n = self.dimension
        i = _node(i, n)
        grid = [list(row) for row in self.entries]
        for j in _require(columns, Iterable, "columns must be a sequence of nodes"):
            j = _node(j, n)
            grid[i - 1][j - 1] = 0
            grid[j - 1][i - 1] = 0
        return ConnectabilityMatrix(self.dimension, tuple(tuple(r) for r in grid))


def connectability(dimension: int) -> ConnectabilityMatrix:
    """Which node pairs of an edgeless diagram can ever be joined.

    Same-row pairs need an odd index gap.  Cross-row pairs need the gap
    parity that leaves an even number of nodes inside the would-be strand,
    which depends on whether the dimension is even or odd.
    """
    n = _dimension(dimension)
    size = 2 * n
    rows = []
    for i in range(1, size + 1):
        row = []
        for j in range(1, size + 1):
            same_row = (i <= n) == (j <= n)
            if same_row:
                bit = abs(i - j) % 2
            elif abs(i - j) % 2 == 0:
                bit = (n + 1) % 2
            else:
                bit = n % 2
            row.append(bit)
        rows.append(tuple(row))
    return ConnectabilityMatrix(n, tuple(rows))


def restrict_connectability(
    partial: Mapping[int, int], i: int, gamma: ConnectabilityMatrix
) -> ConnectabilityMatrix:
    """Drop connectability ruled out for node i by already placed edges.

    ``partial`` maps each matched node to its partner and must describe a
    bottom-frontier state: nodes 1..i-1 all matched, i <= N unmatched.
    Three removals apply:

    * matched nodes are out;
    * if a matched node reaches a top node, every top node up to the
      highest such landing point is walled off;
    * if a bottom-to-bottom edge encloses i, node i is confined strictly
      inside the tightest such edge.
    """
    message = "restrict_connectability needs a map of nodes to partners"
    partial = dict(_pairs(_require(partial, Mapping, message).items(), int, int, message))
    gamma = _require(
        gamma, ConnectabilityMatrix, "restrict_connectability needs a ConnectabilityMatrix"
    )
    n = gamma.dimension
    i = _node(i, n)
    if i in partial:
        raise ValueError(f"node {i} is already matched")
    if i > n:
        raise ValueError("restriction rules are defined for bottom-row frontiers")
    if any(k < i and k not in partial for k in range(1, i)):
        raise ValueError(f"all nodes below {i} must be matched")

    blocked = set(partial)
    partners = [partial[k] for k in partial if k < i]
    # the top nodes up to the highest landing, and every node from the
    # tightest enclosing bottom edge on; an empty range when there is none
    blocked.update(range(n + 1, max((p for p in partners if p > n), default=n) + 1))
    blocked.update(range(min((p for p in partners if i <= p <= n), default=2 * n + 1), 2 * n + 1))
    return gamma.zeroed(i, sorted(blocked))


def serialize(scaled: ScaledDiagram) -> str:
    """One-line text form; parse() inverts it exactly."""
    diagram = _require(scaled, ScaledDiagram, "serialize needs a ScaledDiagram").diagram
    return diagram_line(diagram.pairing, scaled.loop_exponent)


def parse(line: str) -> ScaledDiagram:
    """Parse a diagram line, rejecting malformed text, non-involutions and
    crossing pairings (``_backend.read_line``)."""
    pairing, loop_exponent = read_line(line)
    return ScaledDiagram(PlanarDiagram._trusted(len(pairing) // 2, pairing), loop_exponent)
