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
position of node i on that circle is i for bottom nodes and 3N+1-i for
top nodes.  Two chords cross exactly when their endpoint positions
interleave.

A ``ScaledDiagram`` is d^m times a loop-free diagram: compositions factor
every closed loop out as one power of the loop parameter d.

Diagram line format (one diagram per line, used by the CLI and the
enumeration cache):

    TL <N> m=<m> (<a1>,<b1>)(<a2>,<b2>)...

with pairs sorted by smaller endpoint and the smaller endpoint written
first, e.g. ``TL 4 m=2 (1,2)(3,8)(4,7)(5,6)``.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Sequence


def node_position(node: int, dimension: int) -> int:
    """Circular position of a node: bottom row left to right, then top row
    right to left."""
    return node if node <= dimension else 3 * dimension + 1 - node


def _check_involution(pairing: Sequence[int], dimension: int) -> None:
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
    drawable without crossings.

    One pass around the circle with a stack: a chord closes when its other
    end is on top of the stack, and the pairing is noncrossing exactly when
    every chord closes.  Non-involutions are rejected with ValueError.
    """
    _check_involution(pairing, dimension)
    size = 2 * dimension
    node_at = [0] * (size + 1)
    for i in range(1, size + 1):
        node_at[node_position(i, dimension)] = i
    stack: list[int] = []
    for p in range(1, size + 1):
        node = node_at[p]
        if stack and stack[-1] == pairing[node - 1]:
            stack.pop()
        else:
            stack.append(node)
    return not stack


@dataclass(frozen=True, order=False)
class PlanarDiagram:
    """A loop-free planar diagram, stored as its partner array.

    ``pairing[i-1]`` is the partner of node i.  The partner array is the
    canonical in-memory form; the symmetric 0/1 connection matrix is a
    derived view (``connection_matrix``).  Instances are immutable.

    The public constructor validates: it stores the partners as a tuple
    of ints and rejects non-integers, non-involutions and crossing
    pairings.  ``_trusted`` skips that check and is only for
    pairings the library made itself (kernel output, composition
    products, ``parse`` after its own check).
    """

    dimension: int
    pairing: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dimension = operator.index(self.dimension)
            pairing = tuple(operator.index(j) for j in self.pairing)
        except TypeError:
            raise ValueError(
                "dimension and partners must be integers, given as a sequence"
            ) from None
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if not is_noncrossing(pairing, dimension):
            raise ValueError("pairing has crossing strands")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "pairing", pairing)

    @classmethod
    def _trusted(cls, dimension: int, pairing: tuple[int, ...]) -> PlanarDiagram:
        """Build without validation; ``pairing`` must be a noncrossing
        perfect matching tuple that the library computed itself."""
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "dimension", dimension)
        object.__setattr__(diagram, "pairing", pairing)
        return diagram

    def partner(self, node: int) -> int:
        return self.pairing[node - 1]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All pairs (a, b) with a < b, sorted by the smaller endpoint."""
        return tuple(
            (i, self.pairing[i - 1])
            for i in range(1, 2 * self.dimension + 1)
            if i < self.pairing[i - 1]
        )

    def bottom_pairs(self) -> frozenset[tuple[int, int]]:
        """Bottom-to-bottom pairs; the key used for ideal grouping."""
        n = self.dimension
        return frozenset((a, b) for a, b in self.pairs() if b <= n)

    def top_pairs(self) -> frozenset[tuple[int, int]]:
        n = self.dimension
        return frozenset((a, b) for a, b in self.pairs() if a > n)

    def through_count(self) -> int:
        n = self.dimension
        return sum(1 for a, b in self.pairs() if a <= n < b)

    def is_identity(self) -> bool:
        n = self.dimension
        return all(self.pairing[i - 1] == i + n for i in range(1, n + 1))

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

    def __lt__(self, other: PlanarDiagram) -> bool:
        return canonical_compare(self, other) < 0

    def __le__(self, other: PlanarDiagram) -> bool:
        return canonical_compare(self, other) <= 0

    def __gt__(self, other: PlanarDiagram) -> bool:
        return canonical_compare(self, other) > 0

    def __ge__(self, other: PlanarDiagram) -> bool:
        return canonical_compare(self, other) >= 0

    def __str__(self) -> str:
        return serialize(ScaledDiagram(self, 0))


def canonical_compare(a: PlanarDiagram, b: PlanarDiagram) -> int:
    """Total order on diagrams of one dimension: lexicographic on the
    partner array read from node 1 to 2N.  Returns -1, 0 or 1."""
    if a.dimension != b.dimension:
        raise ValueError(
            f"cannot compare diagrams of dimensions {a.dimension} and {b.dimension}"
        )
    if a.pairing == b.pairing:
        return 0
    return -1 if a.pairing < b.pairing else 1


@dataclass(frozen=True)
class ScaledDiagram:
    """d^loop_exponent times a loop-free diagram."""

    diagram: PlanarDiagram
    loop_exponent: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.diagram, PlanarDiagram):
            raise ValueError("a scaled diagram needs a PlanarDiagram")
        try:
            loop_exponent = operator.index(self.loop_exponent)
        except TypeError:
            raise ValueError("loop exponent must be an integer") from None
        if loop_exponent < 0:
            raise ValueError("loop exponent must be nonnegative")
        object.__setattr__(self, "loop_exponent", loop_exponent)

    @property
    def dimension(self) -> int:
        return self.diagram.dimension

    def with_extra_loops(self, count: int) -> ScaledDiagram:
        return ScaledDiagram(self.diagram, self.loop_exponent + count)

    def __str__(self) -> str:
        return serialize(self)


@dataclass(frozen=True)
class ConnectabilityMatrix:
    """Symmetric 0/1 matrix saying which node pairs can still be joined."""

    dimension: int
    entries: tuple[tuple[int, ...], ...]

    def value(self, i: int, j: int) -> int:
        return self.entries[i - 1][j - 1]

    def partners(self, i: int) -> tuple[int, ...]:
        """Nodes j with value(i, j) == 1, ascending."""
        row = self.entries[i - 1]
        return tuple(j for j in range(1, 2 * self.dimension + 1) if row[j - 1])

    def zeroed(self, i: int, columns: Sequence[int]) -> ConnectabilityMatrix:
        """Copy with the given (i, j) and (j, i) entries set to 0."""
        grid = [list(row) for row in self.entries]
        for j in columns:
            grid[i - 1][j - 1] = 0
            grid[j - 1][i - 1] = 0
        return ConnectabilityMatrix(self.dimension, tuple(tuple(r) for r in grid))


def connectability(dimension: int) -> ConnectabilityMatrix:
    """Which node pairs of an edgeless diagram can ever be joined.

    Same-row pairs need an odd index gap.  Cross-row pairs need the gap
    parity that leaves an even number of nodes inside the would-be strand,
    which depends on whether the dimension is even or odd.
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    n = dimension
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
    n = gamma.dimension
    if i in partial:
        raise ValueError(f"node {i} is already matched")
    if i > n:
        raise ValueError("restriction rules are defined for bottom-row frontiers")
    if any(k < i and k not in partial for k in range(1, i)):
        raise ValueError(f"all nodes below {i} must be matched")

    blocked: set[int] = set()
    blocked.update(partial.keys())
    partners = [partial[k] for k in partial if k < i]
    top_landings = [p for p in partners if p > n]
    if top_landings:
        y_max = max(top_landings)
        blocked.update(range(n + 1, y_max + 1))
    enclosing = [p for p in partners if i <= p <= n]
    if enclosing:
        y_min = min(enclosing)
        blocked.update(range(y_min, 2 * n + 1))
    return gamma.zeroed(i, sorted(blocked))


_LINE_RE = re.compile(r"^TL\s+(\d+)\s+m=(\d+)\s*((?:\(\d+,\d+\))+)$")
_PAIR_RE = re.compile(r"\((\d+),(\d+)\)")


class _PairTexts(dict):
    """Partner b -> the text ``(a,b)`` of node a's pair when a < b, and
    "" when a is the larger end; filled as partners are first seen."""

    __slots__ = ("node",)

    def __init__(self, node: int) -> None:
        self.node = node

    def __missing__(self, partner: int) -> str:
        a = self.node
        text = self[partner] = f"({a},{partner})" if a < partner else ""
        return text


@functools.cache
def _pair_texts(dimension: int) -> tuple[_PairTexts, ...]:
    """The pair texts of every node of one dimension, so that a partner
    tuple ``p`` reads as ``"".join(map(getitem, table, p))``."""
    return tuple(_PairTexts(a) for a in range(1, 2 * dimension + 1))


def serialize(scaled: ScaledDiagram) -> str:
    """One-line text form; parse() inverts it exactly."""
    diagram = scaled.diagram
    dimension = diagram.dimension
    pairs = "".join(map(operator.getitem, _pair_texts(dimension), diagram.pairing))
    return f"TL {dimension} m={scaled.loop_exponent} {pairs}"


def serialize_pairings(dimension: int, pairings: Sequence[tuple[int, ...]]) -> str:
    """The lines ``serialize`` gives for the loop-free diagrams with these
    partner tuples, each ending in a newline, built without a diagram
    object per line."""
    table = _pair_texts(dimension)
    prefix = f"TL {dimension} m=0 "
    join, getitem = "".join, operator.getitem
    return "".join([prefix + join(map(getitem, table, p)) + "\n" for p in pairings])


def parse(line: str) -> ScaledDiagram:
    """Parse a diagram line, rejecting malformed text, non-involutions and
    crossing pairings."""
    match = _LINE_RE.match(line.strip())
    if not match:
        raise ValueError(f"malformed diagram line: {line!r}")
    dimension = int(match.group(1))
    loop_exponent = int(match.group(2))
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    # The pair count is bounded by the text and the declared dimension is
    # not, so compare them before allocating by the dimension.
    pairs = _PAIR_RE.findall(match.group(3))
    if len(pairs) != dimension:
        raise ValueError(
            f"dimension {dimension} needs {dimension} pairs, got {len(pairs)}"
        )
    pairing = [0] * (2 * dimension)
    for a_text, b_text in pairs:
        a, b = int(a_text), int(b_text)
        if not (1 <= a <= 2 * dimension and 1 <= b <= 2 * dimension):
            raise ValueError(f"pair ({a},{b}) out of range for dimension {dimension}")
        if a == b:
            raise ValueError(f"node {a} is paired with itself")
        if pairing[a - 1] or pairing[b - 1]:
            raise ValueError(f"node {a} or {b} listed twice")
        pairing[a - 1] = b
        pairing[b - 1] = a
    # N distinct pairs on 2N nodes cover every node, so the pairing is an
    # involution here and only planarity is left to check.
    if not is_noncrossing(pairing, dimension):
        raise ValueError("pairing has crossing strands")
    return ScaledDiagram(PlanarDiagram._trusted(dimension, tuple(pairing)), loop_exponent)
