"""The kernels on plain partner tuples: the basis search, pairing
composition, the generator rule and the maps ``generator_maps`` builds
from it, the link-state grid of a basis, the composition table, and the
diagram line format's walk, writer and reader.

Everything here works on plain partner tuples (1-based, ``pairing[i-1]``
is the partner of node i).  ``compose_pairings`` trusts its input:
callers pass the pairings of validated ``PlanarDiagram`` values or of
``read_line``, which checks what it reads.  The callers trust the
output in turn: basis pairings and composition products become
diagrams through ``PlanarDiagram._trusted``, without a second
involution and planarity check, so a kernel change must keep every
emitted tuple a noncrossing perfect matching (the test suite
re-validates them).

The basis search is a depth-first walk that joins the lowest unmatched
node, the frontier, to each of its legal partners in ascending order.
``_partners`` holds that rule: the frontier pairs with every second node
up to the first matched node above it, and a bottom frontier with no
matched bottom node above it also pairs with every second top node above
the highest matched one.  Each placement leaves an even number of free
nodes on both sides of the new strand, so every branch completes and the
leaves are exactly the noncrossing perfect matchings, in ascending
lexicographic order of the partner array.

The rule reads nothing but which nodes are matched, so the search state
is one int, ``matched``, with bit i set for each matched node i and bit 0
always set.  Two walks recurse on it:

* ``enumerate_pairings`` emits each leaf as a partner tuple; it is the
  only walk that keeps a partner array;
* ``pairing_lines`` emits each leaf as one line of text.  The search
  places pair (f, j) with f < j and f ascending, which is the pair order
  of the diagram line format, so the text of a leaf is the pair texts of
  its placements in order.  The walk threads that text down the first
  N // 2 levels; the text of each way to finish from a deeper node is
  built once per search state and shared.  Every line is two shared
  pieces, a head and a finish, and the whole text is one join of them,
  so it is the only string of its size the walk makes.

Dimension 12 has 208,012 leaves but only 4,096 states.  The number of
leaves is Catalan's, so ``count_pairings`` reads it off ``catalan``
after the walks' depth check, and walks nothing.

Composition walks the strands of the stacked picture directly; the
union-find and matrix-power readings of the same stack live in the test
suite as independent oracles.

A generator acts by its local rule, the link-state action of
arXiv:1204.4505 (``_apply_generator``).  ``link_states`` splits a basis
into the top or the bottom link states of its positions, on request.  A
product X.D moves only D's top state, so a left action over a whole
basis is computed once per top state and read off for every other
position by relabelling its bottom state: ``link_grid`` holds that
grid, its representatives and its relabelling, and locates any basis
pairing by its two states, so it is the one position index of such a
route.  A basis is the list of its partner tuples, in order, and the
grid serves the two left actions over one:

* ``generator_maps(pairings, indices)``, the one builder of generator
  maps over a whole basis, applies each U_k once per top state and
  returns the maps of positions with loop exponents.  Every route that
  maps a whole basis passes a list in the order it reads: the walk's,
  or the pairings of a ``DiagramBasis``, put in the representation
  order, or the walk as it comes for ``compose --table``.  A route
  builds each map it reads once, and only those, in one call, and
  nothing keeps them.
* The bracket matrix image (``braids._image_columns``) composes the
  element image onto each top state's representative and builds no map.

The ideal blocks need no map either: ``_relations.ideal_blocks`` reads
them off the bottom link states.  The composition table is built from
the maps by associativity, on positions alone: every basis pairing E
other than the identity is U_k stacked on a parent E' one step closer to
the identity, with no loop closed (``spanning_tree``).  Then
D.E = (D.E').U_k, so if D.E' = d^m.D_r, the cell D.E is
d^(m + e_k[r]).D_(t_k[r]), one step of the map of U_k.
``table_rows`` codes the cell d^m.D_r as the int m * size + r, so that
step is one lookup in a table per generator.

The module imports nothing from the package, so it also holds what
``tlkit enumerate``, ``tlkit compose`` and ``tlkit draw`` need besides
the walks: the size rule (``_integer``, ``_dimension``,
``_checked_dimension`` and ``DEFAULT_MAX_DIMENSION``), the range rule
(``_in_range``), the integer rule of tlkit's text (``_is_integer_text``,
on the ASCII ``_SPACES``), ``catalan``, and the diagram line format:
``_pair_texts``, ``_line_prefix`` and ``diagram_line``, the one writer
of a whole line, which ``diagrams.serialize`` and the ``bracket``
element route both call, and ``read_line``, the one reader, which
``diagrams.parse`` wraps and ``read_diagram_arg`` calls on a
command-line argument.  Every route of those three commands loads this
module and ``tlkit.cli`` alone, besides its runner's module,
``tlkit._table`` or ``tlkit.drawing``; ``verify --relations tl`` adds
``tlkit._relations``.  Since every route loads it, it also holds
``_first_difference``, the one scan by which every relation witness
finds where the two sides of a failed relation differ.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

if TYPE_CHECKING:
    import re

#: Hard ceiling on the dimension accepted by enumerate_diagrams and the CLI
#: unless the caller raises it explicitly (C_12 = 208012 diagrams is still
#: cheap, but growth beyond that is exponential).
DEFAULT_MAX_DIMENSION = 12

#: A generator's action on a basis: U_k . D_i = d^exponents[i] . D_targets[i]
#: for (targets, exponents).
Map = tuple[tuple[int, ...], tuple[int, ...]]

#: A basis as a grid of link states, (top, bottom, first, relabelled,
#: locate): see ``link_grid``.
Grid = tuple[list[int], list[int], list[tuple[int, ...]], list[Callable[[int], dict[int, int]]],
             Callable[[tuple[int, ...]], tuple[int, int]]]

K = TypeVar("K")


def _integer(value: int, name: str) -> int:
    """``value`` as an int, with ValueError (not TypeError) for a
    non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


#: The spaces of tlkit's text formats, those that ``\s`` matches under
#: ``re.ASCII``: braid words, diagram lines and diagram files strip these
#: alone, so no other Unicode space reads as one.
_SPACES = " \t\n\r\f\v"


def _is_integer_text(text: str) -> bool:
    """Whether ``text`` reads as ASCII ``[+-]?[0-9]+`` between spaces: the
    one integer rule of tlkit's own text: a braid word's letters,
    ``repr --gen``, the integer options and TLKIT_MAX_DIM.  ``int`` alone
    also reads underscores, the digits of every script and every Unicode
    space."""
    digits = text.strip(_SPACES)
    unsigned = digits[1:] if digits[:1] in ("+", "-") else digits
    return unsigned.isascii() and unsigned.isdigit()


def _dimension(value: int, name: str = "dimension", least: int = 1) -> int:
    """``value`` as an int of at least ``least``: the size rule for every
    dimension and strand count (``_checked_dimension`` adds the ceiling)."""
    value = _integer(value, name)
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


def _checked_dimension(
    dimension: int,
    max_dimension: int | None,
    name: str = "dimension",
    least: int = 1,
    override: str | None = "max_dimension",
) -> int:
    """``_dimension`` under the ceiling ``max_dimension``, by default
    DEFAULT_MAX_DIMENSION; ``override`` names where a caller raises it,
    None where it cannot."""
    dimension = _dimension(dimension, name, least)
    ceiling = _integer(
        DEFAULT_MAX_DIMENSION if max_dimension is None else max_dimension, "max_dimension"
    )
    if dimension > ceiling:
        hint = f" (override with {override})" if override else ""
        raise ValueError(f"{name} {dimension} exceeds the resource ceiling {ceiling}{hint}")
    return dimension


def _in_range(value: int, name: str, low: int, high: int) -> int:
    """``value`` as an int in ``low``..``high``: the one range rule for
    node numbers, matrix rows and columns, and generator indices."""
    value = _integer(value, name)
    if not low <= value <= high:
        raise ValueError(f"{name} {value} out of range {low}..{high}")
    return value


def _walk_dimension(dimension: int, name: str = "dimension") -> int:
    """``_dimension`` for the two walks, which recurse once per placed
    pair, and for ``count_pairings``, which answers for them.  A level of
    a memoized walk takes two of the interpreter's nested calls (the
    cache wrapper and the function), and half the limit is left to the
    callers, so a dimension above a quarter of the recursion limit is
    refused before the walk starts.  No such walk could finish anyway:
    dimension N has about 2^N search states."""
    dimension = _dimension(dimension, name)
    deepest = sys.getrecursionlimit() // 4
    if dimension > deepest:
        raise ValueError(f"{name} {dimension} exceeds the search depth limit {deepest}")
    return dimension


def catalan(n: int) -> int:
    """C_n = binom(2n, n) / (n + 1)."""
    n = _integer(n, "n")
    return math.comb(2 * n, n) // (n + 1)


@functools.cache
def _pair_texts(dimension: int) -> tuple[list[str], ...]:
    """The pair texts of every node of one dimension: ``table[a-1][b]`` is
    ``(a,b)`` when a < b and "" when a is the larger end, so that a
    partner tuple ``p`` reads as ``"".join(map(getitem, table, p))``."""
    size = 2 * dimension
    return tuple(
        [f"({a},{b})" if a < b else "" for b in range(size + 1)]
        for a in range(1, size + 1)
    )


def _line_prefix(dimension: int, loop_exponent: int) -> str:
    """The text of a diagram line before its pairs."""
    return f"TL {dimension} m={loop_exponent} "


def diagram_line(pairing: Sequence[int], loop_exponent: int) -> str:
    """The diagram line of d^loop_exponent times the diagram ``pairing``."""
    dimension = len(pairing) // 2
    pairs = "".join(map(operator.getitem, _pair_texts(dimension), pairing))
    return _line_prefix(dimension, loop_exponent) + pairs


@functools.cache
def _line_patterns() -> tuple[re.Pattern[str], re.Pattern[str]]:
    """The patterns of a whole diagram line and of one pair, compiled by
    the first ``read_line`` of a process, not by every import.  Both match
    ASCII digits and spaces only."""
    import re

    return (
        re.compile(r"^TL\s+(\d+)\s+m=(\d+)\s*((?:\(\d+,\d+\))+)$", re.ASCII),
        re.compile(r"\((\d+),(\d+)\)", re.ASCII),
    )


def read_line(line: str) -> tuple[tuple[int, ...], int]:
    """The partner tuple and loop exponent of a diagram line, the inverse
    of ``diagram_line``; ValueError for malformed text, a non-involution
    or a crossing pairing."""
    if not isinstance(line, str):
        raise ValueError(f"diagram line must be text, got {line!r}")
    line_re, pair_re = _line_patterns()
    match = line_re.match(line.strip(_SPACES))
    if not match:
        raise ValueError(f"malformed diagram line: {line!r}")
    dimension = _dimension(int(match.group(1)))
    loop_exponent = int(match.group(2))
    # The pair count is bounded by the text and the declared dimension is
    # not, so compare them before allocating by the dimension.
    pairs = pair_re.findall(match.group(3))
    if len(pairs) != dimension:
        raise ValueError(f"dimension {dimension} needs {dimension} pairs, got {len(pairs)}")
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
    if not _noncrossing(pairing, dimension):
        raise ValueError("pairing has crossing strands")
    return tuple(pairing), loop_exponent


def read_diagram_arg(value: str, dimension: int) -> tuple[tuple[int, ...], int]:
    """``read_line`` of a diagram argument of ``tlkit compose`` or
    ``tlkit draw`` (FILE_OR_INLINE), of the given dimension: the line of
    a one-line diagram file if ``value`` names one, else ``value``
    itself.  Text that cannot name a file (too long, say) is read
    inline."""
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as fh:
            value = fh.read().strip(_SPACES)
    pairing, loop_exponent = read_line(value)
    if len(pairing) != 2 * dimension:
        raise ValueError(f"diagram has dimension {len(pairing) // 2}, expected {dimension}")
    return pairing, loop_exponent


def _noncrossing(pairing: Sequence[int], dimension: int) -> bool:
    """Whether a fixed-point-free involution on the 2N boundary nodes is
    drawable without crossings.

    Walking the box boundary visits the bottom row left to right, then
    the top row right to left, so planarity is the noncrossing condition
    for chords of a circle.  One pass with a stack: a chord closes when
    its other end is on top of the stack, and the pairing is noncrossing
    exactly when every chord closes.
    """
    stack: list[int] = []
    for node in (*range(1, dimension + 1), *range(2 * dimension, dimension, -1)):
        if stack and stack[-1] == pairing[node - 1]:
            stack.pop()
        else:
            stack.append(node)
    return not stack


def enumerate_pairings(dimension: int) -> list[tuple[int, ...]]:
    """All noncrossing perfect matchings on 2N nodes as partner tuples,
    in ascending lexicographic order."""
    n = _walk_dimension(dimension)
    branches = functools.cache(lambda matched: _partners(matched, n))
    # Each node is written when the path reaches it, so at a leaf every
    # entry holds the current path's partner and no write is undone.
    partner = [0] * (2 * n + 1)
    out: list[tuple[int, ...]] = []

    def rec(matched: int) -> None:
        f, partners = branches(matched)
        if partners is None:
            out.append(tuple(partner[1:]))
            return
        for j in partners:
            partner[f] = j
            partner[j] = f
            rec(matched | 1 << f | 1 << j)

    rec(1)
    # ``rec`` refers to itself, so it and what it holds, ``out`` among
    # them, would live until a garbage collection: free the memo and break
    # the cycle now.
    branches.cache_clear()
    del rec
    return out


def pairing_lines(dimension: int) -> str:
    """The leaves of the search as diagram lines of loop exponent 0, one
    line per leaf in the same order.

    A line is ``_line_prefix(N, 0)``, then the text ``(f,j)`` of each
    pair (f, j) in the order the search places it, then a newline.  The
    depth is checked before ``_pair_texts(N)``, which grows with the
    square of N, is built.  The walk carries the text of the pairs placed
    so far down the first N // 2 levels.  Below that, the text of every
    way to finish is memoized by the search state.  A line below a node
    of level N // 2 is the node's text and one finish, both shared: the
    walk lists those two pieces per line and joins the list once.  So no
    string per line, no partner tuple and no second copy of the text is
    built; at its peak the walk holds the text, the list (two pointers
    per line) and the finishes.
    """
    n = _walk_dimension(dimension)
    texts = _pair_texts(n)
    chunks: list[str] = []

    @functools.cache
    def finishes(matched: int) -> list[str]:
        f, partners = _partners(matched, n)
        if partners is None:
            return ["\n"]
        row = texts[f - 1]
        out: list[str] = []
        for j in partners:
            pair = row[j]
            out += [pair + s for s in finishes(matched | 1 << f | 1 << j)]
        return out

    def walk(matched: int, text: str, placed: int) -> None:
        if placed == n // 2:
            # ``text`` leads every line below this node: the node's lines
            # are the pieces text, tail, text, tail, ..., all shared.
            tails = finishes(matched)
            block = [text] * (2 * len(tails))
            block[1::2] = tails
            chunks.extend(block)
            return
        f, partners = _partners(matched, n)
        row = texts[f - 1]
        for j in partners:
            walk(matched | 1 << f | 1 << j, text + row[j], placed + 1)

    walk(1, _line_prefix(n, 0), 0)
    # The two walks refer to themselves, so they and what they hold live
    # until a garbage collection: free the memo and the pieces now.
    finishes.cache_clear()
    text = "".join(chunks)
    chunks.clear()
    return text


def count_pairings(dimension: int) -> int:
    """Number of leaves of the same search, Catalan(N), under the walks'
    depth check, so a dimension no walk could reach is refused as by the
    walks; the check also bounds the digits of the count."""
    return catalan(_walk_dimension(dimension))


def _partners(matched: int, n: int) -> tuple[int, Sequence[int] | None]:
    """The branching rule: the frontier f of the search state ``matched``
    and its legal partners, ascending (None once every node is matched).

    Bit i of ``matched`` is set when node i is matched; bit 0 is always
    set, so f is the lowest clear bit.  f pairs with every second node up
    to the first matched node above it, its wall.  A bottom f whose wall
    is not on the bottom row may also land on every second top node above
    the highest matched one, with the parity that leaves an even number of
    free nodes on each side of the strand.
    """
    size = 2 * n
    f = (matched ^ (matched + 1)).bit_length() - 1
    if f > size:
        return f, None
    above = matched >> f
    wall = f + (above & -above).bit_length() - 1 if above else size + 1
    if f > n or wall <= n:
        return f, range(f + 1, wall, 2)
    start = max(matched.bit_length(), n + 1)
    start += (f + start + n) % 2
    return f, (*range(f + 1, n + 1, 2), *range(start, size + 1, 2))


def compose_pairings(bottom: tuple[int, ...], top: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Stack ``top`` onto ``bottom``, two partner tuples of one dimension
    N (read off ``bottom``, which has 2N entries), and resolve the
    product.

    The bottom factor's top row (its nodes N+1..2N) is glued to the top
    factor's bottom row (its nodes 1..N); middle node m is both.  From
    each boundary end not yet paired, the walk follows partners,
    switching factor at every middle node, until it reaches the boundary
    again.  Middle nodes no walk visited lie on closed loops.  Returns
    the boundary partner tuple of the loop-free product and the number of
    closed loops, i.e. the exponent of the loop parameter.
    """
    n = len(bottom) // 2
    pairing = [0] * (2 * n)
    visited = [False] * (n + 1)
    for start in range(1, 2 * n + 1):
        if pairing[start - 1]:
            continue
        in_bottom = start <= n
        end = bottom[start - 1] if in_bottom else top[start - 1]
        # A partner on the glued row (above N in the bottom factor, at
        # most N in the top factor) continues in the other factor.
        while (end > n) == in_bottom:
            if in_bottom:
                end -= n
                visited[end] = True
                end = top[end - 1]
            else:
                visited[end] = True
                end = bottom[end + n - 1]
            in_bottom = not in_bottom
        pairing[start - 1] = end
        pairing[end - 1] = start
    loops = 0
    for start in range(1, n + 1):
        if visited[start]:
            continue
        loops += 1
        m = start
        while not visited[m]:
            visited[m] = True
            m = top[m - 1]
            visited[m] = True
            m = bottom[m + n - 1] - n
    return tuple(pairing), loops


def identity_pairing(dimension: int) -> tuple[int, ...]:
    """N parallel strands: node i paired with i+N."""
    return (*range(dimension + 1, 2 * dimension + 1), *range(1, dimension + 1))


def _apply_generator(
    pairing: tuple[int, ...], k: int, dimension: int
) -> tuple[tuple[int, ...], int]:
    """U_k . D as (partner tuple, loops).  Stacking U_k on top of D
    changes only D's top nodes a = N+k and b = N+k+1: into d.D if D pairs
    them, otherwise into the pairing (a, b) and (D(a), D(b))."""
    a, b = dimension + k, dimension + k + 1
    p, q = pairing[a - 1], pairing[b - 1]
    if p == b:
        return pairing, 1
    out = list(pairing)
    out[a - 1], out[b - 1], out[p - 1], out[q - 1] = b, a, q, p
    return tuple(out), 0


def _row(n: int, top: bool) -> tuple[slice, bytes]:
    """The top or bottom row of a partner tuple of dimension ``n``: the
    slice of its nodes and the table that translates their partners into
    the row's link state, a partner on the other row into 0."""
    start = n if top else 0
    return slice(start, start + n), bytes(q - start if start < q <= start + n else 0 for q in range(256))


def link_states(pairings: Sequence[tuple[int, ...]], top: bool) -> tuple[dict[bytes, int], list[int]]:
    """The link states of one row of the basis ``pairings``, the top row
    or the bottom one: each distinct state with its id, numbered in order
    of first appearance, and the id of each position's state.

    A row's link state lists the partner of each of its N nodes, counted
    1..N along the row, where that partner is on the same row, and 0 for
    a defect, a node whose strand crosses to the other row.  A diagram is
    its top state and its bottom state.  A state is a ``bytes``: a basis
    that fits in memory has N < 128, so every partner fits in a byte.
    The ids are made on request, and nothing keeps them."""
    row, partner = _row(len(pairings[0]) // 2, top)
    ids: dict[bytes, int] = {}
    state = [ids.setdefault(bytes(p[row]).translate(partner), len(ids)) for p in pairings]
    return ids, state


def link_grid(pairings: Sequence[tuple[int, ...]]) -> Grid:
    """The basis ``pairings`` as a grid of link states, for a left action
    over the whole basis: (top, bottom, first, relabelled, locate).

    The pairings may come in any order, and every top state of them must
    meet every bottom state with as many defects: the whole basis, or
    the whole basis but the identity, the one position whose two states
    both have N defects.

    ``top[i]`` and ``bottom[i]`` are the state ids of position i
    (``link_states``), and ``locate(pairing)`` is the (top, bottom) id
    pair of any pairing of the basis, read off its rows the same way.
    Stacking X on a diagram (T, B) moves only T, and pairs B's r-th and
    s-th defects where it joins T's (arXiv:1204.4505).  So X is applied
    once per top state T, to ``first[T]``, the pairing of T over B_1, the
    first bottom state with as many defects.  If that gives d^m.(T', R),
    then X.(T, B) = d^m.(T', B'), where B' is B with its r-th and s-th
    defects paired wherever R pairs those of B_1, and
    ``relabelled[B](R)[T']`` is the position of (T', B'), memoized per
    (B, R).  Made on request, and nothing keeps it."""
    tops, top = link_states(pairings, top=True)
    bottoms, bottom = link_states(pairings, top=False)
    states = list(bottoms)
    at: list[dict[int, int]] = [{} for _ in states]  # at[B][T] is the position of (T, B)
    for i, (t, b) in enumerate(zip(top, bottom)):
        at[b][t] = i
    defects = [[a for a, q in enumerate(state) if not q] for state in states]
    ones = {len(own): b for b, own in reversed(list(enumerate(defects)))}  # defect count -> B_1
    first = [pairings[at[ones[state.count(0)]][t]] for state, t in tops.items()]
    n = len(pairings[0]) // 2
    (above, up), (below, down) = _row(n, True), _row(n, False)

    def locate(pairing: tuple[int, ...]) -> tuple[int, int]:
        return tops[bytes(pairing[above]).translate(up)], bottoms[bytes(pairing[below]).translate(down)]

    def relabel(b: int, r: int) -> dict[int, int]:
        # a defect of B_1 -> B's defect of like rank
        moved = dict(zip(defects[ones[len(defects[b])]], defects[b]))
        state, paired = bytearray(states[b]), states[r]
        for a, c in moved.items():
            if paired[a]:
                state[c] = moved[paired[a] - 1] + 1
        return at[bottoms[bytes(state)]]

    # memoized per B on the int R alone: a key tuple per (B, R) would be
    # left in the interpreter's free lists when the grid is dropped
    relabelled = [functools.cache(functools.partial(relabel, b)) for b in range(len(states))]
    return top, bottom, first, relabelled, locate


def generator_maps(pairings: Sequence[tuple[int, ...]], indices: Iterable[int]) -> list[Map]:
    """U_k on every pairing of the basis ``pairings``, in order, for each
    k in ``indices``: (targets, exponents) with
    U_k . P_i = d^exponents[i] . P_targets[i].  The pairings are those
    ``link_grid`` takes, in the order the caller reads: the whole basis,
    or the whole basis but the identity, which no U_k yields.  The grid
    of the basis is made once per call, U_k is applied once per top link
    state, to the pairing the grid picks for it, and every other
    position is read off that image by the grid's relabelling.  Built on
    each call and not kept: a caller that reads a map twice holds it."""
    if not pairings:  # the identity-free basis of dimension 1
        return [((), ()) for _ in indices]
    n = len(pairings[0]) // 2
    top, bottom, first, relabelled, locate = link_grid(pairings)
    out = []
    for k in indices:
        images = []  # for each top state T: U_k.first[T] as (its top, its bottom, loops)
        for pairing, m in (_apply_generator(p, k, n) for p in first):
            images.append((*locate(pairing), m))
        targets = tuple(relabelled[b](images[t][1])[images[t][0]] for t, b in zip(top, bottom))
        out.append((targets, tuple(images[t][2] for t in top)))
    return out


def spanning_tree(maps: Sequence[Map], root: int) -> list[tuple[int, int, int]]:
    """Steps (position, parent, k) with position = maps[k-1] targets[parent]
    and no loop closed, found breadth first from ``root``, the identity's
    position: every parent comes before its children, and every other
    position is reached exactly once."""
    # With no generator (dimension 1) the basis is the identity alone.
    size = len(maps[0][0]) if maps else 1
    numbered = list(enumerate(maps, start=1))
    seen = [False] * size
    seen[root] = True
    frontier = [root]
    steps = []
    while frontier:
        reached = []
        for parent in frontier:
            for k, (targets, exponents) in numbered:
                position = targets[parent]
                if not exponents[parent] and not seen[position]:
                    seen[position] = True
                    steps.append((position, parent, k))
                    reached.append(position)
        frontier = reached
    if len(steps) != size - 1:
        raise ValueError("the generators do not reach every basis diagram")
    return steps


def table_rows(maps: Sequence[Map], root: int) -> Iterator[list[int]]:
    """Row i of the composition table for every position i, in order, from
    the maps of U_1..U_{N-1} and the identity's position ``root``: cell j
    of the row is the code m * size + r of D_i . D_j = d^m . D_r.

    Stacking N-strand diagrams closes at most N // 2 loops, one per two
    middle nodes, so each U_k acts on the codes with m <= N // 2 through
    one table, ``step[m * size + r] = (m + e_k[r]) * size + t_k[r]``."""
    size = len(maps[0][0]) if maps else 1
    half = (len(maps) + 1) // 2
    steps = [
        [(m + e) * size + t for m in range(half + 1) for t, e in zip(*map_k)]
        for map_k in maps
    ]
    tree = [(position, parent, steps[k - 1]) for position, parent, k in spanning_tree(maps, root)]
    for i in range(size):
        codes = [0] * size
        codes[root] = i
        for position, parent, step in tree:
            codes[position] = step[codes[parent]]
        yield codes


def _first_difference(left: Mapping[K, object], right: Mapping[K, object]) -> K | None:
    """The least key where two sparse mappings differ, a key missing from
    one of them included, or None if they are equal."""
    return min((k for k in left.keys() | right.keys() if left.get(k) != right.get(k)), default=None)
