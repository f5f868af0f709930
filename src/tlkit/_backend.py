"""The two hot kernels: basis search and pairing composition.

Everything here works on plain partner tuples (1-based, ``pairing[i-1]``
is the partner of node i).  ``compose_pairings`` trusts its input:
callers pass the pairings of validated ``PlanarDiagram`` values.  The
callers trust the output in turn: basis pairings and composition
products become diagrams through ``PlanarDiagram._trusted``, without a
second involution and planarity check, so a kernel change must keep
every emitted tuple a noncrossing perfect matching (the test suite
re-validates them).

The enumerator performs a depth-first search extending the
smallest-index unmatched node, generating exactly the legal partners at
each step:

* bottom frontier f: unmatched bottom nodes at odd offsets until the
  first matched bottom node walls the region off; if no wall, also every
  second top node above the highest already-used top landing point;
* top frontier f: top nodes at odd offsets until the first matched one.

Each placement leaves an even number of free nodes on both sides of the
new strand, so every branch completes and the leaves are exactly the
noncrossing perfect matchings, emitted in ascending lexicographic order
of the partner array.  ``_candidates`` is that branching rule, and three
walks share it:

* ``enumerate_pairings`` emits each leaf as a partner tuple;
* ``pairing_lines`` emits each leaf as one line of text.  The search
  places pair (f, j) with f < j and f ascending, which is the pair order
  of the diagram line format, so the text of a leaf is the pair texts of
  its placements in order.  The walk threads that text down the first
  N // 2 levels; the text of each way to finish from a deeper node is
  built once per search state and shared;
* ``count_pairings`` counts the leaves below a node once per search
  state.

The branching reads only which nodes are matched and ``y_max``, the
highest top node a placed strand lands on; those two values are the
search state.  Dimension 12 has 208,012 leaves but only 4,434 states.

Composition walks the strands of the stacked picture directly; the
union-find and matrix-power readings of the same stack live in the test
suite as independent oracles.
"""

from __future__ import annotations

from typing import Sequence


def enumerate_pairings(dimension: int) -> list[tuple[int, ...]]:
    """All noncrossing perfect matchings on 2N nodes as partner tuples,
    in ascending lexicographic order."""
    n, size, partner = _start(dimension)
    out: list[tuple[int, ...]] = []

    def rec(f: int, y_max: int) -> None:
        while f <= size and partner[f]:
            f += 1
        if f > size:
            out.append(tuple(partner[1:]))
            return
        for j in _candidates(partner, n, f, y_max):
            partner[f] = j
            partner[j] = f
            rec(f + 1, j if j > n else y_max)
            partner[f] = partner[j] = 0

    rec(1, 0)
    return out


def pairing_lines(dimension: int, prefix: str, texts: Sequence[Sequence[str]]) -> str:
    """The leaves of the search as text, one line per leaf in the same order.

    A line is ``prefix``, then ``texts[f-1][j]`` for each pair (f, j) in
    the order the search places it, then a newline.  The walk carries the
    text of the pairs placed so far down the first N // 2 levels.  Below
    that, the text of every way to finish is memoized by the search state,
    as in ``count_pairings``, so a leaf costs one concatenation and no
    partner tuple is built.
    """
    n, size, partner = _start(dimension)
    half = n // 2
    memo: dict[tuple[int, int], list[str]] = {}
    lines: list[str] = []

    def finishes(f: int, y_max: int, matched: int) -> list[str]:
        while f <= size and partner[f]:
            f += 1
        if f > size:
            return ["\n"]
        key = (matched, y_max)
        out = memo.get(key)
        if out is None:
            out = []
            row = texts[f - 1]
            for j in _candidates(partner, n, f, y_max):
                partner[f] = j
                partner[j] = f
                pair = row[j]
                rest = finishes(f + 1, j if j > n else y_max, matched | 1 << f | 1 << j)
                out += [pair + s for s in rest]
                partner[f] = partner[j] = 0
            memo[key] = out
        return out

    def walk(f: int, y_max: int, matched: int, text: str, placed: int) -> None:
        if placed == half:
            lines.extend([text + s for s in finishes(f, y_max, matched)])
            return
        while partner[f]:
            f += 1
        row = texts[f - 1]
        for j in _candidates(partner, n, f, y_max):
            partner[f] = j
            partner[j] = f
            y = j if j > n else y_max
            walk(f + 1, y, matched | 1 << f | 1 << j, text + row[j], placed + 1)
            partner[f] = partner[j] = 0

    walk(1, 0, 0, prefix, 0)
    return "".join(lines)


def count_pairings(dimension: int) -> int:
    """Number of leaves of the same search, without materializing them.

    The branching reads only which nodes are matched and ``y_max``, so
    the leaf count below a node is memoized by that state.
    """
    n, size, partner = _start(dimension)
    memo: dict[tuple[int, int], int] = {}

    def rec(f: int, y_max: int, matched: int) -> int:
        while f <= size and partner[f]:
            f += 1
        if f > size:
            return 1
        key = (matched, y_max)
        total = memo.get(key)
        if total is None:
            total = 0
            for j in _candidates(partner, n, f, y_max):
                partner[f] = j
                partner[j] = f
                total += rec(f + 1, j if j > n else y_max, matched | 1 << f | 1 << j)
                partner[f] = partner[j] = 0
            memo[key] = total
        return total

    return rec(1, 0, 0)


def _start(dimension: int) -> tuple[int, int, list[int]]:
    """N, 2N and an empty 1-based partner array for a search."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    return dimension, 2 * dimension, [0] * (2 * dimension + 1)


def _candidates(partner: list[int], n: int, f: int, y_max: int) -> list[int]:
    """The legal partners of frontier node f, ascending: the branching
    rule every walk above shares.  ``y_max`` is the highest top node any
    strand placed so far lands on (0 for none)."""
    size = 2 * n
    candidates: list[int] = []
    if f <= n:
        j = f + 1
        while j <= n and not partner[j]:
            if (j - f) % 2 == 1:
                candidates.append(j)
            j += 1
        walled = j <= n
        if not walled:
            j = max(y_max + 1, n + 1)
            if (f + j + n) % 2 == 1:
                j += 1
            while j <= size:
                candidates.append(j)
                j += 2
    else:
        j = f + 1
        while j <= size and not partner[j]:
            candidates.append(j)
            if j + 1 > size or partner[j + 1]:
                break
            j += 2
    return candidates


def compose_pairings(
    bottom: tuple[int, ...], top: tuple[int, ...], dimension: int
) -> tuple[tuple[int, ...], int]:
    """Stack ``top`` onto ``bottom`` and resolve the product.

    The bottom factor's top row (its nodes N+1..2N) is glued to the top
    factor's bottom row (its nodes 1..N); middle node m is both.  From
    each boundary end not yet paired, the walk follows partners,
    switching factor at every middle node, until it reaches the boundary
    again.  Middle nodes no walk visited lie on closed loops.  Returns
    the boundary partner tuple of the loop-free product and the number of
    closed loops, i.e. the exponent of the loop parameter.
    """
    n = dimension
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
