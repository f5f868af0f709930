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
of the partner array.

Composition walks the strands of the stacked picture directly; the
union-find and matrix-power readings of the same stack live in the test
suite as independent oracles.
"""

from __future__ import annotations


def enumerate_pairings(dimension: int) -> list[tuple[int, ...]]:
    """All noncrossing perfect matchings on 2N nodes as partner tuples,
    in ascending lexicographic order."""
    out: list[tuple[int, ...]] = []
    _search(dimension, lambda partner: out.append(tuple(partner[1:])))
    return out


def count_pairings(dimension: int) -> int:
    """Number of leaves of the same search, without materializing them."""
    total = 0

    def bump(_partner: list[int]) -> None:
        nonlocal total
        total += 1

    _search(dimension, bump)
    return total


def _search(dimension, emit):
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    n = dimension
    size = 2 * n
    partner = [0] * (size + 1)

    def rec(frontier: int, y_max: int) -> None:
        f = frontier
        while f <= size and partner[f]:
            f += 1
        if f > size:
            emit(partner)
            return
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
        for j in candidates:
            partner[f] = j
            partner[j] = f
            rec(f + 1, j if j > n else y_max)
            partner[f] = 0
            partner[j] = 0

    rec(1, 0)


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
