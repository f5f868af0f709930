"""Diagram composition by vertical stacking, with exact loop extraction.

Convention (normative and used everywhere in this package):
``compose(d1, d2)`` stacks d2 ON TOP of d1, gluing d1's top boundary to
d2's bottom boundary.  The glued picture has 3N nodes: the surviving
bottom boundary 1..N, the middle interface N+1..2N and the surviving top
boundary 2N+1..3N.  Boundary nodes carry one strand end, middle nodes
carry exactly two (counting multiplicity when both diagrams join the same
two middle nodes, which creates a two-edge cycle).

Every connected component of the stack is either a path between two
boundary nodes (a strand of the product diagram) or a cycle confined to
the middle (a closed loop, contributing one power of the loop parameter
d).  The kernel walks each strand from one boundary end to the other and
counts the middle cycles no strand visited; the test suite checks it
against a union-find over the stack and against boolean matrix-power
reachability.

Generators act by their local rule (``_apply_generator``, the link-state
action of arXiv:1204.4505): ``compose(D, U_k)`` changes only D's top
nodes a = N+k and b = N+k+1, into d.D if D pairs them and otherwise into
the diagram pairing (a, b) and (D(a), D(b)).  ``_action`` applies U_k to
a whole basis as a map of positions with loop exponents and keeps it on
the basis: the one builder of generator maps, which the generator
matrices, the ideal blocks, the bracket images and the table read.

The composition table is built from the same maps by associativity.
Every basis diagram E other than the identity is ``compose(E', U_k)``
for a parent E' one step closer to the identity, with no loop closed
(``_spanning_tree``).  Then compose(D, E) = compose(compose(D, E'), U_k),
so if D.E' = d^m.D_r, the cell D.E is d^(m + e_k[r]).D_(t_k[r]), one
step of the map of U_k (``_table_rows``).
"""

from __future__ import annotations

from typing import Iterator

from . import _backend
from .diagrams import PlanarDiagram, ScaledDiagram, _require
from .enumeration import DiagramBasis, identity_diagram

Map = tuple[tuple[int, ...], tuple[int, ...]]


def compose(d1: PlanarDiagram, d2: PlanarDiagram) -> ScaledDiagram:
    """The product diagram with d2 stacked on top of d1, as d^m times a
    loop-free diagram."""
    _require(d1, PlanarDiagram, "compose needs two PlanarDiagrams")
    _require(d2, PlanarDiagram, "compose needs two PlanarDiagrams")
    if d1.dimension != d2.dimension:
        raise ValueError(
            f"cannot compose dimensions {d1.dimension} and {d2.dimension}"
        )
    pairing, loops = _backend.compose_pairings(d1.pairing, d2.pairing, d1.dimension)
    return ScaledDiagram(PlanarDiagram._trusted(d1.dimension, pairing), loops)


def compose_scaled(s1: ScaledDiagram, s2: ScaledDiagram) -> ScaledDiagram:
    """Compose carrying loop exponents: exponents add on top of the loops
    produced by the stacking itself."""
    _require(s1, ScaledDiagram, "compose_scaled needs two ScaledDiagrams")
    _require(s2, ScaledDiagram, "compose_scaled needs two ScaledDiagrams")
    product = compose(s1.diagram, s2.diagram)
    return product.with_extra_loops(s1.loop_exponent + s2.loop_exponent)


def _apply_generator(
    pairing: tuple[int, ...], k: int, dimension: int
) -> tuple[tuple[int, ...], int]:
    """U_k . D as (partner tuple, loops), by the module docstring's rule."""
    a, b = dimension + k, dimension + k + 1
    p, q = pairing[a - 1], pairing[b - 1]
    if p == b:
        return pairing, 1
    out = list(pairing)
    out[a - 1], out[b - 1], out[p - 1], out[q - 1] = b, a, q, p
    return tuple(out), 0


def _action(basis: DiagramBasis, k: int) -> Map:
    """U_k on every basis position, in basis order: U_k . D_i =
    d^exponents[i] . D_targets[i].  Built on first use and kept on the
    basis; two threads that both build it store equal maps."""
    actions = basis._actions
    if k not in actions:
        index = basis._index
        images = (_apply_generator(d.pairing, k, basis.dimension) for d in basis)
        actions[k] = tuple(zip(*[(index[p], m) for p, m in images]))
    return actions[k]


def _spanning_tree(basis: DiagramBasis) -> tuple[int, list[tuple[int, int, int]]]:
    """The identity's position and steps (position, parent, k) with
    D_position = compose(D_parent, U_k) and no loop closed, found breadth
    first from the identity: every parent comes before its children, and
    every other basis diagram is reached exactly once."""
    maps = [(k, *_action(basis, k)) for k in range(1, basis.dimension)]
    root = basis.index_of(identity_diagram(basis.dimension))
    seen = [False] * len(basis)
    seen[root] = True
    frontier = [root]
    steps = []
    while frontier:
        reached = []
        for parent in frontier:
            for k, targets, exponents in maps:
                position = targets[parent]
                if not exponents[parent] and not seen[position]:
                    seen[position] = True
                    steps.append((position, parent, k))
                    reached.append(position)
        frontier = reached
    if len(steps) != len(basis) - 1:
        raise ValueError("the generators do not reach every basis diagram")
    return root, steps


def _table_rows(basis: DiagramBasis) -> Iterator[tuple[list[int], list[int]]]:
    """Row i of the composition table for every basis position i, in
    order: ``rows[j]`` and ``loops[j]`` give compose(D_i, D_j) =
    d^loops[j] . D_rows[j]."""
    root, tree = _spanning_tree(basis)
    steps = [(position, parent, *_action(basis, k)) for position, parent, k in tree]
    size = len(basis)
    for i in range(size):
        rows = [0] * size
        loops = [0] * size
        rows[root] = i
        for position, parent, targets, exponents in steps:
            r = rows[parent]
            rows[position] = targets[r]
            loops[position] = loops[parent] + exponents[r]
        yield rows, loops
