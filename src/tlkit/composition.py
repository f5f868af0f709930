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

A generator acts on a basis by its local rule, the link-state action
of arXiv:1204.4505, not by a composition: the rule, the generator maps
over a whole basis (``_backend.generator_maps``, which applies the
rule once per top link state of the basis's ``_backend.link_grid``) and
the composition table are kernels on partner rows and positions in
``tlkit._backend``.
"""

from __future__ import annotations

from . import _backend
from ._values import _require
from .diagrams import PlanarDiagram, ScaledDiagram


def compose(d1: PlanarDiagram, d2: PlanarDiagram) -> ScaledDiagram:
    """The product diagram with d2 stacked on top of d1, as d^m times a
    loop-free diagram."""
    _require(d1, PlanarDiagram, "compose needs two PlanarDiagrams")
    _require(d2, PlanarDiagram, "compose needs two PlanarDiagrams")
    if d1.dimension != d2.dimension:
        raise ValueError(
            f"cannot compose dimensions {d1.dimension} and {d2.dimension}"
        )
    pairing, loops = _backend.compose_pairings(d1.pairing, d2.pairing)
    return ScaledDiagram(PlanarDiagram._trusted(d1.dimension, pairing), loops)


def compose_scaled(s1: ScaledDiagram, s2: ScaledDiagram) -> ScaledDiagram:
    """Compose carrying loop exponents: exponents add on top of the loops
    produced by the stacking itself."""
    _require(s1, ScaledDiagram, "compose_scaled needs two ScaledDiagrams")
    _require(s2, ScaledDiagram, "compose_scaled needs two ScaledDiagrams")
    product = compose(s1.diagram, s2.diagram)
    return product.with_extra_loops(s1.loop_exponent + s2.loop_exponent)

