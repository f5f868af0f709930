"""Basis enumeration: all loop-free planar diagrams of a given dimension.

Diagrams are generated by sequential edge placement: the smallest-index
unmatched node (the frontier) is joined to each of its legal partners in
ascending order, so the search tree is deterministic and the leaves come
out in canonical (lexicographic) order.  The basis size is the Catalan
number C_N.

The search itself is the kernel in ``tlkit._backend``; the test suite
checks it against a brute-force oracle and against breadth-first and
depth-first enumerators over partial diagrams.

All values are immutable; ``enumerate_diagrams`` is cached and safe to
share across threads.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from . import _backend
from .diagrams import PlanarDiagram

#: Hard ceiling on the dimension accepted by enumerate_diagrams unless the
#: caller raises it explicitly (C_12 = 208012 diagrams is still cheap, but
#: growth beyond that is exponential).
DEFAULT_MAX_DIMENSION = 12


def catalan(n: int) -> int:
    """C_n = binom(2n, n) / (n + 1)."""
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class DiagramBasis:
    """The full basis for one dimension: Catalan(N) distinct diagrams,
    canonical order unless a caller chose another, plus an index for O(1)
    position lookup.  The index is keyed by the partner tuple, which alone
    identifies a diagram of the basis's dimension."""

    dimension: int
    diagrams: tuple[PlanarDiagram, ...]

    def __post_init__(self) -> None:
        diagrams = tuple(self.diagrams)
        object.__setattr__(self, "diagrams", diagrams)
        if len(diagrams) != catalan(self.dimension):
            raise ValueError(
                f"basis must hold Catalan({self.dimension}) diagrams, "
                f"got {len(diagrams)}"
            )
        if not all(
            isinstance(d, PlanarDiagram) and d.dimension == self.dimension
            for d in diagrams
        ):
            raise ValueError(
                f"every basis entry must be a diagram of dimension {self.dimension}"
            )
        index = {d.pairing: i for i, d in enumerate(diagrams)}
        if len(index) != len(diagrams):
            raise ValueError("basis contains duplicates")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.diagrams)

    def __iter__(self):
        return iter(self.diagrams)

    def __getitem__(self, i: int) -> PlanarDiagram:
        return self.diagrams[i]

    def __contains__(self, d: object) -> bool:
        return isinstance(d, PlanarDiagram) and d.pairing in self._index  # type: ignore[attr-defined]

    def index_of(self, d: PlanarDiagram) -> int:
        """Position of ``d``; KeyError when the basis does not hold it."""
        return self._index[d.pairing]  # type: ignore[attr-defined]


def identity_diagram(dimension: int) -> PlanarDiagram:
    """N parallel strands: node i paired with i+N."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    n = dimension
    return PlanarDiagram._trusted(
        n, tuple(list(range(n + 1, 2 * n + 1)) + list(range(1, n + 1)))
    )


@functools.cache
def _basis(dimension: int) -> DiagramBasis:
    pairings = _backend.enumerate_pairings(dimension)
    trusted = PlanarDiagram._trusted
    diagrams = tuple([trusted(dimension, p) for p in pairings])
    return DiagramBasis(dimension, diagrams)


def _checked_dimension(dimension: int, max_dimension: int | None) -> int:
    try:
        dimension = operator.index(dimension)
    except TypeError:
        raise ValueError(f"dimension must be an integer, got {dimension!r}") from None
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    ceiling = DEFAULT_MAX_DIMENSION if max_dimension is None else max_dimension
    if dimension > ceiling:
        raise ValueError(
            f"dimension {dimension} exceeds the resource ceiling {ceiling}"
        )
    return dimension


def enumerate_diagrams(
    dimension: int, *, max_dimension: int | None = None
) -> DiagramBasis:
    """The complete canonical basis; cached per dimension.

    Raises for dimensions above the resource ceiling (DEFAULT_MAX_DIMENSION
    unless overridden).
    """
    return _basis(_checked_dimension(dimension, max_dimension))


def count_diagrams(dimension: int, *, max_dimension: int | None = None) -> int:
    """Leaf count of the enumeration search (not the closed formula)."""
    return _backend.count_pairings(_checked_dimension(dimension, max_dimension))
