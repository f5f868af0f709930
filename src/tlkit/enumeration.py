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
share across threads.  A ``DiagramBasis`` holds its diagrams in its own
order and the position of each, keyed by partner tuple, and nothing
else: no generator map (``_backend.generator_maps`` builds and returns
them, and the link-state grid they are read through is made per call),
so reading the maps leaves a cached basis as it was.  ``_basis`` holds
the walk's diagrams, and the basis of them, through ``_Value._trusted``,
the held route of every value class, with no second check; it is the
one place where the walk's ``bytes`` rows become the tuples of
``PlanarDiagram.pairing``.
"""

from __future__ import annotations

import functools

from . import _backend
from ._backend import _checked_dimension, _dimension, catalan
from ._values import _require, _sequence, _Value
from .diagrams import PlanarDiagram


class DiagramBasis(_Value):
    """The full basis for one dimension: Catalan(N) distinct diagrams,
    canonical order unless a caller chose another, plus an index for O(1)
    position lookup.  ``_index`` is keyed by the partner tuple, which
    alone identifies a diagram."""

    _fields = ("dimension", "diagrams")
    __slots__ = (*_fields, "_index")
    dimension: int
    diagrams: tuple[PlanarDiagram, ...]
    _index: dict[tuple[int, ...], int]

    def __init__(self, dimension: int, diagrams: tuple[PlanarDiagram, ...]) -> None:
        dimension = _dimension(dimension)
        message = f"diagrams must be a sequence of diagrams of dimension {dimension}"
        diagrams = _sequence(diagrams, PlanarDiagram, "dimension", dimension, message)
        if len(diagrams) != catalan(dimension):
            raise ValueError(
                f"basis must hold Catalan({dimension}) diagrams, "
                f"got {len(diagrams)}"
            )
        index = {d.pairing: i for i, d in enumerate(diagrams)}
        if len(index) != len(diagrams):
            raise ValueError("basis contains duplicates")
        self._set(dimension, diagrams, index)

    def __len__(self) -> int:
        return len(self.diagrams)

    def __iter__(self):
        return iter(self.diagrams)

    def __getitem__(self, i: int) -> PlanarDiagram:
        return self.diagrams[i]

    def __contains__(self, d: object) -> bool:
        return isinstance(d, PlanarDiagram) and d.pairing in self._index

    def index_of(self, d: PlanarDiagram) -> int:
        """Position of ``d``; ValueError for a non-diagram and KeyError
        when the basis does not hold it."""
        d = _require(d, PlanarDiagram, "index_of needs a PlanarDiagram")
        return self._index[d.pairing]


def identity_diagram(dimension: int) -> PlanarDiagram:
    """N parallel strands: node i paired with i+N."""
    n = _dimension(dimension)
    return PlanarDiagram._trusted(n, _backend.identity_pairing(n))


@functools.cache
def _basis(dimension: int) -> DiagramBasis:
    """The basis of the walk's rows, held through ``_Value._trusted``.
    Each ``bytes`` row becomes the tuple ``PlanarDiagram.pairing`` and is
    popped as it is converted, so the two lists are never held whole."""
    rows, trusted = _backend.enumerate_pairings(dimension)[::-1], PlanarDiagram._trusted
    diagrams = tuple([trusted(dimension, tuple(rows.pop())) for _ in range(len(rows))])
    return DiagramBasis._trusted(dimension, diagrams, {d.pairing: i for i, d in enumerate(diagrams)})


def enumerate_diagrams(
    dimension: int, *, max_dimension: int | None = None
) -> DiagramBasis:
    """The complete canonical basis; cached per dimension.

    Raises for dimensions above the resource ceiling
    (``_backend.DEFAULT_MAX_DIMENSION`` unless overridden).
    """
    return _basis(_checked_dimension(dimension, max_dimension))
