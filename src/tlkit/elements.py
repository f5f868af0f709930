"""Formal linear combinations of planar diagrams.

A TLElement is a finite sum of loop-free diagrams of one dimension with
LaurentPoly coefficients, all in the same variable.  Multiplication
distributes over the terms, composes diagram pairs and converts every
closed loop produced by the stacking into one factor of a caller-supplied
loop polynomial (the symbol d itself, or its bracket value in A).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .composition import compose
from .diagrams import PlanarDiagram, _dimension, _Value
from .laurent import _VARIABLES, LaurentPoly


class TLElement(_Value):
    """Sum of coeff * diagram terms, zero coefficients dropped, terms kept
    in canonical diagram order."""

    __slots__ = _fields = ("dimension", "variable", "terms")
    dimension: int
    variable: str
    terms: tuple[tuple[PlanarDiagram, LaurentPoly], ...]

    def __init__(
        self,
        dimension: int,
        variable: str,
        terms: Iterable[tuple[PlanarDiagram, LaurentPoly]],
    ) -> None:
        dimension = _dimension(dimension)
        if variable not in _VARIABLES:
            raise ValueError(f"unsupported variable {variable!r}")
        terms = _checked_terms(terms)
        for diagram, coeff in terms:
            if diagram.dimension != dimension:
                raise ValueError("all terms must share the element's dimension")
            if coeff.variable != variable:
                raise ValueError("all coefficients must share the element's variable")
            if coeff.is_zero():
                raise ValueError("zero terms must not be stored")
        keys = [d.pairing for d, _ in terms]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("terms must be sorted by diagram and duplicate-free")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_terms(
        cls,
        dimension: int,
        variable: str,
        terms: Iterable[tuple[PlanarDiagram, LaurentPoly]] | Mapping[PlanarDiagram, LaurentPoly],
    ) -> TLElement:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[PlanarDiagram, LaurentPoly] = {}
        for diagram, coeff in _checked_terms(items):
            acc[diagram] = acc[diagram] + coeff if diagram in acc else coeff
        kept = tuple(
            sorted(
                ((d, c) for d, c in acc.items() if not c.is_zero()),
                key=lambda item: item[0].pairing,
            )
        )
        return cls(dimension, variable, kept)

    @classmethod
    def zero(cls, dimension: int, variable: str) -> TLElement:
        return cls(dimension, variable, ())

    @classmethod
    def from_diagram(
        cls, diagram: PlanarDiagram, coeff: LaurentPoly | None = None, variable: str = "d"
    ) -> TLElement:
        coeff = LaurentPoly.one(variable) if coeff is None else coeff
        return cls.from_terms(diagram.dimension, coeff.variable, [(diagram, coeff)])

    def coefficient(self, diagram: PlanarDiagram) -> LaurentPoly:
        for d, c in self.terms:
            if d == diagram:
                return c
        return LaurentPoly.zero(self.variable)

    def is_zero(self) -> bool:
        return not self.terms

    def _require_compatible(self, other: TLElement) -> None:
        if not isinstance(other, TLElement):
            raise ValueError(f"expected a TLElement, got {other!r}")
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        if self.variable != other.variable:
            raise ValueError("coefficient variable mismatch")

    def __add__(self, other: TLElement) -> TLElement:
        self._require_compatible(other)
        return TLElement.from_terms(
            self.dimension, self.variable, self.terms + other.terms
        )

    def __neg__(self) -> TLElement:
        return TLElement(
            self.dimension, self.variable, tuple((d, -c) for d, c in self.terms)
        )

    def __sub__(self, other: TLElement) -> TLElement:
        return self + (-other)

    def scaled(self, factor: LaurentPoly | int) -> TLElement:
        if isinstance(factor, int):
            factor = LaurentPoly.constant(self.variable, factor)
        if factor.variable != self.variable:
            raise ValueError("coefficient variable mismatch")
        return TLElement.from_terms(
            self.dimension,
            self.variable,
            [(d, c * factor) for d, c in self.terms],
        )


def _checked_terms(
    terms: Iterable[tuple[PlanarDiagram, LaurentPoly]],
) -> tuple[tuple[PlanarDiagram, LaurentPoly], ...]:
    """``terms`` as a tuple, with ValueError unless every term is a
    (PlanarDiagram, LaurentPoly) pair."""
    try:
        pairs = tuple((diagram, coeff) for diagram, coeff in terms)
    except (TypeError, ValueError):
        raise ValueError("terms must be (diagram, coefficient) pairs") from None
    for diagram, coeff in pairs:
        if not isinstance(diagram, PlanarDiagram) or not isinstance(coeff, LaurentPoly):
            raise ValueError(
                f"term ({diagram!r}, {coeff!r}) is not a (PlanarDiagram, LaurentPoly) pair"
            )
    return pairs


def multiply(a: TLElement, b: TLElement, loop_value: LaurentPoly) -> TLElement:
    """The algebra product a.b, right factor acting first (stacked at the
    bottom), each closed loop becoming one ``loop_value`` factor.

    With loop_value the monomial d this is multiplication in TL_N(d); the
    bracket image uses d's value -A^2 - A^-2 instead.
    """
    if not isinstance(a, TLElement):
        raise ValueError(f"expected a TLElement, got {a!r}")
    a._require_compatible(b)
    if not isinstance(loop_value, LaurentPoly):
        raise ValueError(f"loop value must be a LaurentPoly, got {loop_value!r}")
    if loop_value.variable != a.variable:
        raise ValueError("loop value must use the coefficient variable")
    terms = []
    for da, ca in a.terms:
        for db, cb in b.terms:
            stacked = compose(db, da)
            coeff = ca * cb * loop_value**stacked.loop_exponent
            terms.append((stacked.diagram, coeff))
    return TLElement.from_terms(a.dimension, a.variable, terms)
