"""Formal linear combinations of planar diagrams.

A TLElement is a finite sum of loop-free diagrams of one dimension with
LaurentPoly coefficients, all in the same variable.  Multiplication
distributes over the terms, composes diagram pairs and converts every
closed loop produced by the stacking into one factor of a caller-supplied
loop polynomial (the symbol d itself, or its bracket value in A).
The constructor stores its checked terms through ``_Value._set``; the
library's own results are held through ``_Value._trusted``, the held
route of every value class, with no second check.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ._backend import _dimension
from ._values import _index, _pairs, _require, _Value
from .composition import compose
from .diagrams import PlanarDiagram
from .laurent import LaurentPoly, _known


_TERMS = "terms must be (diagram, coefficient) pairs"


class TLElement(_Value):
    """Sum of coeff * diagram terms, zero coefficients dropped, terms kept
    in canonical diagram order.  Negation and ``braid_image``, whose terms
    already hold that form, build theirs through ``_Value._trusted``."""

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
        _known(variable)
        terms = _pairs(terms, PlanarDiagram, LaurentPoly, _TERMS)
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
        self._set(dimension, variable, terms)

    @classmethod
    def from_terms(
        cls,
        dimension: int,
        variable: str,
        terms: Iterable[tuple[PlanarDiagram, LaurentPoly]] | Mapping[PlanarDiagram, LaurentPoly],
    ) -> TLElement:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[PlanarDiagram, LaurentPoly] = {}
        for diagram, coeff in _pairs(items, PlanarDiagram, LaurentPoly, _TERMS):
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
        cls, diagram: PlanarDiagram, coeff: LaurentPoly | None = None, variable: str | None = None
    ) -> TLElement:
        """``coeff`` times ``diagram``, by default 1 in ``variable``, which
        is ``d`` unless given and must be the coefficient's if both are."""
        diagram = _require(diagram, PlanarDiagram, "from_diagram needs a PlanarDiagram")
        if coeff is None:
            coeff = LaurentPoly.one("d" if variable is None else variable)
        coeff = _require(coeff, LaurentPoly, "the coefficient must be a LaurentPoly")
        if variable is not None and variable != coeff.variable:
            raise ValueError(
                f"the coefficient is in {coeff.variable!r}, not in variable {variable!r}"
            )
        return cls.from_terms(diagram.dimension, coeff.variable, [(diagram, coeff)])

    def coefficient(self, diagram: PlanarDiagram) -> LaurentPoly:
        """The coefficient of ``diagram``, zero when the element does not
        hold it; ValueError for a non-diagram or one of another dimension."""
        _require(diagram, PlanarDiagram, "coefficient needs a PlanarDiagram")
        if diagram.dimension != self.dimension:
            raise ValueError(
                f"cannot read a diagram of dimension {diagram.dimension} "
                f"from an element of dimension {self.dimension}"
            )
        for d, c in self.terms:
            if d == diagram:
                return c
        return LaurentPoly.zero(self.variable)

    def is_zero(self) -> bool:
        return not self.terms

    def _require_compatible(self, other: TLElement) -> None:
        _require(other, TLElement, "expected a TLElement")
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
        return TLElement._trusted(
            self.dimension, self.variable, tuple((d, -c) for d, c in self.terms)
        )

    def __sub__(self, other: TLElement) -> TLElement:
        return self + (-_require(other, TLElement, "expected a TLElement"))

    def scaled(self, factor: LaurentPoly | int) -> TLElement:
        if _index(factor) is not None:
            factor = LaurentPoly.constant(self.variable, factor)
        factor = _require(factor, LaurentPoly, "factor must be a LaurentPoly or an integer")
        if factor.variable != self.variable:
            raise ValueError("coefficient variable mismatch")
        return TLElement.from_terms(
            self.dimension,
            self.variable,
            [(d, c * factor) for d, c in self.terms],
        )


def multiply(a: TLElement, b: TLElement, loop_value: LaurentPoly) -> TLElement:
    """The algebra product a.b, right factor acting first (stacked at the
    bottom), each closed loop becoming one ``loop_value`` factor.

    With loop_value the monomial d this is multiplication in TL_N(d); the
    bracket image uses d's value -A^2 - A^-2 instead.
    """
    _require(a, TLElement, "expected a TLElement")._require_compatible(b)
    loop_value = _require(loop_value, LaurentPoly, "loop value must be a LaurentPoly")
    if loop_value.variable != a.variable:
        raise ValueError("loop value must use the coefficient variable")
    terms = []
    for da, ca in a.terms:
        for db, cb in b.terms:
            stacked = compose(db, da)
            coeff = ca * cb * loop_value**stacked.loop_exponent
            terms.append((stacked.diagram, coeff))
    return TLElement.from_terms(a.dimension, a.variable, terms)
