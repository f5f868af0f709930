"""Exact Laurent polynomials with integer coefficients.

All scalar arithmetic in this package is done symbolically over the ring
Z[v, v^-1] for a single named variable v, which is either the loop
parameter ``d`` or the bracket variable ``A``.  No floating point is used
anywhere.

The text form used by the CLI writes terms in descending exponent order,
e.g. ``d^2-2*d+1``, ``A+A^-1``, with the constants ``1`` and ``0`` as the
bare digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class LaurentPoly:
    """A Laurent polynomial c_k * v^k + ... with integer coefficients.

    ``coeffs`` holds (exponent, coefficient) pairs sorted by ascending
    exponent with all zero coefficients dropped, so equality of values is
    exactly equality of the dataclass fields.
    """

    variable: str
    coeffs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.variable not in ("d", "A"):
            raise ValueError(f"unsupported variable {self.variable!r}")
        exps = [e for e, _ in self.coeffs]
        if exps != sorted(exps) or len(set(exps)) != len(exps):
            raise ValueError("coefficients must be sorted by distinct exponent")
        if any(c == 0 for _, c in self.coeffs):
            raise ValueError("zero coefficients must not be stored")

    @classmethod
    def from_dict(cls, variable: str, mapping: Mapping[int, int]) -> LaurentPoly:
        items = tuple(sorted((e, c) for e, c in mapping.items() if c != 0))
        return cls(variable, items)

    @classmethod
    def zero(cls, variable: str) -> LaurentPoly:
        return cls(variable, ())

    @classmethod
    def constant(cls, variable: str, value: int) -> LaurentPoly:
        return cls.from_dict(variable, {0: value})

    @classmethod
    def one(cls, variable: str) -> LaurentPoly:
        return cls.constant(variable, 1)

    @classmethod
    def monomial(cls, variable: str, exponent: int, coefficient: int = 1) -> LaurentPoly:
        return cls.from_dict(variable, {exponent: coefficient})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == ((0, 1),)

    def _require_same_variable(self, other: LaurentPoly) -> None:
        if self.variable != other.variable:
            raise ValueError(
                f"mixed variables {self.variable!r} and {other.variable!r}"
            )

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.constant(self.variable, other)
        self._require_same_variable(other)
        acc = dict(self.coeffs)
        for e, c in other.coeffs:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly.from_dict(self.variable, acc)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.variable, tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.constant(self.variable, other)
        return self + (-other)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.variable)
            return LaurentPoly(
                self.variable, tuple((e, c * other) for e, c in self.coeffs)
            )
        self._require_same_variable(other)
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(self.variable, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if k < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        result = LaurentPoly.one(self.variable)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shifted(self, exponent_offset: int) -> LaurentPoly:
        """Multiply by v^offset, i.e. shift every exponent."""
        return LaurentPoly(
            self.variable, tuple((e + exponent_offset, c) for e, c in self.coeffs)
        )

    def substitute(self, value: LaurentPoly) -> LaurentPoly:
        """Substitute another polynomial for the variable.

        Only defined when no negative exponents are present (an arbitrary
        polynomial is not invertible in the Laurent ring).
        """
        if any(e < 0 for e, _ in self.coeffs):
            raise ValueError("cannot substitute into a negative exponent")
        result = LaurentPoly.zero(value.variable)
        for e, c in self.coeffs:
            result = result + (value**e) * c
        return result

    def substitute_int(self, value: int) -> int:
        """Evaluate at an integer; rejects negative exponents."""
        if any(e < 0 for e, _ in self.coeffs):
            raise ValueError("cannot evaluate a negative exponent at an integer")
        return sum(c * value**e for e, c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces: list[str] = []
        for e, c in reversed(self.coeffs):
            if e == 0:
                mon = ""
            elif e == 1:
                mon = self.variable
            else:
                mon = f"{self.variable}^{e}"
            if not mon:
                term = str(abs(c))
            elif abs(c) == 1:
                term = mon
            else:
                term = f"{abs(c)}*{mon}"
            sign = "-" if c < 0 else "+"
            pieces.append(f"{sign}{term}")
        text = "".join(pieces)
        return text[1:] if text.startswith("+") else text

