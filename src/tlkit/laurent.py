"""Exact Laurent polynomials with integer coefficients.

All scalar arithmetic in this package is done symbolically over the ring
Z[v, v^-1] for a single named variable v, which is either the loop
parameter ``d`` or the bracket variable ``A``.  No floating point is used
anywhere.

The text form used by the CLI writes terms in descending exponent order,
e.g. ``d^2-2*d+1``, ``A+A^-1``, with the constants ``1`` and ``0`` as the
bare digits.

The module imports only ``_backend`` and ``_values`` from the package,
so the element form of ``tlkit bracket``, which computes on integer
coefficient rows, makes its output terms with it without loading the
diagram types.
"""

from __future__ import annotations

from collections.abc import Mapping

from ._backend import _integer
from ._values import _pairs, _require, _Value


#: The variables a polynomial may be written in.
_VARIABLES = ("d", "A")


def _known(variable: str) -> str:
    """``variable`` if a polynomial may be written in it."""
    if variable not in _VARIABLES:
        raise ValueError(f"unsupported variable {variable!r}")
    return variable


class LaurentPoly(_Value):
    """A Laurent polynomial c_k * v^k + ... with integer coefficients.

    ``coeffs`` holds (exponent, coefficient) pairs sorted by ascending
    exponent with all zero coefficients dropped, so equality of values is
    exactly equality of the fields.

    The public constructor validates: it stores the pairs as a tuple of
    int pairs and rejects non-integers, unsorted or repeated exponents and
    zero coefficients, and so does ``from_dict``, through ``_store``:
    two distinct keys may read as one exponent.  ``_trusted`` skips that
    check and is only for arithmetic results, whose terms come from
    validated operands.
    """

    __slots__ = _fields = ("variable", "coeffs")
    variable: str
    coeffs: tuple[tuple[int, int], ...]

    def __init__(self, variable: str, coeffs: tuple[tuple[int, int], ...]) -> None:
        message = "coefficients must be (exponent, coefficient) pairs of integers"
        self._store(_known(variable), _pairs(coeffs, int, int, message))

    def _store(self, variable: str, coeffs: tuple[tuple[int, int], ...]) -> None:
        """Set the fields to ``coeffs``, int pairs ``_pairs`` has read,
        once they are sorted by distinct exponent with no zero
        coefficient."""
        exps = [e for e, _ in coeffs]
        if exps != sorted(exps) or len(set(exps)) != len(exps):
            raise ValueError("coefficients must be sorted by distinct exponent")
        if any(c == 0 for _, c in coeffs):
            raise ValueError("zero coefficients must not be stored")
        self._set(variable, coeffs)

    @classmethod
    def _collected(cls, variable: str, acc: dict[int, int]) -> LaurentPoly:
        """The trusted polynomial of integer exponent-to-coefficient sums."""
        return cls._trusted(variable, tuple(sorted((e, c) for e, c in acc.items() if c)))

    @classmethod
    def from_dict(cls, variable: str, mapping: Mapping[int, int]) -> LaurentPoly:
        message = "coefficients must map integer exponents to integers"
        items = _pairs(_require(mapping, Mapping, message).items(), int, int, message)
        # the pairs are read once, here: the constructor would read them again
        poly = object.__new__(cls)
        poly._store(_known(variable), tuple(sorted(item for item in items if item[1])))
        return poly

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
        return cls.from_dict(variable, {_integer(exponent, "exponent"): coefficient})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == ((0, 1),)

    def _operand(self, other: LaurentPoly | int) -> LaurentPoly:
        """``other`` as a polynomial in this variable: an integer becomes
        a constant, anything else but a polynomial in the same variable is
        rejected."""
        if isinstance(other, LaurentPoly):
            if self.variable != other.variable:
                raise ValueError(
                    f"mixed variables {self.variable!r} and {other.variable!r}"
                )
            return other
        value = _integer(other, "operand")
        return LaurentPoly._trusted(self.variable, ((0, value),) if value else ())

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = self._operand(other)
        acc = dict(self.coeffs)
        for e, c in other.coeffs:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly._collected(self.variable, acc)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._trusted(
            self.variable, tuple((e, -c) for e, c in self.coeffs)
        )

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        return self + (-self._operand(other))

    def __rsub__(self, other: int) -> LaurentPoly:
        return -self + other

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, LaurentPoly):
            other = self._operand(other)
            acc: dict[int, int] = {}
            for e1, c1 in self.coeffs:
                for e2, c2 in other.coeffs:
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
            return LaurentPoly._collected(self.variable, acc)
        value = _integer(other, "factor")
        return LaurentPoly._trusted(
            self.variable,
            tuple((e, c * value) for e, c in self.coeffs) if value else (),
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        k = _integer(k, "power")
        if k < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        result = LaurentPoly._trusted(self.variable, ((0, 1),))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shifted(self, exponent_offset: int) -> LaurentPoly:
        """Multiply by v^offset, i.e. shift every exponent."""
        offset = _integer(exponent_offset, "exponent offset")
        return LaurentPoly._trusted(
            self.variable, tuple((e + offset, c) for e, c in self.coeffs)
        )

    def substitute(self, value: LaurentPoly) -> LaurentPoly:
        """Substitute another polynomial for the variable.

        Only defined when no negative exponents are present (an arbitrary
        polynomial is not invertible in the Laurent ring).
        """
        message = "substitute needs a LaurentPoly (substitute_int takes an integer)"
        _require(value, LaurentPoly, message)
        if any(e < 0 for e, _ in self.coeffs):
            raise ValueError("cannot substitute into a negative exponent")
        result = LaurentPoly.zero(value.variable)
        for e, c in self.coeffs:
            result = result + (value**e) * c
        return result

    def substitute_int(self, value: int) -> int:
        """Evaluate at an integer; rejects negative exponents."""
        value = _integer(value, "value")
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

