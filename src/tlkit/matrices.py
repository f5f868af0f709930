"""Square matrices over LaurentPoly, stored as sparse columns.

``PolyMatrix`` holds the shape its producers compute: column i maps each
row j of a nonzero entry to that entry, and zero entries are not stored.
``GeneratorMatrix.matrix`` and ``braid_image_matrix`` build one from
their column-monomial maps and sparse columns, and ``__mul__`` multiplies
sparse columns.  ``size``, ``entry``, products, equality and hashing read
the columns only; ``rows`` and ``column`` are dense views built on each
read, and ``repr`` and pickling go through ``rows``, so they cost
Catalan(N)^2 cells."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from types import MappingProxyType

from ._backend import _in_range
from ._values import _require, _sequence, _Value
from .laurent import _VARIABLES, LaurentPoly


def _checked(variable: str, groups: Iterable[Iterable[LaurentPoly]]) -> list[tuple]:
    """``groups`` (dense rows, or the entries of each column) as tuples of
    LaurentPoly in ``variable``; ValueError otherwise."""
    if variable not in _VARIABLES:
        raise ValueError(f"unsupported variable {variable!r}")
    message = f"rows must be sequences of LaurentPoly in {variable}"
    groups = _require(groups, Iterable, message)
    return [_sequence(group, LaurentPoly, "variable", variable, message) for group in groups]


class PolyMatrix(_Value):
    """Square matrix with LaurentPoly entries in one variable, printed and
    pickled as its dense ``rows`` and compared and hashed as its sparse
    columns, which hold no zero entry, so equal matrices have equal
    columns."""

    _fields = ("variable", "rows")
    __slots__ = ("variable", "_columns")
    variable: str

    def __init__(self, variable: str, rows: Sequence[Sequence[LaurentPoly]]) -> None:
        rows = _checked(variable, rows)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        self._hold(variable, (dict(enumerate(column)) for column in zip(*rows)))

    def _hold(self, variable: str, columns: Iterable[Mapping[int, LaurentPoly]]) -> PolyMatrix:
        """Store checked ``columns`` as read-only copies without their
        zero entries; returns ``self``."""
        columns = tuple(MappingProxyType({j: e for j, e in c.items() if e.coeffs}) for c in columns)
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "_columns", columns)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # read-only views of dicts compare by content
        return (self.variable, self._columns) == (other.variable, other._columns)

    def __hash__(self) -> int:
        return hash((self.variable, *(frozenset(column.items()) for column in self._columns)))

    @property
    def size(self) -> int:
        return len(self._columns)

    @property
    def rows(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The dense rows, built on each read."""
        return tuple(zip(*map(self.column, range(self.size))))

    def _position(self, value: int, name: str) -> int:
        """``value`` as a 0-based row or column number, 0..size-1."""
        return _in_range(value, name, 0, self.size - 1)

    def entry(self, row: int, col: int) -> LaurentPoly:
        """0-based access."""
        row = self._position(row, "row")
        zero = LaurentPoly.zero(self.variable)
        return self._columns[self._position(col, "column")].get(row, zero)

    def column(self, j: int) -> tuple[LaurentPoly, ...]:
        column, zero = self._columns[self._position(j, "column")], LaurentPoly.zero(self.variable)
        return tuple(column.get(i, zero) for i in range(self.size))

    @classmethod
    def from_rows(cls, variable: str, rows: Sequence[Sequence[LaurentPoly]]) -> PolyMatrix:
        return cls(variable, rows)

    @classmethod
    def from_columns(
        cls, variable: str, columns: Sequence[Mapping[int, LaurentPoly]]
    ) -> PolyMatrix:
        """The square matrix with ``columns[i][j]`` in row j of column i
        and zero in every unlisted cell; ValueError unless each column maps
        integers 0 <= j < size to entries."""
        size = len(_require(columns, Sequence, "columns must be a sequence of maps"))
        for i, column in enumerate(columns):
            for j in _require(column, Mapping, f"column {i} must map rows to entries"):
                # one range test per key, which also rejects a non-integer
                if not (isinstance(j, int) and 0 <= j < size):
                    raise ValueError(f"column {i} has row {j!r} outside 0..{size - 1}")
        _checked(variable, [column.values() for column in columns])
        return object.__new__(cls)._hold(variable, columns)

    @classmethod
    def identity(cls, size: int, variable: str) -> PolyMatrix:
        one = LaurentPoly.one(variable)
        return cls.from_columns(variable, [{i: one} for i in range(size)])

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        self._check(other)
        columns: list[dict[int, LaurentPoly]] = [{} for _ in other._columns]
        for column, other_column in zip(columns, other._columns):
            # the sum of b times column k of self over the entries b (row k)
            for k, b in other_column.items():
                for i, a in self._columns[k].items():
                    column[i] = column[i] + a * b if i in column else a * b
        return object.__new__(PolyMatrix)._hold(self.variable, columns)

    def _check(self, other: PolyMatrix) -> None:
        if self.variable != _require(other, PolyMatrix, "expected a PolyMatrix").variable:
            raise ValueError("matrix variable mismatch")
        if self.size != other.size:
            raise ValueError("matrix size mismatch")
