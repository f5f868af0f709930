"""Small square matrices over LaurentPoly.

``PolyMatrix`` is the dense view of results: ``GeneratorMatrix.matrix``
and the bracket image returned by ``braid_image_matrix``.  The library
computes, compares and prints generator actions and bracket images as
column-monomial maps and sparse columns (see ``representation`` and
``braids``); ``from_columns`` is the one place a dense matrix is built
from them.  ``__mul__`` is kept for the dense oracles the tests check the
library against, and for the benchmark tracer."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from ._backend import _in_range
from ._values import _require, _sequence, _Value
from .laurent import _VARIABLES, LaurentPoly


class PolyMatrix(_Value):
    """Row-major square matrix with LaurentPoly entries in one variable."""

    __slots__ = _fields = ("variable", "rows")
    variable: str
    rows: tuple[tuple[LaurentPoly, ...], ...]

    def __init__(self, variable: str, rows: Sequence[Sequence[LaurentPoly]]) -> None:
        if variable not in _VARIABLES:
            raise ValueError(f"unsupported variable {variable!r}")
        message = f"rows must be sequences of LaurentPoly in {variable}"
        rows = tuple(
            _sequence(row, LaurentPoly, "variable", variable, message)
            for row in _require(rows, Iterable, message)
        )
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def _position(self, value: int, name: str) -> int:
        """``value`` as a 0-based row or column number, 0..size-1."""
        return _in_range(value, name, 0, self.size - 1)

    def entry(self, row: int, col: int) -> LaurentPoly:
        """0-based access."""
        return self.rows[self._position(row, "row")][self._position(col, "column")]

    @classmethod
    def from_rows(
        cls, variable: str, rows: Sequence[Sequence[LaurentPoly]]
    ) -> PolyMatrix:
        return cls(variable, rows)

    @classmethod
    def from_columns(
        cls, variable: str, columns: Sequence[Mapping[int, LaurentPoly]]
    ) -> PolyMatrix:
        """The square matrix with ``columns[i][j]`` in row j of column i
        and zero in every unlisted cell; ValueError unless each column maps
        integers 0 <= j < size to entries."""
        zero = LaurentPoly.zero(variable)
        size = len(_require(columns, Sequence, "columns must be a sequence of maps"))
        grid = [[zero] * size for _ in columns]
        for i, column in enumerate(columns):
            message = f"column {i} must map rows to entries"
            for j, entry in _require(column, Mapping, message).items():
                # one range test per cell, which also rejects a non-integer
                if not (isinstance(j, int) and 0 <= j < size):
                    raise ValueError(f"column {i} has row {j!r} outside 0..{size - 1}")
                grid[j][i] = entry
        return cls.from_rows(variable, grid)

    @classmethod
    def identity(cls, size: int, variable: str) -> PolyMatrix:
        one = LaurentPoly.one(variable)
        return cls.from_columns(variable, [{i: one} for i in range(size)])

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        self._check(other)
        columns = []
        for j in range(other.size):
            column: dict[int, LaurentPoly] = {}
            for k, b in enumerate(other.column(j)):
                if b.is_zero():
                    continue
                for i, row in enumerate(self.rows):
                    a = row[k]
                    if not a.is_zero():
                        column[i] = column[i] + a * b if i in column else a * b
            columns.append(column)
        return PolyMatrix.from_columns(self.variable, columns)

    def _check(self, other: PolyMatrix) -> None:
        if self.variable != _require(other, PolyMatrix, "expected a PolyMatrix").variable:
            raise ValueError("matrix variable mismatch")
        if self.size != other.size:
            raise ValueError("matrix size mismatch")

    def column(self, j: int) -> tuple[LaurentPoly, ...]:
        j = self._position(j, "column")
        return tuple(row[j] for row in self.rows)

