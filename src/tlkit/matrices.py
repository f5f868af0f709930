"""Small square matrices over LaurentPoly.

``PolyMatrix`` is the dense view of results: ``GeneratorMatrix.matrix``
and the bracket image returned by ``braid_image_matrix``.  The library
computes, compares and prints generator actions and bracket images as
column-monomial maps and sparse columns (see ``representation`` and
``braids``); ``from_columns`` is the one place a dense matrix is built
from them.  The arithmetic is kept for the dense oracles the tests check
the library against, and ``__mul__`` for the benchmark tracer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .laurent import LaurentPoly


@dataclass(frozen=True)
class PolyMatrix:
    """Row-major square matrix with LaurentPoly entries in one variable."""

    variable: str
    rows: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self) -> None:
        try:
            rows = tuple(tuple(row) for row in self.rows)
        except TypeError:
            raise ValueError("rows must be a sequence of sequences") from None
        size = len(rows)
        for row in rows:
            if len(row) != size:
                raise ValueError("matrix must be square")
            for entry in row:
                if not isinstance(entry, LaurentPoly):
                    raise ValueError(f"entry {entry!r} is not a LaurentPoly")
                if entry.variable != self.variable:
                    raise ValueError("all entries must share the matrix variable")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, row: int, col: int) -> LaurentPoly:
        """0-based access."""
        return self.rows[row][col]

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
        and zero in every unlisted cell."""
        zero = LaurentPoly.zero(variable)
        grid = [[zero] * len(columns) for _ in columns]
        for i, column in enumerate(columns):
            for j, entry in column.items():
                grid[j][i] = entry
        return cls.from_rows(variable, grid)

    @classmethod
    def identity(cls, size: int, variable: str) -> PolyMatrix:
        one = LaurentPoly.one(variable)
        return cls.from_columns(variable, [{i: one} for i in range(size)])

    def __add__(self, other: PolyMatrix) -> PolyMatrix:
        self._check(other)
        return PolyMatrix(
            self.variable,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

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

    def scaled(self, factor: LaurentPoly) -> PolyMatrix:
        if factor.variable != self.variable:
            raise ValueError("scale factor must share the matrix variable")
        return PolyMatrix(
            self.variable,
            tuple(tuple(entry * factor for entry in row) for row in self.rows),
        )

    def map_entries(
        self, f: Callable[[LaurentPoly], LaurentPoly], variable: str | None = None
    ) -> PolyMatrix:
        """Apply f to every entry; pass ``variable`` when f changes it."""
        mapped = tuple(tuple(f(entry) for entry in row) for row in self.rows)
        return PolyMatrix(variable or self.variable, mapped)

    def _check(self, other: PolyMatrix) -> None:
        if self.variable != other.variable:
            raise ValueError("matrix variable mismatch")
        if self.size != other.size:
            raise ValueError("matrix size mismatch")

    def column(self, j: int) -> tuple[LaurentPoly, ...]:
        return tuple(row[j] for row in self.rows)


def matrix_product(matrices: Iterable[PolyMatrix]) -> PolyMatrix:
    result: PolyMatrix | None = None
    for m in matrices:
        result = m if result is None else result * m
    if result is None:
        raise ValueError("empty matrix product")
    return result
