"""Small square matrices over LaurentPoly.

``PolyMatrix`` is the dense view of results: ``GeneratorMatrix.matrix``,
the bracket image returned by ``braid_image_matrix`` and the rows printed
as CSV.  The library computes neither relation checks nor bracket images
with it; those work on column-monomial maps and sparse columns (see
``representation`` and ``braids``).  Its arithmetic is kept for the dense
oracles the tests check the library against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .laurent import LaurentPoly


@dataclass(frozen=True)
class PolyMatrix:
    """Row-major square matrix with LaurentPoly entries in one variable."""

    variable: str
    rows: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self) -> None:
        size = len(self.rows)
        for row in self.rows:
            if len(row) != size:
                raise ValueError("matrix must be square")
            for entry in row:
                if entry.variable != self.variable:
                    raise ValueError("all entries must share the matrix variable")

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
        return cls(variable, tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, size: int, variable: str) -> PolyMatrix:
        z = LaurentPoly.zero(variable)
        one = LaurentPoly.one(variable)
        return cls(
            variable,
            tuple(
                tuple(one if i == j else z for j in range(size)) for i in range(size)
            ),
        )

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
        size = self.size
        zero = LaurentPoly.zero(self.variable)
        grid: list[list[LaurentPoly]] = [[zero] * size for _ in range(size)]
        for i in range(size):
            row = self.rows[i]
            for k in range(size):
                a = row[k]
                if a.is_zero():
                    continue
                other_row = other.rows[k]
                for j in range(size):
                    b = other_row[j]
                    if not b.is_zero():
                        grid[i][j] = grid[i][j] + a * b
        return PolyMatrix(self.variable, tuple(tuple(r) for r in grid))

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

    def __pow__(self, k: int) -> PolyMatrix:
        if k < 0:
            raise ValueError("negative matrix powers are not defined")
        acc = PolyMatrix.identity(self.size, self.variable)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def column(self, j: int) -> tuple[LaurentPoly, ...]:
        return tuple(row[j] for row in self.rows)


def matrix_product(matrices: Iterable[PolyMatrix]) -> PolyMatrix:
    result: PolyMatrix | None = None
    for m in matrices:
        result = m if result is None else result * m
    if result is None:
        raise ValueError("empty matrix product")
    return result
