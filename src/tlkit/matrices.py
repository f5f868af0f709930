"""Square matrices over LaurentPoly, stored as sparse columns.

``PolyMatrix`` holds the shape its producers compute: column i maps each
row j of a nonzero entry to that entry, and zero entries are not stored.
``PolyMatrix(variable, columns)`` takes that shape, each column a map
from row to entry or the (row, entry) pairs its ``repr`` prints, so
``repr``, ``copy`` and pickling go through the columns too, and
``from_rows`` builds one from dense rows.  ``GeneratorMatrix.matrix`` and
``braid_image_matrix`` build theirs from their column-monomial maps and
sparse columns, and ``__mul__`` multiplies sparse columns; all three, and
``identity``, hold the tuple of columns they made through
``_Value._trusted``, which checks nothing again; the constructor stores
the columns it checked through ``_Value._set``.  Both write the slots
``variable`` and ``_columns`` through the writers ``_Value`` looks up
once for the class.
Only ``rows`` and ``column`` are dense, views built on each read, so they
cost Catalan(N) cells per column."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from ._backend import _dimension, _in_range
from ._values import _index, _require, _sequence, _Value
from .laurent import LaurentPoly, _known


class PolyMatrix(_Value):
    """Square matrix with LaurentPoly entries in one variable, held as
    sparse columns with no zero entry: ``columns[i]`` lists the (row,
    entry) pairs of column i in row order, so equal matrices have equal
    columns.  ``_trusted(variable, columns)`` skips the constructor's
    checks and is only for a tuple of columns the library made itself:
    maps from a row in range to a nonzero entry in ``variable``."""

    _fields = ("variable", "columns")
    __slots__ = ("variable", "_columns")
    variable: str

    def __init__(self, variable: str, columns: Sequence[Mapping | Sequence[tuple]]) -> None:
        """The matrix with ``columns[i][j]`` in row j of column i and zero
        in every unlisted cell; ValueError unless each column maps, or
        pairs, distinct integers 0 <= j < size with entries."""
        _known(variable)
        size = len(_require(columns, Sequence, "columns must be a sequence of columns"))
        message = f"entries must be LaurentPoly in {variable}"
        held = []
        for i, column in enumerate(columns):
            try:
                entries = dict(column)
                if len(entries) != len(column):
                    raise ValueError  # a row listed twice
            except (TypeError, ValueError):
                text = "must be a map or distinct (row, entry) pairs"
                raise ValueError(f"column {i} {text}, got {column!r}") from None
            for j in entries:
                # one range test per key, on the int it stands for, which
                # also rejects a non-integer
                if not 0 <= _index(j, -1) < size:
                    raise ValueError(f"column {i} has row {j!r} outside 0..{size - 1}")
            _sequence(entries.values(), LaurentPoly, "variable", variable, message)
            held.append({_index(j): e for j, e in entries.items() if e.coeffs})
        self._set(variable, tuple(held))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the stored dicts compare by content, in any row order
        return (self.variable, self._columns) == (other.variable, other._columns)

    # a class that defines __eq__ loses the inherited hash of its fields
    __hash__ = _Value.__hash__

    @property
    def columns(self) -> tuple[tuple[tuple[int, LaurentPoly], ...], ...]:
        """Each column's (row, entry) pairs in row order, built on each
        read."""
        return tuple(tuple(sorted(column.items())) for column in self._columns)

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
        """The square matrix with ``rows[j][i]`` in row j of column i."""
        message = "rows must be sequences of entries"
        rows = [tuple(_require(row, Iterable, message)) for row in _require(rows, Iterable, message)]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        return cls(variable, [dict(enumerate(column)) for column in zip(*rows)])

    @classmethod
    def identity(cls, size: int, variable: str) -> PolyMatrix:
        """The ``size`` x ``size`` identity; ValueError unless ``size`` is
        an integer of at least 0."""
        size = _dimension(size, "size", 0)
        one = LaurentPoly.one(variable)
        return cls._trusted(variable, tuple({i: one} for i in range(size)))

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        self._check(other)
        columns: list[dict[int, LaurentPoly]] = [{} for _ in other._columns]
        for column, other_column in zip(columns, other._columns):
            # the sum of b times column k of self over the entries b (row k)
            for k, b in other_column.items():
                for i, a in self._columns[k].items():
                    column[i] = column[i] + a * b if i in column else a * b
        nonzero = tuple({i: e for i, e in column.items() if e.coeffs} for column in columns)
        return PolyMatrix._trusted(self.variable, nonzero)

    def _check(self, other: PolyMatrix) -> None:
        if self.variable != _require(other, PolyMatrix, "expected a PolyMatrix").variable:
            raise ValueError("matrix variable mismatch")
        if self.size != other.size:
            raise ValueError("matrix size mismatch")
