"""The bracket matrix image of a braid word, packed into ints.

The matrix image is built, compared and printed as sparse columns: one
dict per basis column, from row index to a nonzero entry.  U_i sends
column c to row t_c with loop exponent m_c, so right multiplication by a
letter a.1 + b.U_i replaces column c by a.col_c + b.d^{m_c}.col_{t_c},
with d = -A^2 - A^-2; an entry that cancels to zero is dropped, so equal
images have equal columns.

While it is built, each entry is one int by Kronecker substitution: the
image of a word of L letters is lifted by A^{3L}, which makes every
exponent lie in 0..6L, and A is set to 2^W, so an entry
sum c_e A^e is packed as sum c_e 2^{W(e + 3L)}.  Lifted by A^3, the
letter sigma_i^{+-1} is A^{3+-1}.1 + A^{3-+1}.U_i and its loop term is
A^{3-+1}.d = -(A^{5-+1} + A^{1-+1}), so the column update is shifts and
int additions.  Every coefficient is at most 3^L in absolute value (a
letter's terms have coefficients summing to at most 3 in absolute
value), and W = 2L + 2 bits keep each one below 2^{W-1}, so a packed
value has exactly one balanced base-2^W digit per exponent and packing
is exact: two entries are equal exactly when their packed values are.
``_image_columns`` is the one reader of a whole image: it decodes each
distinct value once and converts it once, keeping the LaurentPoly for
``braid_image_matrix`` (a ``PolyMatrix`` of the same columns) or making
its text for ``tlkit bracket --matrix``, which ``_csv.sparse_csv``
prints.  (Kronecker substitution: Harvey, arXiv:0712.4046.)

Every function here takes the basis as a ``_backend.PairingBasis`` and
builds the map of each distinct letter's generator on it once per word,
so no diagram module is loaded.  ``tlkit.braids`` imports this module
only where a matrix image is made (``braid_image_matrix``) and ``tlkit
bracket --matrix`` where it prints one, so the element form of ``tlkit
bracket`` and the Artin check of ``tlkit verify``, which decides each
relation on the element images, compile none of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

from .laurent import LaurentPoly

if TYPE_CHECKING:
    from ._backend import PairingBasis
    from .braids import BraidWord

T = TypeVar("T")


def _width(length: int) -> int:
    """The bits per coefficient of a packed image of a word of ``length``
    letters: its coefficients are at most 3^length < 2^(2 length + 1) in
    absolute value."""
    return 2 * length + 2


def _packed_columns(
    word: BraidWord, basis: PairingBasis, width: int, offset: int
) -> list[dict[int, int]]:
    """The bracket image over ``basis``, the identity-included basis of
    the word's strand count, lifted by A^offset (``offset`` at least three
    times the word length) and evaluated at A = 2^width: ``columns[i][j]``
    is the nonzero packed entry in row j of column i."""
    start = 1 << width * (offset - 3 * len(word.letters))
    columns = [{i: start} for i in range(len(basis.pairings))]
    # a word may repeat a generator: its map is built once and read here
    maps = {k: basis.map(k) for k in {abs(letter) for letter in word.letters}}
    for letter in word.letters:
        targets, exponents = maps[abs(letter)]
        # lifted by A^3, the letter is A^(3+s).1 + A^(3-s).U with s = +-1,
        # and U closes at most one loop, worth A^(3-s).d = -(A^(5-s) + A^(1-s))
        s = 1 if letter > 0 else -1
        straight, crossed = width * (3 + s), width * (3 - s)
        high, low = width * (5 - s), width * (1 - s)
        updated = []
        for own, target, m in zip(columns, targets, exponents):
            column = {row: p << straight for row, p in own.items()}
            for row, p in columns[target].items():
                q = -((p << high) + (p << low)) if m else p << crossed
                if row in column:
                    q += column[row]
                    if not q:
                        del column[row]
                        continue
                column[row] = q
            updated.append(column)
        columns = updated
    return columns


def _unpack(value: int, width: int, offset: int) -> LaurentPoly:
    """The polynomial sum c_e A^e whose packed value is
    sum c_e 2^{width (e + offset)}, every |c_e| below 2^(width - 1)."""
    mask, half = (1 << width) - 1, 1 << width - 1
    # the zero digits below the lowest term are skipped at once
    skip = ((value & -value).bit_length() - 1) // width if value else 0
    value >>= skip * width
    exponent = skip - offset
    coeffs = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= mask + 1
        if digit:
            coeffs.append((exponent, digit))
        value = (value - digit) >> width
        exponent += 1
    return LaurentPoly._trusted("A", tuple(coeffs))


def _image_columns(
    word: BraidWord, basis: PairingBasis, entry: Callable[[LaurentPoly], T]
) -> Iterator[dict[int, T]]:
    """The bracket image over ``basis``, the identity-included basis of
    the word's strand count, as sparse columns made one at a time:
    ``column[j]`` is ``entry`` of the nonzero entry in row j.  Each
    distinct entry is decoded and converted once."""
    length = len(word.letters)
    width, offset = _width(length), 3 * length
    entries: dict[int, T] = {}
    for packed in _packed_columns(word, basis, width, offset):
        # made at its final size: a dict grown entry by entry per column
        # raised the peak RSS of 9-strand ``bracket --matrix`` by about 1 MB
        column = dict.fromkeys(packed)
        for row, p in packed.items():
            value = entries.get(p)
            if value is None:
                value = entries[p] = entry(_unpack(p, width, offset))
            column[row] = value
        packed.clear()  # each packed column is freed once it is read
        yield column
