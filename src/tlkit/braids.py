"""Braid words and their image in TL_N under the bracket substitution.

A braid word is a sequence of signed Artin generator letters; the text
form is comma-separated signed indices, e.g. ``1,-2,3,-2`` for
sigma_1 sigma_2^-1 sigma_3 sigma_2^-1.

The skein substitution sends

    sigma_i    ->  A   . 1  +  A^-1 . U_i
    sigma_i^-1 ->  A^-1. 1  +  A    . U_i

with every closed loop worth d = -A^2 - A^-2, the standard bracket
convention.  The loop value is forced: expanding sigma_i sigma_i^-1 gives
1 + (A^2 + A^-2 + d) U_i, which collapses to the identity exactly for
that d, and the relation suite re-derives this mechanically.

Products follow operator order (the right factor acts first): the image
of a word is the ordered product of its letter images.  The element image
applies them to the identity, last letter first, each U_i by its local
rule (``composition._apply_generator``); the matrix image is the same
product of left-multiplication matrices on the identity-included basis,
each read from the map ``composition._action`` keeps on the caller's basis.

The matrix image is computed, compared and printed as sparse columns: one
dict per basis column, from row index to a nonzero LaurentPoly(A).  U_i
sends column c to row t_c with loop exponent m_c, so right multiplication
by a letter a.1 + b.U_i replaces column c by a.col_c + b.d^{m_c}.col_{t_c},
with d = -A^2 - A^-2; an entry that cancels to zero is dropped, so equal
images have equal columns.  ``braid_image_matrix`` is the dense matrix
view of those columns.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import TYPE_CHECKING, Sequence

from .composition import _action, _apply_generator
from .diagrams import PlanarDiagram, _dimension, _integer, _integers, _require, _Value
from .elements import TLElement
from .enumeration import DiagramBasis, enumerate_diagrams, identity_diagram
from .laurent import LaurentPoly

if TYPE_CHECKING:
    from .matrices import PolyMatrix
    from .representation import RelationReport

# ``matrices`` and ``representation`` are imported where they are used, so
# that ``bracket`` loads neither.


def kauffman_loop_value() -> LaurentPoly:
    """d = -A^2 - A^-2."""
    return LaurentPoly.from_dict("A", {2: -1, -2: -1})


class BraidWord(_Value):
    """Signed generator letters on a fixed number of strands; the empty
    word is the braid identity.  Powers are expanded to unit letters."""

    __slots__ = _fields = ("strands", "letters")
    strands: int
    letters: tuple[int, ...]

    def __init__(self, strands: int, letters: Sequence[int]) -> None:
        values = _integers(
            chain((strands,), letters),
            "strand count and letters must be integers, given as a sequence",
        )
        strands, letters = _dimension(values[0], "strand count"), values[1:]
        for letter in letters:
            if letter == 0 or not 1 <= abs(letter) <= strands - 1:
                raise ValueError(f"letter {letter} out of range for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def identity(cls, strands: int) -> BraidWord:
        return cls(strands, ())

    @classmethod
    def from_text(cls, strands: int, text: str) -> BraidWord:
        if not _require(text, str, "braid word must be text").strip():
            return cls.identity(strands)
        try:
            letters = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(
                f"braid word {text!r} must be comma-separated signed integers"
            ) from None
        return cls(strands, letters)

    def to_text(self) -> str:
        return ",".join(str(letter) for letter in self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if isinstance(other, BraidWord):
            if self.strands != other.strands:
                raise ValueError("strand count mismatch")
            return BraidWord(self.strands, self.letters + other.letters)
        return NotImplemented

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))


def braid_image(word: BraidWord) -> TLElement:
    """The bracket image of the word, expanded and collected over the
    diagram basis with LaurentPoly(A) coefficients."""
    n = _require(word, BraidWord, "braid_image needs a BraidWord").strands
    terms = {identity_diagram(n).pairing: LaurentPoly.one("A")}
    for letter in reversed(word.letters):
        # the letter is a.1 + b.U with a = A^shift and b = A^-shift
        shift = 1 if letter > 0 else -1
        with_loop = LaurentPoly.monomial("A", -shift) * kauffman_loop_value()
        updated = {pairing: c.shifted(shift) for pairing, c in terms.items()}
        for pairing, c in terms.items():
            image, loops = _apply_generator(pairing, abs(letter), n)
            q = c * with_loop if loops else c.shifted(-shift)
            updated[image] = updated[image] + q if image in updated else q
        terms = {p: c for p, c in updated.items() if not c.is_zero()}
    trusted = PlanarDiagram._trusted
    return TLElement(
        n, "A", tuple((trusted(n, p), c) for p, c in sorted(terms.items()))
    )


def _image_columns(word: BraidWord, basis: DiagramBasis) -> list[dict[int, LaurentPoly]]:
    """The bracket image over ``basis``, the identity-included basis of
    the word's strand count, as sparse columns: ``columns[i][j]`` is the
    nonzero entry in row j of column i."""
    one = LaurentPoly.one("A")
    columns = [{i: one} for i in range(len(basis))]
    loop = kauffman_loop_value()
    for letter in word.letters:
        targets, exponents = _action(basis, abs(letter))
        # the letter is a.1 + b.U with a = A^shift and b = A^-shift; U
        # closes at most one loop, so b.d^m is a shift or one product
        shift = 1 if letter > 0 else -1
        with_loop = LaurentPoly.monomial("A", -shift) * loop
        updated = []
        for own, target, m in zip(columns, targets, exponents):
            column = {row: p.shifted(shift) for row, p in own.items()}
            for row, p in columns[target].items():
                q = p * with_loop if m else p.shifted(-shift)
                if row in column:
                    q = column[row] + q
                    if q.is_zero():
                        del column[row]
                        continue
                column[row] = q
            updated.append(column)
        columns = updated
    return columns


def braid_image_matrix(word: BraidWord) -> PolyMatrix:
    """The bracket image as a matrix over the identity-included canonical
    basis (Catalan(N) x Catalan(N), entries in LaurentPoly(A))."""
    from .matrices import PolyMatrix

    word = _require(word, BraidWord, "braid_image_matrix needs a BraidWord")
    basis = enumerate_diagrams(word.strands)
    return PolyMatrix.from_columns("A", _image_columns(word, basis))


def verify_artin(strands: int, max_len: int = 6, seed: int = 0) -> RelationReport:
    """Check the braid relations in both images.

    For every applicable pair: the braided relation
    sigma_j sigma_{j+1} sigma_j = sigma_{j+1} sigma_j sigma_{j+1} and the
    far commutation sigma_j sigma_k = sigma_k sigma_j (|j-k| >= 2), in
    TLElement form and in matrix form, plus invertibility
    sigma_i sigma_i^-1 = 1 and seeded random words w of length up to
    max_len with w . w^-1 = 1.
    """
    strands = _dimension(strands, "strand count", least=2)
    return _verify_artin(enumerate_diagrams(strands), max_len, seed)


def _verify_artin(basis: DiagramBasis, max_len: int = 6, seed: int = 0) -> RelationReport:
    """``verify_artin`` over a basis the caller built, of dimension at
    least 2; the CLI builds it under its own ceiling."""
    from .representation import RelationReport

    max_len = _integer(max_len, "max_len")
    try:
        rng = random.Random(seed)
    except TypeError:
        raise ValueError(
            f"seed must be an integer, float, str, bytes or None, got {seed!r}"
        ) from None
    n = basis.dimension
    entries: list[tuple[str, bool]] = []

    def word(*letters: int) -> BraidWord:
        return BraidWord(n, letters)

    def both_equal(w1: BraidWord, w2: BraidWord) -> bool:
        return braid_image(w1) == braid_image(w2) and (
            _image_columns(w1, basis) == _image_columns(w2, basis)
        )

    for j in range(1, n - 1):
        entries.append(
            (
                f"sigma_{j}*sigma_{j + 1}*sigma_{j} = sigma_{j + 1}*sigma_{j}*sigma_{j + 1}",
                both_equal(word(j, j + 1, j), word(j + 1, j, j + 1)),
            )
        )
    for j in range(1, n):
        for k in range(j + 2, n):
            entries.append(
                (
                    f"sigma_{j}*sigma_{k} = sigma_{k}*sigma_{j}",
                    both_equal(word(j, k), word(k, j)),
                )
            )
    identity = BraidWord.identity(n)
    for j in range(1, n):
        entries.append(
            (f"sigma_{j}*sigma_{j}^-1 = 1", both_equal(word(j, -j), identity))
        )
    identity_element = braid_image(identity)
    for length in range(2, max_len + 1):
        letters = tuple(
            rng.choice([s * i for i in range(1, n) for s in (1, -1)])
            for _ in range(length)
        )
        w = BraidWord(n, letters)
        ok = braid_image(w * w.inverse()) == identity_element
        entries.append((f"random word length {length}: w*w^-1 = 1", ok))
    return RelationReport(
        f"Artin relations in the bracket image, {n} strands", tuple(entries)
    )
