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

Products follow operator order (the right factor acts first), matching
the matrix representation: the image of a word is the ordered product of
its letter images, and the matrix image is the same product over the
matrices of left multiplication on the identity-included basis.

The matrix image is computed, compared and printed as sparse columns: one
dict per basis column, from row index to a nonzero LaurentPoly(A).  U_i
sends column c to row t_c with loop exponent m_c, so right multiplication
by a letter a.1 + b.U_i replaces column c by a.col_c + b.d^{m_c}.col_{t_c},
with d = -A^2 - A^-2; an entry that cancels to zero is dropped, so equal
images have equal columns.  ``braid_image_matrix`` is the dense matrix
view of those columns.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass

from .elements import TLElement, multiply
from .enumeration import enumerate_diagrams, identity_diagram
from .laurent import LaurentPoly
from .matrices import PolyMatrix
from .representation import RelationReport, generator_diagram, generator_matrix


def kauffman_loop_value() -> LaurentPoly:
    """d = -A^2 - A^-2."""
    return LaurentPoly.from_dict("A", {2: -1, -2: -1})


@dataclass(frozen=True)
class BraidWord:
    """Signed generator letters on a fixed number of strands; the empty
    word is the braid identity.  Powers are expanded to unit letters."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            strands = operator.index(self.strands)
            letters = tuple(operator.index(x) for x in self.letters)
        except TypeError:
            raise ValueError(
                "strand count and letters must be integers, given as a sequence"
            ) from None
        if strands < 1:
            raise ValueError("strand count must be at least 1")
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
        if not text.strip():
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
        if self.strands != other.strands:
            raise ValueError("strand count mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))


@functools.cache
def _letter_image(strands: int, letter: int) -> TLElement:
    a = LaurentPoly.monomial("A", 1)
    a_inv = LaurentPoly.monomial("A", -1)
    ident = identity_diagram(strands)
    cup = generator_diagram(strands, abs(letter))
    straight, crossed = (a, a_inv) if letter > 0 else (a_inv, a)
    return TLElement.from_terms(
        strands, "A", [(ident, straight), (cup, crossed)]
    )


def multiply_kauffman(a: TLElement, b: TLElement) -> TLElement:
    """TLElement product with loops worth -A^2 - A^-2."""
    return multiply(a, b, kauffman_loop_value())


def braid_image(word: BraidWord) -> TLElement:
    """The bracket image of the word, expanded and collected over the
    diagram basis with LaurentPoly(A) coefficients."""
    acc = TLElement.from_diagram(
        identity_diagram(word.strands), LaurentPoly.one("A")
    )
    for letter in word.letters:
        acc = multiply_kauffman(acc, _letter_image(word.strands, letter))
    return acc


@functools.cache
def _bracket_action(strands: int, index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(targets, exponents) of U_index on the identity-included basis."""
    gm = generator_matrix(index, enumerate_diagrams(strands), include_identity=True)
    return gm.targets, gm.exponents


def _image_columns(word: BraidWord) -> list[dict[int, LaurentPoly]]:
    """The bracket image over the identity-included canonical basis as
    sparse columns: ``columns[i][j]`` is the nonzero entry in row j of
    column i."""
    one = LaurentPoly.one("A")
    columns = [{i: one} for i in range(len(enumerate_diagrams(word.strands)))]
    loop = kauffman_loop_value()
    for letter in word.letters:
        targets, exponents = _bracket_action(word.strands, abs(letter))
        # the letter is a.1 + b.U with a = A^shift and b = A^-shift
        shift = 1 if letter > 0 else -1
        b = LaurentPoly.monomial("A", -shift)
        factors = [b * loop**m for m in range(max(exponents) + 1)]
        updated = []
        for own, target, m in zip(columns, targets, exponents):
            column = {row: p.shifted(shift) for row, p in own.items()}
            for row, p in columns[target].items():
                # factors[0] is the monomial A^-shift: a shift, no product
                q = p.shifted(-shift) if m == 0 else p * factors[m]
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
    return PolyMatrix.from_columns("A", _image_columns(word))


def verify_artin(strands: int, max_len: int = 6, seed: int = 0) -> RelationReport:
    """Check the braid relations in both images.

    For every applicable pair: the braided relation
    sigma_j sigma_{j+1} sigma_j = sigma_{j+1} sigma_j sigma_{j+1} and the
    far commutation sigma_j sigma_k = sigma_k sigma_j (|j-k| >= 2), in
    TLElement form and in matrix form, plus invertibility
    sigma_i sigma_i^-1 = 1 and seeded random words w of length up to
    max_len with w . w^-1 = 1.
    """
    if strands < 2:
        raise ValueError("braid relations need at least 2 strands")
    n = strands
    entries: list[tuple[str, bool]] = []

    def word(*letters: int) -> BraidWord:
        return BraidWord(n, letters)

    def both_equal(w1: BraidWord, w2: BraidWord) -> bool:
        return braid_image(w1) == braid_image(w2) and (
            _image_columns(w1) == _image_columns(w2)
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
    rng = random.Random(seed)
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
