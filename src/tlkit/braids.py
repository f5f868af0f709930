"""Braid words and their image in TL_N under the bracket substitution.

A braid word is a sequence of signed Artin generator letters; the text
form is comma-separated signed indices, e.g. ``1,-2,3,-2`` for
sigma_1 sigma_2^-1 sigma_3 sigma_2^-1, each read by the integer rule of
tlkit's text, ``_backend._is_integer_text``.

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
rule (``_backend._apply_generator``), on partner tuples.  A letter only
shifts, negates and adds coefficients, and after L letters every exponent
has the parity of L, so ``_image_rows`` carries each coefficient as a
row of integers at stride 2, (lo, [c_0, c_1, ...]) for the sum of
c_i.A^(lo + 2i), with no ``LaurentPoly`` arithmetic.  A letter of sign s
shifts every row by s and adds it, shifted by -s, at U's image, after
one d-step (negate, shift by 2 either way, add) when U closes a loop.
``_image_terms`` is the sorted list of (pairing, coefficient) terms, one
``LaurentPoly`` made per term, which ``braid_image`` holds in a
``TLElement`` through ``_trusted``, with no second check, and
``tlkit bracket`` prints through ``_backend.diagram_line``.  So the
element route loads ``_backend``, ``_values``, ``laurent`` and this
module alone; ``diagrams`` and ``elements`` are imported where they are
used, as are ``matrices`` and ``representation``, and ``enumeration`` is
not imported at all.

``_image_rows`` is the only code that applies braid letters.  The
matrix image is left multiplication by the element image over the
identity-included basis: column j is w.D_j = (w.1).D_j, and the
identity's column is w.1 itself.  ``_image_columns`` composes the
element image, in the same rows, onto one representative diagram per
top link state and reads every other column off it by relabelling its
bottom state, both through ``_backend.link_grid``, the grid that
``_backend.generator_maps`` reads too (see its notes), which also
locates each composed term's row.
It runs on the walk's partner tuples, ``_backend.enumerate_pairings``,
which ``braid_image_matrix`` and ``tlkit bracket --matrix`` both read:
neither builds a ``DiagramBasis``, a generator map or a pairing index.
``_verify_artin`` lists the Artin relations as generators, as
``_relations.tl_relations`` lists the TL ones, and passes them through
``_relations._checked``, comparing element images alone.  That decides
the matrix images too: two words have equal matrices exactly when they
have equal element images (``tests/test_braids.py`` holds the two
equal).  So the check builds no basis and loads no diagram module.
"""

from __future__ import annotations

import functools
import random
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ._backend import (
    _SPACES,
    _apply_generator,
    _checked_dimension,
    _dimension,
    _first_difference,
    _integer,
    _is_integer_text,
    _walk_dimension,
    compose_pairings,
    diagram_line,
    enumerate_pairings,
    identity_pairing,
    link_grid,
)
from ._values import _integers, _require, _Value
from .laurent import LaurentPoly

if TYPE_CHECKING:
    from argparse import Namespace

    from ._relations import Report
    from .elements import TLElement
    from .matrices import PolyMatrix
    from .representation import RelationReport


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
        self._set(strands, letters)

    @classmethod
    def identity(cls, strands: int) -> BraidWord:
        return cls(strands, ())

    @classmethod
    def from_text(cls, strands: int, text: str) -> BraidWord:
        if not _require(text, str, "braid word must be text").strip(_SPACES):
            return cls.identity(strands)
        tokens = text.split(",")
        if not all(map(_is_integer_text, tokens)):
            raise ValueError(f"braid word {text!r} must be comma-separated signed integers")
        return cls(strands, tuple(map(int, tokens)))

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
    from .diagrams import PlanarDiagram
    from .elements import TLElement

    n = _require(word, BraidWord, "braid_image needs a BraidWord").strands
    trusted = PlanarDiagram._trusted
    return TLElement._trusted(n, "A", tuple((trusted(n, p), c) for p, c in _image_terms(word)))


#: A coefficient row (lo, [c_0, c_1, ...]): the Laurent polynomial
#: sum of c_i.A^(lo + 2i), with c_0 and the last c_i nonzero.
Row = tuple[int, list[int]]


def _row_times_d(lo: int, cs: list[int], m: int) -> Row:
    """d^m times the row (lo, cs), one d-step per factor d = -A^2 - A^-2:
    negate, shift by 2 either way and add, so c_j becomes -c_j - c_(j-2)
    from lo - 2 up."""
    for _ in range(m):
        lo, cs = lo - 2, [-(a + b) for a, b in zip(cs + [0, 0], [0, 0] + cs)]
    return lo, cs


def _row_sum(rows: list[Row]) -> Row | None:
    """The sum of nonzero rows whose exponents share one parity, trimmed
    to its first and last nonzero coefficient, or None if it is zero.
    No row is changed in place, so the sum of one row is that row."""
    if len(rows) == 1:
        return rows[0]
    lo = min(low for low, _ in rows)
    total = [0] * max((low - lo) // 2 + len(cs) for low, cs in rows)
    for low, cs in rows:
        for i, c in enumerate(cs, (low - lo) // 2):
            total[i] += c
    while total and not total[-1]:
        total.pop()
    start = next((i for i, c in enumerate(total) if c), 0)
    return (lo + 2 * start, total[start:]) if total else None


def _row_poly(lo: int, cs: Sequence[int]) -> LaurentPoly:
    """The row (lo, cs) as a ``LaurentPoly`` in A."""
    return LaurentPoly._trusted("A", tuple((lo + 2 * i, c) for i, c in enumerate(cs) if c))


def _image_rows(word: BraidWord) -> list[tuple[tuple[int, ...], Row]]:
    """The bracket image of a word as its nonzero terms (partner tuple,
    coefficient row), sorted by partner tuple: the canonical diagram order.

    Each letter moves every exponent by an odd amount, so after L letters
    every exponent has the parity of L, and a coefficient is a row at
    stride 2.  A letter of sign s shifts each row by s, and adds it,
    shifted by -s and times d if U closes a loop, at U's image."""
    n = word.strands
    terms: dict[tuple[int, ...], Row] = {identity_pairing(n): (0, [1])}
    for letter in reversed(word.letters):
        # the letter is a.1 + b.U with a = A^shift and b = A^-shift
        shift = 1 if letter > 0 else -1
        summands = {pairing: [(lo + shift, cs)] for pairing, (lo, cs) in terms.items()}
        for pairing, (lo, cs) in terms.items():
            image, loops = _apply_generator(pairing, abs(letter), n)
            summands.setdefault(image, []).append(_row_times_d(lo - shift, cs, loops))
        terms = {p: row for p, rows in summands.items() if (row := _row_sum(rows))}
    return sorted(terms.items())


def _image_terms(word: BraidWord) -> list[tuple[tuple[int, ...], LaurentPoly]]:
    """``_image_rows`` with one ``LaurentPoly`` per coefficient."""
    return [(pairing, _row_poly(*row)) for pairing, row in _image_rows(word)]


def _image_columns(
    word: BraidWord, pairings: Sequence[tuple[int, ...]], entry: Callable[[LaurentPoly], object]
) -> Iterator[dict[int, object]]:
    """The bracket image over ``pairings``, the identity-included basis of
    the word's strand count, as sparse columns made one at a time in
    basis order: ``column[j]`` is ``entry`` of the nonzero entry in row
    j.  Each distinct entry is made and converted once, keyed by its row.

    Column j is w.D_j = (w.1).D_j, the sum of c_E.d^m.P over the terms
    (E, c_E) of ``_image_rows`` with E.D_j = d^m.P, and stacking E moves
    only D_j's top link state.  So one column per top state is composed,
    on the pairing ``_backend.link_grid`` picks for it, and every other
    column is read off it by the grid's relabelling of the row bottoms.
    The coefficients stay rows: c_E.d^m is ``_row_times_d`` of c_E's
    row, and an entry is the ``_row_sum`` of the rows that land on it."""
    top, bottom, first, relabelled, locate = link_grid(pairings)
    # the rows of c_E.d^m, for each term and loop count m
    scaled = [(e, [_row_times_d(*c, m) for m in range(word.strands // 2 + 1)]) for e, c in _image_rows(word)]
    convert = functools.cache(lambda lo, cs: entry(_row_poly(lo, cs)))
    # for each top state: row bottom state -> {row top state: entry}
    composed: list[dict[int, dict[int, object]]] = []
    for below in first:
        sums: dict[tuple[int, int], list[Row]] = {}  # row's (top, bottom) -> its summands
        for e, powers in scaled:
            product, m = compose_pairings(below, e)
            sums.setdefault(locate(product), []).append(powers[m])
        rows: dict[int, dict[int, object]] = {}
        for (row_top, row_bottom), summands in sums.items():
            if total := _row_sum(summands):
                rows.setdefault(row_bottom, {})[row_top] = convert(total[0], tuple(total[1]))
        composed.append(rows)
    for t, b in zip(top, bottom):
        column: dict[int, object] = {}
        for r, cells in composed[t].items():
            column.update(zip(map(relabelled[b](r).__getitem__, cells), cells.values()))
        yield column


def braid_image_matrix(word: BraidWord) -> PolyMatrix:
    """The bracket image as a matrix over the identity-included canonical
    basis (Catalan(N) x Catalan(N), entries in LaurentPoly(A)), stored as
    the sparse columns ``_image_columns`` makes.  Equality, hashing,
    ``repr``, ``copy`` and pickling read those columns; only its ``rows``
    and ``column`` build dense Catalan(N)-sized rows.  A word on more
    strands than ``_backend.DEFAULT_MAX_DIMENSION`` is refused."""
    from .matrices import PolyMatrix

    word = _require(word, BraidWord, "braid_image_matrix needs a BraidWord")
    pairings = enumerate_pairings(_checked_dimension(word.strands, None, "strand count", 1, None))
    return PolyMatrix._trusted("A", tuple(_image_columns(word, pairings, lambda poly: poly)))


def verify_artin(strands: int, max_len: int = 6, seed: int = 0) -> RelationReport:
    """Check the braid relations in the bracket image.

    For every applicable pair: the braided relation
    sigma_j sigma_{j+1} sigma_j = sigma_{j+1} sigma_j sigma_{j+1} and the
    far commutation sigma_j sigma_k = sigma_k sigma_j (|j-k| >= 2), plus
    invertibility sigma_i sigma_i^-1 = 1 and seeded random words w of
    length up to max_len with w . w^-1 = 1, each decided on the element
    images, which decide the matrix images too (see the module notes).
    ``strands`` is at least 2 and at most ``_backend.DEFAULT_MAX_DIMENSION``.
    """
    from .representation import RelationReport

    n = _checked_dimension(strands, None, "strand count", 2, None)
    return RelationReport(*_verify_artin(n, max_len, seed))


def _verify_artin(n: int, max_len: int = 6, seed: int = 0) -> Report:
    """``verify_artin`` as (title, entries, witnesses), on a strand count
    of at least 2 that the caller checked under its ceiling."""
    from ._relations import _checked

    max_len = _integer(max_len, "max_len")
    try:
        rng = random.Random(seed)
    except TypeError:
        raise ValueError(
            f"seed must be an integer, float, str, bytes or None, got {seed!r}"
        ) from None
    relations = chain(_artin_relations(n), _seeded_inverses(n, max_len, rng))
    title = f"Artin relations in the bracket image, {n} strands"
    return title, *_checked(relations, _terms_difference)


def _artin_relations(n: int) -> Iterator[tuple[str, BraidWord, BraidWord]]:
    """The braided relations, the far commutations and the inverses on
    ``n`` strands, one at a time as (name, left, right)."""

    def word(*letters: int) -> BraidWord:
        return BraidWord(n, letters)

    for j in range(1, n - 1):
        yield (
            f"sigma_{j}*sigma_{j + 1}*sigma_{j} = sigma_{j + 1}*sigma_{j}*sigma_{j + 1}",
            word(j, j + 1, j),
            word(j + 1, j, j + 1),
        )
    for j in range(1, n):
        for k in range(j + 2, n):
            yield f"sigma_{j}*sigma_{k} = sigma_{k}*sigma_{j}", word(j, k), word(k, j)
    for j in range(1, n):
        yield f"sigma_{j}*sigma_{j}^-1 = 1", word(j, -j), word()


def _seeded_inverses(
    n: int, max_len: int, rng: random.Random
) -> Iterator[tuple[str, BraidWord, BraidWord]]:
    """w*w^-1 = 1 for a word w of each length 2..max_len on ``n`` strands,
    its letters drawn from ``rng``, one at a time as (name, left, right)."""
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    for length in range(2, max_len + 1):
        w = BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))
        yield f"random word length {length}: w*w^-1 = 1", w * w.inverse(), BraidWord.identity(n)


def _terms_difference(w1: BraidWord, w2: BraidWord) -> str | None:
    """None if two words have equal element images (``_image_terms``);
    else their first differing term."""
    actual, expected = _image_terms(w1), _image_terms(w2)
    if actual == expected:
        return None
    left, right = dict(actual), dict(expected)
    pairing = _first_difference(left, right)
    zero = LaurentPoly.zero("A")
    return (
        f"first differing term {diagram_line(pairing, 0)}: "
        f"expected {right.get(pairing, zero)}, got {left.get(pairing, zero)}"
    )


def _run_bracket(args: Namespace) -> tuple[bool, str]:
    """``tlkit bracket`` on arguments ``tlkit.cli.run`` has checked: the
    image as terms, or with ``--matrix`` as a CSV over the basis."""
    word = BraidWord.from_text(args.strands, args.word)
    header = f"# bracket image of {word.to_text() or '(empty word)'} on {args.strands} strands"
    if args.matrix:
        from ._csv import sparse_csv

        # The matrix is over the basis, which the walk lists.
        pairings = enumerate_pairings(_walk_dimension(args.strands, "strand count"))
        size = len(pairings)
        header += f", {size}x{size}, entries in A"
        return True, sparse_csv(size, [(header, _image_columns(word, pairings, str))])
    # The element form runs on partner tuples: no diagram module is loaded.
    lines = [header + ", d = -A^2-A^-2"]
    for pairing, coeff in _image_terms(word):
        lines.append(f"{coeff}\t{diagram_line(pairing, 0)}")
    return True, "\n".join(lines) + "\n"
