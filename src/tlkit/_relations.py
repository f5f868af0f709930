"""The Temperley-Lieb relation kernels, on partner rows and positions.

The defining relations are listed once, in ``tl_relations``, over any
generator values with a product and a scaling by d.  Two checks pass
their own values:

* ``map_report`` checks the generator maps: U_k . D_i = d^m . D_j is
  column i of a map sending it to row j with exponent m, and the product
  of two maps is their composition (``compose_maps``), so both sides of
  a relation are compared as tuples and no matrix is multiplied.  A
  failed relation names the first basis column where its sides differ
  (``map_witness``).
* ``diagram_report`` checks the generator diagrams (``generator_pairing``)
  as (partner tuple, loop count) pairs, multiplied by
  ``_backend.compose_pairings`` with the loop counts carried.  A failed
  relation names both of its sides as diagram lines.

``_checked`` is the one loop that turns relations into a report, for
these two checks and for ``braids._verify_artin``, which compares the
element images of braid words: each check passes a
``difference(left, right)`` that is None when the sides agree and the
witness text when they do not, and every witness finds where the sides
differ with ``_backend._first_difference``.

``ordered_maps`` builds the maps ``verify`` and ``repr`` read on the
walk's basis in the representation order, in one
``_backend.generator_maps`` call, which reads that order and the
link-state grid off one split of each row and numbers the grid's
positions in it, so no map is moved into another order.  This module
reads no link state itself: the ideal blocks and the order are
``_backend.ideal_blocks`` and ``_backend.representation_order``.
``checked_generator`` is the one rule for a generator index.

The module imports nothing from the package but ``_backend``, so
``verify_tl`` runs ``tlkit verify --relations tl`` on the kernel modules
alone, on the ``bytes`` rows of ``_backend.enumerate_pairings``.  ``_run_verify``,
the runner of ``tlkit verify``, imports ``braids`` only for the Artin
relations, which walk no basis, so ``--relations all`` walks the basis
once, for the TL relations; it prints every report and the overall
result in one place.  ``representation`` wraps the same kernels for its
``GeneratorMatrix`` and ``RelationReport`` values.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from . import _backend
from ._backend import Map, _in_range, diagram_line, identity_pairing

if TYPE_CHECKING:
    from argparse import Namespace

T = TypeVar("T")

#: A relation check: its title, (name, passed) for each relation in order,
#: and (name, witness) for each failed one.
Report = tuple[str, tuple[tuple[str, bool], ...], tuple[tuple[str, str], ...]]

#: d^m times a diagram, as (partner tuple, m).
Scaled = tuple[tuple[int, ...], int]


def checked_generator(dimension: int, k: int) -> int:
    """``k`` as an int, if U_k is a generator of dimension N: 1 <= k <= N-1."""
    return _in_range(k, "generator index", 1, dimension - 1)


def generator_pairing(dimension: int, k: int) -> tuple[int, ...]:
    """The partner tuple of U_k, 1 <= k <= N-1: a cup joining bottom nodes
    k, k+1, the matching cap on top and straight strands elsewhere."""
    n = dimension
    pairing = list(identity_pairing(n))
    pairing[k - 1] = k + 1
    pairing[k] = k
    pairing[n + k - 1] = n + k + 1
    pairing[n + k] = n + k
    return tuple(pairing)


def ordered_maps(n: int, indices: Iterable[int], identity: bool) -> tuple[int, list[Map]]:
    """The size of the walk's basis of dimension ``n``, with the identity
    if ``identity``, and the maps of U_k for k in ``indices`` on that
    basis in the representation order: the basis of ``tlkit repr`` and
    ``tlkit verify``.  ``_backend.generator_maps`` puts the walk's
    ``bytes`` rows in that order before it builds the maps, so they are
    built where they are read, no order list is held while they build,
    and no tuple is made: every image it locates is a ``bytes`` row too."""
    rows, maps = _backend.generator_maps(_backend.enumerate_pairings(n), indices, identity)
    return len(rows), maps


def _gather(indices: Sequence[int]) -> Callable[[Sequence[T]], tuple[T, ...]]:
    """A function that picks the items at ``indices`` out of a sequence,
    as a tuple: ``operator.itemgetter``, but for fewer than two indices,
    where itemgetter returns the item itself or takes none."""
    if len(indices) < 2:
        return lambda items: tuple(items[i] for i in indices)
    return operator.itemgetter(*indices)


def tl_relations(
    gens: Mapping[int, T],
    braided: Iterable[tuple[int, int]],
    mul: Callable[[T, T], T],
    times_d: Callable[[T], T],
) -> Iterator[tuple[str, T, T]]:
    """The defining relations of TL_N(d) on the generator values ``gens``
    (index -> value), one at a time as (name, left, right):

        U_i^2       = d U_i     for each i
        U_i U_j U_i = U_i       for each (i, j) in ``braided`` with U_j given
        U_i U_j     = U_j U_i   for |i - j| >= 2

    ``mul(u, v)`` is the product U.V (V acts first) and ``times_d(u)`` is
    d.U.  ``braided`` lists the pairs with |i - j| = 1 in the order the
    caller prints them.  Each side is built when its relation is reached.
    """
    indices = sorted(gens)
    for i in indices:
        u = gens[i]
        yield f"U_{i}^2 = d*U_{i}", mul(u, u), times_d(u)
    for i, j in braided:
        if j in gens:
            u = gens[i]
            yield f"U_{i}*U_{j}*U_{i} = U_{i}", mul(u, mul(gens[j], u)), u
    for i in indices:
        for j in indices:
            if j - i >= 2:
                u, v = gens[i], gens[j]
                yield f"U_{i}*U_{j} = U_{j}*U_{i}", mul(u, v), mul(v, u)


def compose_maps(u: Map, v: Map) -> Map:
    """The map of the product U.V (V acts first), gathered by
    ``operator.itemgetter`` in C rather than a Python loop per column."""
    tu, eu = u
    tv, ev = v
    pick = _gather(tv)
    return pick(tu), tuple(map(operator.add, ev, pick(eu)))


def map_witness(actual: Map, expected: Map) -> str | None:
    """None if two maps are equal; else the first column where they
    differ, with both of its entries."""
    if actual == expected:
        return None
    from .laurent import LaurentPoly

    left, right = (dict(enumerate(zip(*m))) for m in (actual, expected))
    i = _backend._first_difference(left, right)

    def entry(row: int, m: int) -> str:
        return f"{LaurentPoly.monomial('d', m)} in row {row}"

    return f"first differing column {i}: expected {entry(*right[i])}, got {entry(*left[i])}"


def _checked(
    relations: Iterable[tuple[str, T, T]], difference: Callable[[T, T], str | None]
) -> tuple[tuple[tuple[str, bool], ...], tuple[tuple[str, str], ...]]:
    """The entries and witnesses of a report, the one loop that makes
    them: a relation passes when ``difference(left, right)`` is None, and
    a failed one is named by the text it returns."""
    entries: list[tuple[str, bool]] = []
    witnesses: list[tuple[str, str]] = []
    for name, left, right in relations:
        witness = difference(left, right)
        del left, right  # free these sides before the next relation is built
        entries.append((name, witness is None))
        if witness is not None:
            witnesses.append((name, witness))
    return tuple(entries), tuple(witnesses)


def map_report(maps: Mapping[int, Map]) -> Report:
    """The relations of ``tl_relations`` on the generator maps (index ->
    map, at least one, all on the same columns), U_i U_{i+1} U_i before
    U_i U_{i-1} U_i.

    Both sides of each relation are composed as maps and compared as
    tuples, which is exact: every column holds one monomial with
    coefficient 1.  A failed relation gets a witness naming the first
    basis column (0-based) where the sides differ.
    """
    braided = [(i, i + step) for step in (1, -1) for i in sorted(maps)]
    relations = tl_relations(
        maps, braided, compose_maps, lambda u: (u[0], tuple(m + 1 for m in u[1]))
    )
    size = len(next(iter(maps.values()))[0])
    title = f"Temperley-Lieb relations, matrix level ({size}x{size})"
    return title, *_checked(relations, map_witness)


def diagram_report(dimension: int) -> Report:
    """The relations of ``tl_relations`` on the generator diagrams of
    ``dimension`` (at least 2), multiplied by stacking with their closed
    loops counted, independently of any map; U_i U_{i+1} U_i and
    U_i U_{i-1} U_i are checked for each i in turn.  A failed relation
    gets a witness naming both of its sides as diagram lines."""
    n = dimension
    gens = {k: (generator_pairing(n, k), 0) for k in range(1, n)}
    braided = [(i, j) for i in sorted(gens) for j in (i + 1, i - 1)]

    def mul(u: Scaled, v: Scaled) -> Scaled:
        # U.V stacks U on top of V; the loops of both factors carry over.
        pairing, loops = _backend.compose_pairings(v[0], u[0])
        return pairing, loops + u[1] + v[1]

    def difference(actual: Scaled, expected: Scaled) -> str | None:
        if actual == expected:
            return None
        return f"expected {diagram_line(*expected)}, got {diagram_line(*actual)}"

    relations = tl_relations(gens, braided, mul, lambda u: (u[0], u[1] + 1))
    return "Temperley-Lieb relations, diagram level", *_checked(relations, difference)


def report_lines(
    title: str,
    entries: Iterable[tuple[str, bool]],
    witnesses: Iterable[tuple[str, str]],
) -> list[str]:
    """A report as text: the title, PASS or FAIL per relation with its
    witness indented under a FAIL, and the overall result."""
    found = dict(witnesses)
    passed = True
    out = [title]
    for name, ok in entries:
        passed = passed and ok
        out.append(f"{name}: {'PASS' if ok else 'FAIL'}")
        if not ok and name in found:
            out.append(f"  {found[name]}")
    out.append(f"overall: {'PASS' if passed else 'FAIL'}")
    return out


def verify_tl(dimension: int) -> list[Report]:
    """The reports of ``tlkit verify --relations tl`` for a checked
    dimension of at least 2: the map report over the identity-free basis
    in the representation order, then the diagram report.

    The basis is the kernel walk's ``bytes`` rows, and each ideal block
    is sorted by row, which is the canonical order, so the
    reports are those of ``representation.verify_tl_relations`` on
    ``generator_matrices`` and of ``verify_tl_relations_diagrams``.
    """
    _, maps = ordered_maps(dimension, range(1, dimension), False)
    return [map_report(dict(enumerate(maps, start=1))), diagram_report(dimension)]


def _run_verify(args: Namespace) -> tuple[bool, str]:
    """``tlkit verify`` on arguments ``tlkit.cli.run`` has checked: the
    reports of the selected relations, each followed by an empty line,
    and whether all of them passed."""
    reports = verify_tl(args.dim) if args.relations in ("tl", "all") else []
    if args.relations in ("artin", "all"):
        from .braids import _verify_artin

        reports.append(_verify_artin(args.dim))
    lines = [line for report in reports for line in (*report_lines(*report), "")]
    return all(ok for _, entries, _ in reports for _, ok in entries), "\n".join(lines)
