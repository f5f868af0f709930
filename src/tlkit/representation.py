"""Generators of TL_N(d), ideal partition of the basis and the matrix
representation of left multiplication.

Sidedness: the product U.D stacks the generator ON TOP of the diagram
(``compose(D, U)``), the operator order in which the right factor acts
first.  Under this convention the bottom-to-bottom pairs of D survive
into U.D.  The ideal blocks are the components of the generator action:
D and U_k.D share a block for every basis diagram D and generator U_k,
which partitions the identity-free basis into left ideals (8 + 5
diagrams for dimension 4).

Basis order for matrices: with the identity excluded, the ideal blocks
are sorted by their canonically smallest member and each block is sorted
canonically inside ("ideal-refined order"); generator matrices are then
block diagonal.  With the identity included, the basis's own order is
used, canonical for ``enumerate_diagrams``.

Storage: U_k . D_i = d^m . D_j for every basis diagram, so every column
of the matrix of U_k holds a single monomial with coefficient 1.  A
``GeneratorMatrix`` therefore stores the action as a map, two tuples
indexed by column: ``targets[i] = j`` and ``exponents[i] = m``, with the
generator index and the basis order:
``GeneratorMatrix(generator_index, basis_order, targets, exponents)``.
Whether the identity is in the order, ``include_identity``, is read off
the order.  Entry (j, i) of the matrix is d^m; ``matrix`` is the ``PolyMatrix``
of these sparse columns, built on first use.  Products of generators are
compositions of maps, (U.V) sends column i to row tU[tV[i]] with exponent
eV[i] + eU[tV[i]], so the relation check compares tuples and multiplies
no matrices.

The relation checks, the ideal blocks and the representation order are
kernels in ``tlkit._relations``, which ``tlkit verify --relations tl``
and ``tlkit repr`` (run by ``tlkit._csv``) run without this module; the
functions here check their arguments and wrap the kernels' results in
the library's values.

The action is each generator's local rule, the link-state action of
arXiv:1204.4505 (``_backend._apply_generator``): U_k.D changes only D's
top nodes a = N+k and b = N+k+1, into d.D if D pairs them and otherwise
into the diagram pairing (a, b) and (D(a), D(b)).  Each call builds the
maps of the generators it returns in one ``_backend.generator_maps``
call on the partner tuples of the ``DiagramBasis`` in the
representation order, the order the maps are read in, and nothing
keeps them: the rule is applied once per top link state, and
every other column is read off by relabelling (``_backend.link_grid``).
The bracket matrix image reads the same grid and builds no map
(``braids.braid_image_matrix``).  The ideal blocks and the order read no
map: ``_relations.ideal_blocks`` finds them from the basis's partner
tuples alone, by their bottom link states.  Generator diagrams, ideal
partitions and generator maps the library made are held through
``_Value._trusted``, the held route of every value class, with no
second check.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from typing import TYPE_CHECKING, Sequence

from ._backend import Map, _dimension, _integer, generator_maps, identity_pairing
from ._relations import (
    checked_generator,
    diagram_report,
    generator_pairing,
    ideal_blocks,
    map_report,
    report_lines,
    representation_order,
)
from ._values import _integers, _pairs, _require, _sequence, _Value
from .composition import compose
from .diagrams import PlanarDiagram, ScaledDiagram
from .enumeration import DiagramBasis

if TYPE_CHECKING:
    from .matrices import PolyMatrix

# ``laurent`` and ``matrices`` are imported where they are used, so that
# the library's relation checks load neither.


class Generator(_Value):
    """U_k: a cup joining bottom nodes k, k+1, the matching top cap, and
    straight strands elsewhere.  ``diagram`` must be that diagram,
    ``generator_diagram(N, index)`` for its dimension N."""

    __slots__ = _fields = ("index", "diagram")
    index: int
    diagram: PlanarDiagram

    def __init__(self, index: int, diagram: PlanarDiagram) -> None:
        index = _integer(index, "generator index")
        n = _require(diagram, PlanarDiagram, "a generator needs a PlanarDiagram").dimension
        if diagram.pairing != generator_pairing(n, checked_generator(n, index)):
            raise ValueError(f"expected the diagram of U_{index}, got {diagram!r}")
        self._set(index, diagram)


def generator_diagram(dimension: int, k: int) -> PlanarDiagram:
    n = _dimension(dimension)
    return PlanarDiagram._trusted(n, generator_pairing(n, checked_generator(n, k)))


def generators(dimension: int) -> list[Generator]:
    """The N-1 generators U_1 .. U_{N-1}."""
    dimension = _dimension(dimension, least=2)
    return [
        Generator(k, generator_diagram(dimension, k))
        for k in range(1, dimension)
    ]


def left_multiply(generator: Generator, diagram: PlanarDiagram) -> ScaledDiagram:
    """U_k . D by ``compose``, the reference for ``_apply_generator``."""
    generator = _require(generator, Generator, "left_multiply needs a Generator")
    return compose(diagram, generator.diagram)


class IdealPartition(_Value):
    """Disjoint blocks of basis diagrams, each closed under left
    multiplication by every generator.  ``ideal_partition`` holds the
    blocks it made through ``_Value._trusted``, with no second check."""

    __slots__ = _fields = ("dimension", "blocks")
    dimension: int
    blocks: tuple[tuple[PlanarDiagram, ...], ...]

    def __init__(
        self, dimension: int, blocks: tuple[tuple[PlanarDiagram, ...], ...]
    ) -> None:
        dimension = _dimension(dimension)
        message = (
            "blocks must be a sequence of sequences of diagrams, "
            f"each a diagram of dimension {dimension}"
        )
        blocks = tuple(
            _sequence(block, PlanarDiagram, "dimension", dimension, message)
            for block in _require(blocks, Iterable, message)
        )
        self._set(dimension, blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def block_of(self, diagram: PlanarDiagram) -> int:
        """Position of the block that holds ``diagram``; ValueError for a
        non-diagram and KeyError when no block holds it."""
        _require(diagram, PlanarDiagram, "block_of needs a PlanarDiagram")
        for i, block in enumerate(self.blocks):
            if diagram in block:
                return i
        raise KeyError(diagram)


def ideal_partition(basis: DiagramBasis, include_identity: bool = False) -> IdealPartition:
    """The components of the generator action on the basis: D and U_k.D
    share a block for every diagram D and generator U_k.

    The identity reaches every ideal (U_k.1 = U_k), so including it
    collapses the partition to a single block.  Excluded (the default),
    the blocks of dimensions 2, 3 and 4 have sizes 1, 2 + 2 and 8 + 5;
    for every dimension N >= 5 there is one block of Catalan(N) - 1
    diagrams, so ``representation_basis`` is then the canonical order
    without the identity.  In the bottom link states that
    ``_relations.ideal_blocks`` joins: a state with two or more arcs
    links to a state with one arc fewer, by opening an outermost arc;
    and single arcs (i,i+1) and (j,j+1) with |i - j| >= 2 link through
    the state (i,i+1)(j,j+1), a graph on 1..N-1 that is connected from
    N = 5 on.
    """
    basis = _require(basis, DiagramBasis, "ideal_partition needs a DiagramBasis")
    _require(include_identity, bool, "include_identity must be a bool")
    blocks = ideal_blocks([d.pairing for d in basis], include_identity)
    return IdealPartition._trusted(
        basis.dimension, tuple(tuple(basis[i] for i in block) for block in blocks)
    )


def representation_basis(
    basis: DiagramBasis, include_identity: bool = False
) -> tuple[PlanarDiagram, ...]:
    """The documented basis order for generator matrices (see module
    docstring)."""
    basis = _require(basis, DiagramBasis, "representation_basis needs a DiagramBasis")
    _require(include_identity, bool, "include_identity must be a bool")
    return tuple(basis[i] for i in representation_order([d.pairing for d in basis], include_identity))


class GeneratorMatrix(_Value):
    """Left multiplication by one generator over the ordered diagram basis,
    as a column-monomial map: column i holds d^exponents[i] in row
    targets[i] and zeros elsewhere.

    The basis order holds diagrams of one dimension N and the generator
    index lies in 1..N-1; ``include_identity`` is read off the order.
    The held route ``_Value._trusted`` skips these checks and is only for
    maps the library computed itself (``_generator_maps``)."""

    _fields = ("generator_index", "basis_order", "targets", "exponents")
    # ``include_identity`` and ``matrix`` are cached in the instance
    # ``__dict__``.
    __slots__ = (*_fields, "__dict__")
    generator_index: int
    basis_order: tuple[PlanarDiagram, ...]
    targets: tuple[int, ...]
    exponents: tuple[int, ...]

    def __init__(
        self,
        generator_index: int,
        basis_order: Sequence[PlanarDiagram],
        targets: Sequence[int],
        exponents: Sequence[int],
    ) -> None:
        generator_index = _integer(generator_index, "generator index")
        basis_order = tuple(_require(basis_order, Iterable, "basis order must be a sequence"))
        if not basis_order:
            raise ValueError("basis order must hold at least one diagram")
        first = _require(basis_order[0], PlanarDiagram, "basis order must hold PlanarDiagrams")
        n = first.dimension
        message = f"basis order must hold diagrams of dimension {n}"
        _sequence(basis_order, PlanarDiagram, "dimension", n, message)
        checked_generator(n, generator_index)
        message = "targets and exponents must be sequences of integers"
        targets = _integers(targets, message)
        exponents = _integers(exponents, message)
        size = len(basis_order)
        if len(targets) != size or len(exponents) != size:
            raise ValueError(
                f"targets ({len(targets)}), exponents ({len(exponents)}) "
                f"and basis order ({size}) must have one entry per column"
            )
        if not (0 <= min(targets) and max(targets) < size):
            raise ValueError(f"every target must lie in 0..{size - 1}")
        if min(exponents) < 0:
            raise ValueError("loop exponents must be non-negative")
        self._set(generator_index, basis_order, targets, exponents)

    @property
    def size(self) -> int:
        return len(self.basis_order)

    @functools.cached_property
    def include_identity(self) -> bool:
        """Whether the identity diagram is in the basis order."""
        identity = identity_pairing(self.basis_order[0].dimension)
        return any(d.pairing == identity for d in self.basis_order)

    @functools.cached_property
    def matrix(self) -> PolyMatrix:
        """The matrix over LaurentPoly(d), stored as sparse columns: column
        i holds d^exponents[i] in row targets[i], one shared monomial per
        distinct exponent.  Equality, hashing, ``repr``, ``copy`` and
        pickling read the sparse columns; only its ``rows`` and ``column``
        build dense Catalan(N)-sized rows."""
        from .laurent import LaurentPoly
        from .matrices import PolyMatrix

        d = {m: LaurentPoly.monomial("d", m) for m in set(self.exponents)}  # d[m] is d^m
        return PolyMatrix._trusted("d", tuple({j: d[m]} for j, m in zip(self.targets, self.exponents)))


def _generator_maps(
    basis: DiagramBasis, indices: Sequence[int], include_identity: bool
) -> list[GeneratorMatrix]:
    """The maps of U_k for k in ``indices``, built on the basis in the
    representation order."""
    basis_order = representation_basis(basis, include_identity)
    maps = generator_maps([d.pairing for d in basis_order], indices)
    return [
        GeneratorMatrix._trusted(k, basis_order, targets, exponents)
        for k, (targets, exponents) in zip(indices, maps)
    ]


def generator_matrix(
    k: int, basis: DiagramBasis, include_identity: bool = False
) -> GeneratorMatrix:
    """The map of U_k: column i goes to row j with exponent m, where
    U_k . D_i = d^m . D_j."""
    basis = _require(basis, DiagramBasis, "generator_matrix needs a DiagramBasis")
    k = checked_generator(basis.dimension, k)
    return _generator_maps(basis, (k,), include_identity)[0]


def generator_matrices(
    basis: DiagramBasis, include_identity: bool = False
) -> list[GeneratorMatrix]:
    """The maps of U_1 .. U_{N-1} over one basis order, computed once."""
    basis = _require(basis, DiagramBasis, "generator_matrices needs a DiagramBasis")
    return _generator_maps(basis, range(1, basis.dimension), include_identity)


class RelationReport(_Value):
    """Named pass/fail results of a family of relation checks.

    ``witnesses`` pairs the name of a failed relation with a description
    of where it fails; ``lines`` prints it under the FAIL line.  A witness
    for a name that is not a failed entry is rejected."""

    __slots__ = _fields = ("title", "entries", "witnesses")
    title: str
    entries: tuple[tuple[str, bool], ...]
    witnesses: tuple[tuple[str, str], ...]

    def __init__(
        self,
        title: str,
        entries: tuple[tuple[str, bool], ...],
        witnesses: tuple[tuple[str, str], ...] = (),
    ) -> None:
        _require(title, str, "title must be text")
        entries = _pairs(entries, str, bool, "entries must be (text, bool) pairs")
        witnesses = _pairs(witnesses, str, str, "witnesses must be (text, str) pairs")
        failed = {name for name, ok in entries if not ok}
        for name, _ in witnesses:
            if name not in failed:
                raise ValueError(f"witness {name!r} names no failed entry")
        self._set(title, entries, witnesses)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.entries)

    def lines(self) -> list[str]:
        return report_lines(self.title, self.entries, self.witnesses)


def verify_tl_relations(matrices: Sequence[GeneratorMatrix]) -> RelationReport:
    """Check the relations of ``_relations.tl_relations`` on the generator
    maps with ``_relations.map_report``: U_i U_{i+1} U_i before
    U_i U_{i-1} U_i, both sides composed as maps and compared, and a
    failed relation named by the first basis column (0-based) where its
    sides differ."""
    message = "verify_tl_relations needs a sequence of GeneratorMatrix"
    matrices = [
        _require(m, GeneratorMatrix, message) for m in _require(matrices, Iterable, message)
    ]
    if not matrices:
        raise ValueError("no matrices given")
    # Maps built together share one basis_order object; compare the
    # tuples, once each, only for maps that do not.
    order = matrices[0].basis_order
    if any(m.basis_order is not order and m.basis_order != order for m in matrices):
        raise ValueError("matrices must share one basis and ordering")
    maps: dict[int, Map] = {}
    for m in matrices:
        if m.generator_index in maps:
            raise ValueError(f"generator index {m.generator_index} is repeated")
        maps[m.generator_index] = (m.targets, m.exponents)
    return RelationReport(*map_report(maps))


def verify_tl_relations_diagrams(dimension: int) -> RelationReport:
    """The relations of ``_relations.tl_relations`` checked directly on
    the generator diagrams by stacking, independently of any matrix
    (``_relations.diagram_report``); U_i U_{i+1} U_i and U_i U_{i-1} U_i
    are checked for each i in turn.  A failed relation gets a witness
    naming both of its sides as diagram lines."""
    return RelationReport(*diagram_report(_dimension(dimension, least=2)))

