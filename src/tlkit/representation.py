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
block diagonal.  With the identity included, the plain canonical order of
the full basis is used.

Storage: U_k . D_i = d^m . D_j for every basis diagram, so every column
of the matrix of U_k holds a single monomial with coefficient 1.  A
``GeneratorMatrix`` therefore stores the action as a map, two tuples
indexed by column: ``targets[i] = j`` and ``exponents[i] = m``.  Entry
(j, i) of the matrix is d^m; ``matrix`` is the dense ``PolyMatrix`` view,
built on first use.  Products of generators are compositions of maps,
(U.V) sends column i to row tU[tV[i]] with exponent eV[i] + eU[tV[i]],
so the relation check compares tuples and multiplies no matrices.

The defining relations are listed once, in ``_tl_relations``, over any
generator values with a product and a scaling by d.  The map check
(``verify_tl_relations``) passes the generator maps and ``_compose_maps``;
the diagram check (``verify_tl_relations_diagrams``) passes the generator
diagrams and ``compose_scaled``.  Each passes the U_i U_j U_i pairs in the
order it prints them.

The action is each generator's local rule, the link-state action of
arXiv:1204.4505 (``_backend._apply_generator``): U_k.D changes only D's
top nodes a = N+k and b = N+k+1, into d.D if D pairs them and otherwise
into the diagram pairing (a, b) and (D(a), D(b)).  ``composition._action``
keeps the map of each generator on the basis, built by
``_backend.generator_map``; the ideal blocks, the order (``_order``) and
every generator matrix read it, as does the bracket matrix image.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import TYPE_CHECKING, Sequence, TypeVar

from ._backend import _dimension, _integer
from .composition import Map, _action, compose, compose_scaled
from .diagrams import PlanarDiagram, ScaledDiagram, _integers, _pairs, _require, _sequence, _Value
from .enumeration import DiagramBasis, identity_diagram

if TYPE_CHECKING:
    from .matrices import PolyMatrix

# ``laurent`` and ``matrices`` are imported where they are used, so that
# checking the relations on maps (``verify --relations tl``) loads neither.

T = TypeVar("T")


class Generator(_Value):
    """U_k: a cup joining bottom nodes k, k+1, the matching top cap, and
    straight strands elsewhere."""

    __slots__ = _fields = ("index", "diagram")
    index: int
    diagram: PlanarDiagram

    def __init__(self, index: int, diagram: PlanarDiagram) -> None:
        index = _integer(index, "generator index")
        _require(diagram, PlanarDiagram, "a generator needs a PlanarDiagram")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "diagram", diagram)


def generator_diagram(dimension: int, k: int) -> PlanarDiagram:
    n = _dimension(dimension)
    k = _integer(k, "generator index")
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} out of range 1..{n - 1}")
    pairing = list(identity_diagram(n).pairing)
    pairing[k - 1] = k + 1
    pairing[k] = k
    pairing[n + k - 1] = n + k + 1
    pairing[n + k] = n + k
    return PlanarDiagram._trusted(n, tuple(pairing))


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
    multiplication by every generator."""

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
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "blocks", blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def block_of(self, diagram: PlanarDiagram) -> int:
        for i, block in enumerate(self.blocks):
            if diagram in block:
                return i
        raise KeyError(diagram)


def _ideal_blocks(basis: DiagramBasis, include_identity: bool) -> list[list[int]]:
    """Basis positions grouped into the components of the generator
    action, each block and the list of blocks in canonical order.  The
    identity and its edges are left out unless it is included."""
    skip = -1 if include_identity else basis.index_of(identity_diagram(basis.dimension))
    parent = list(range(len(basis)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for k in range(1, basis.dimension):
        targets, _ = _action(basis, k)
        for i, j in enumerate(targets):
            if i != skip:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    grouped: dict[int, list[int]] = {}
    for i in range(len(basis)):
        if i != skip:
            grouped.setdefault(find(i), []).append(i)

    def key(i: int) -> tuple[int, ...]:
        return basis[i].pairing

    blocks = [sorted(block, key=key) for block in grouped.values()]
    return sorted(blocks, key=lambda block: key(block[0]))


def ideal_partition(basis: DiagramBasis, include_identity: bool = False) -> IdealPartition:
    """The components of the generator action on the basis: D and U_k.D
    share a block for every diagram D and generator U_k.

    The identity reaches every ideal (U_k.1 = U_k), so including it
    collapses the partition to a single block; excluded (the default),
    dimension 4 splits 8 + 5.
    """
    basis = _require(basis, DiagramBasis, "ideal_partition needs a DiagramBasis")
    _require(include_identity, bool, "include_identity must be a bool")
    blocks = _ideal_blocks(basis, include_identity)
    return IdealPartition(
        basis.dimension, tuple(tuple(basis[i] for i in block) for block in blocks)
    )


def _order(basis: DiagramBasis, include_identity: bool) -> Sequence[int]:
    """Basis positions in the representation order (see module
    docstring)."""
    if _require(include_identity, bool, "include_identity must be a bool"):
        return range(len(basis))
    return [i for block in _ideal_blocks(basis, False) for i in block]


def representation_basis(
    basis: DiagramBasis, include_identity: bool = False
) -> tuple[PlanarDiagram, ...]:
    """The documented basis order for generator matrices (see module
    docstring)."""
    basis = _require(basis, DiagramBasis, "representation_basis needs a DiagramBasis")
    return tuple(basis[i] for i in _order(basis, include_identity))


class GeneratorMatrix(_Value):
    """Left multiplication by one generator over the ordered diagram basis,
    as a column-monomial map: column i holds d^exponents[i] in row
    targets[i] and zeros elsewhere.

    The basis order holds diagrams of one dimension N, the generator
    index lies in 1..N-1, and ``include_identity`` says whether the
    identity is in the order.  ``_trusted`` skips these checks and is only
    for maps the library computed itself (``_generator_maps``)."""

    _fields = (
        "generator_index",
        "include_identity",
        "basis_order",
        "targets",
        "exponents",
    )
    # ``matrix`` is cached in the instance ``__dict__``.
    __slots__ = (*_fields, "__dict__")
    generator_index: int
    include_identity: bool
    basis_order: tuple[PlanarDiagram, ...]
    targets: tuple[int, ...]
    exponents: tuple[int, ...]

    def __init__(
        self,
        generator_index: int,
        include_identity: bool,
        basis_order: Sequence[PlanarDiagram],
        targets: Sequence[int],
        exponents: Sequence[int],
    ) -> None:
        generator_index = _integer(generator_index, "generator index")
        _require(include_identity, bool, "include_identity must be a bool")
        basis_order = tuple(_require(basis_order, Iterable, "basis order must be a sequence"))
        if not basis_order:
            raise ValueError("basis order must hold at least one diagram")
        first = _require(basis_order[0], PlanarDiagram, "basis order must hold PlanarDiagrams")
        n = first.dimension
        message = f"basis order must hold diagrams of dimension {n}"
        _sequence(basis_order, PlanarDiagram, "dimension", n, message)
        if not 1 <= generator_index <= n - 1:
            raise ValueError(f"generator index {generator_index} out of range 1..{n - 1}")
        identity = identity_diagram(n).pairing
        if any(d.pairing == identity for d in basis_order) != include_identity:
            held = "lacks" if include_identity else "holds"
            raise ValueError(
                f"include_identity is {include_identity} but the basis order {held} the identity"
            )
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
        self._set(generator_index, include_identity, basis_order, targets, exponents)

    @classmethod
    def _trusted(
        cls,
        generator_index: int,
        include_identity: bool,
        basis_order: tuple[PlanarDiagram, ...],
        targets: tuple[int, ...],
        exponents: tuple[int, ...],
    ) -> GeneratorMatrix:
        """Build without validation, from a map the library computed."""
        gm = object.__new__(cls)
        gm._set(generator_index, include_identity, basis_order, targets, exponents)
        return gm

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return len(self.basis_order)

    @functools.cached_property
    def matrix(self) -> PolyMatrix:
        """The dense matrix over LaurentPoly(d)."""
        from .laurent import LaurentPoly
        from .matrices import PolyMatrix

        return PolyMatrix.from_columns(
            "d",
            [
                {j: LaurentPoly.monomial("d", m)}
                for j, m in zip(self.targets, self.exponents)
            ],
        )


def _generator_maps(
    basis: DiagramBasis, indices: Sequence[int], include_identity: bool
) -> list[GeneratorMatrix]:
    """The maps of U_k for k in ``indices``, renumbered into the
    representation order."""
    order = _order(basis, include_identity)
    position = [0] * len(basis)
    for new, old in enumerate(order):
        position[old] = new
    basis_order = tuple(basis[i] for i in order)
    out = []
    for k in indices:
        targets, exponents = _action(basis, k)
        out.append(
            GeneratorMatrix._trusted(
                k,
                include_identity,
                basis_order,
                tuple(position[targets[i]] for i in order),
                tuple(exponents[i] for i in order),
            )
        )
    return out


def generator_matrix(
    k: int, basis: DiagramBasis, include_identity: bool = False
) -> GeneratorMatrix:
    """The map of U_k: column i goes to row j with exponent m, where
    U_k . D_i = d^m . D_j."""
    k = _integer(k, "generator index")
    basis = _require(basis, DiagramBasis, "generator_matrix needs a DiagramBasis")
    generator_diagram(basis.dimension, k)  # rejects an index out of range
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
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "witnesses", witnesses)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.entries)

    def lines(self) -> list[str]:
        witnesses = dict(self.witnesses)
        out = [self.title]
        for name, ok in self.entries:
            out.append(f"{name}: {'PASS' if ok else 'FAIL'}")
            if not ok and name in witnesses:
                out.append(f"  {witnesses[name]}")
        out.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return out


def _compose_maps(u: Map, v: Map) -> Map:
    """The map of the product U.V (V acts first)."""
    tu, eu = u
    tv, ev = v
    return (
        tuple(tu[j] for j in tv),
        tuple(m + eu[j] for j, m in zip(tv, ev)),
    )


def _witness(actual: Map, expected: Map) -> str:
    """The first column where two maps differ, with both of its entries."""
    from .laurent import LaurentPoly

    (ta, ea), (te, ee) = actual, expected
    i = next(c for c in range(len(ta)) if ta[c] != te[c] or ea[c] != ee[c])

    def entry(row: int, m: int) -> str:
        return f"{LaurentPoly.monomial('d', m)} in row {row}"

    return (
        f"first differing column {i}: expected {entry(te[i], ee[i])}, "
        f"got {entry(ta[i], ea[i])}"
    )


def _tl_relations(
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


def verify_tl_relations(matrices: Sequence[GeneratorMatrix]) -> RelationReport:
    """Check the relations of ``_tl_relations`` on the generator maps,
    U_i U_{i+1} U_i before U_i U_{i-1} U_i.

    Both sides of each relation are composed as maps and compared as
    tuples, which is exact: every column holds one monomial with
    coefficient 1.  A failed relation gets a witness naming the first
    basis column (0-based) where the sides differ.
    """
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
    braided = [(i, i + step) for step in (1, -1) for i in sorted(maps)]
    relations = _tl_relations(
        maps, braided, _compose_maps, lambda u: (u[0], tuple(m + 1 for m in u[1]))
    )
    entries: list[tuple[str, bool]] = []
    witnesses: list[tuple[str, str]] = []
    for name, left, right in relations:
        ok = left == right
        entries.append((name, ok))
        if not ok:
            witnesses.append((name, _witness(left, right)))
        del left, right  # free these maps before the next relation is built
    size = len(order)
    return RelationReport(
        f"Temperley-Lieb relations, matrix level ({size}x{size})",
        tuple(entries),
        tuple(witnesses),
    )


def verify_tl_relations_diagrams(dimension: int) -> RelationReport:
    """The relations of ``_tl_relations`` checked directly on diagrams via
    composition, independently of any matrix; U_i U_{i+1} U_i and
    U_i U_{i-1} U_i are checked for each i in turn."""
    gens = {g.index: ScaledDiagram(g.diagram) for g in generators(dimension)}
    braided = [(i, j) for i in sorted(gens) for j in (i + 1, i - 1)]
    relations = _tl_relations(
        gens, braided, lambda u, v: compose_scaled(v, u), lambda u: u.with_extra_loops(1)
    )
    return RelationReport(
        "Temperley-Lieb relations, diagram level",
        tuple((name, left == right) for name, left, right in relations),
    )
