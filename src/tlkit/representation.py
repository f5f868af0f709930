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

One composition pass computes the action: each basis diagram is composed
with each generator once, giving (targets, exponents) over positions in
the basis (``DiagramBasis.index_of``).  The ideal blocks, the
representation order and every ``GeneratorMatrix`` of a call are read
from that pass.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .composition import compose
from .diagrams import PlanarDiagram, ScaledDiagram
from .enumeration import DiagramBasis, identity_diagram
from .laurent import LaurentPoly
from .matrices import PolyMatrix


@dataclass(frozen=True)
class Generator:
    """U_k: a cup joining bottom nodes k, k+1, the matching top cap, and
    straight strands elsewhere."""

    index: int
    diagram: PlanarDiagram


def generator_diagram(dimension: int, k: int) -> PlanarDiagram:
    n = dimension
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} out of range 1..{n - 1}")
    pairing = list(range(n + 1, 2 * n + 1)) + list(range(1, n + 1))
    pairing[k - 1] = k + 1
    pairing[k] = k
    pairing[n + k - 1] = n + k + 1
    pairing[n + k] = n + k
    return PlanarDiagram._trusted(n, tuple(pairing))


def generators(dimension: int) -> list[Generator]:
    """The N-1 generators U_1 .. U_{N-1}."""
    if dimension < 2:
        raise ValueError("generators exist only for dimension >= 2")
    return [
        Generator(k, generator_diagram(dimension, k))
        for k in range(1, dimension)
    ]


def left_multiply(generator: Generator, diagram: PlanarDiagram) -> ScaledDiagram:
    """U_k . D with the generator stacked on top."""
    return compose(diagram, generator.diagram)


@dataclass(frozen=True)
class IdealPartition:
    """Disjoint blocks of basis diagrams, each closed under left
    multiplication by every generator."""

    dimension: int
    blocks: tuple[tuple[PlanarDiagram, ...], ...]

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def block_of(self, diagram: PlanarDiagram) -> int:
        for i, block in enumerate(self.blocks):
            if diagram in block:
                return i
        raise KeyError(diagram)


Map = tuple[tuple[int, ...], tuple[int, ...]]


def _action(basis: DiagramBasis, k: int) -> Map:
    """U_k on every basis position, in basis order: U_k . D_i =
    d^exponents[i] . D_targets[i]."""
    gen = generator_diagram(basis.dimension, k)
    index_of = basis.index_of
    targets: list[int] = []
    exponents: list[int] = []
    for d in basis:
        product = compose(d, gen)
        targets.append(index_of(product.diagram))
        exponents.append(product.loop_exponent)
    return tuple(targets), tuple(exponents)


def _ideal_blocks(
    basis: DiagramBasis, actions: Iterable[Map], include_identity: bool
) -> list[list[int]]:
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

    for targets, _ in actions:
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
    n = basis.dimension
    actions = [_action(basis, k) for k in range(1, n)]
    blocks = _ideal_blocks(basis, actions, include_identity)
    return IdealPartition(
        n, tuple(tuple(basis[i] for i in block) for block in blocks)
    )


def representation_basis(
    basis: DiagramBasis, include_identity: bool = False
) -> tuple[PlanarDiagram, ...]:
    """The documented basis order for generator matrices (see module
    docstring)."""
    if include_identity:
        return tuple(basis)
    partition = ideal_partition(basis, include_identity=False)
    return tuple(d for block in partition.blocks for d in block)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Left multiplication by one generator over the ordered diagram basis,
    as a column-monomial map: column i holds d^exponents[i] in row
    targets[i] and zeros elsewhere."""

    generator_index: int
    include_identity: bool
    basis_order: tuple[PlanarDiagram, ...]
    targets: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            basis_order = tuple(self.basis_order)
            targets = tuple(map(operator.index, self.targets))
            exponents = tuple(map(operator.index, self.exponents))
        except TypeError:
            raise ValueError(
                "basis order must be a sequence, and targets and exponents "
                "sequences of integers"
            ) from None
        size = len(basis_order)
        if len(targets) != size or len(exponents) != size:
            raise ValueError(
                f"targets ({len(targets)}), exponents ({len(exponents)}) "
                f"and basis order ({size}) must have one entry per column"
            )
        if size and not (0 <= min(targets) and max(targets) < size):
            raise ValueError(f"every target must lie in 0..{size - 1}")
        if size and min(exponents) < 0:
            raise ValueError("loop exponents must be non-negative")
        object.__setattr__(self, "basis_order", basis_order)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "exponents", exponents)

    @property
    def size(self) -> int:
        return len(self.basis_order)

    @functools.cached_property
    def matrix(self) -> PolyMatrix:
        """The dense matrix over LaurentPoly(d)."""
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
    representation order.  Each (generator, diagram) pair is composed
    once: the ideal-refined order comes from the same action."""
    n = basis.dimension
    if include_identity:
        actions = {k: _action(basis, k) for k in indices}
        order: Sequence[int] = range(len(basis))
    else:
        actions = {k: _action(basis, k) for k in range(1, n)}
        blocks = _ideal_blocks(basis, actions.values(), False)
        order = [i for block in blocks for i in block]
    position = [0] * len(basis)
    for new, old in enumerate(order):
        position[old] = new
    basis_order = tuple(basis[i] for i in order)
    out = []
    for k in indices:
        targets, exponents = actions[k]
        out.append(
            GeneratorMatrix(
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
    generator_diagram(basis.dimension, k)  # rejects an index out of range
    return _generator_maps(basis, (k,), include_identity)[0]


def generator_matrices(
    basis: DiagramBasis, include_identity: bool = False
) -> list[GeneratorMatrix]:
    """The maps of U_1 .. U_{N-1} over one basis order, computed once."""
    return _generator_maps(basis, range(1, basis.dimension), include_identity)


@dataclass(frozen=True)
class RelationReport:
    """Named pass/fail results of a family of relation checks.

    ``witnesses`` pairs the name of a failed relation with a description
    of where it fails; ``lines`` prints it under the FAIL line."""

    title: str
    entries: tuple[tuple[str, bool], ...]
    witnesses: tuple[tuple[str, str], ...] = ()

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
    (ta, ea), (te, ee) = actual, expected
    i = next(c for c in range(len(ta)) if ta[c] != te[c] or ea[c] != ee[c])

    def entry(row: int, m: int) -> str:
        return f"{LaurentPoly.monomial('d', m)} in row {row}"

    return (
        f"first differing column {i}: expected {entry(te[i], ee[i])}, "
        f"got {entry(ta[i], ea[i])}"
    )


def verify_tl_relations(matrices: Sequence[GeneratorMatrix]) -> RelationReport:
    """Check the defining relations on the generator maps:

        U_i^2           = d U_i
        U_i U_{i+1} U_i = U_i
        U_i U_{i-1} U_i = U_i
        U_i U_j         = U_j U_i   for |i - j| >= 2

    Both sides of each relation are composed as maps and compared as
    tuples, which is exact: every column holds one monomial with
    coefficient 1.  A failed relation gets a witness naming the first
    basis column (0-based) where the sides differ.
    """
    if not matrices:
        raise ValueError("no matrices given")
    sizes = {m.size for m in matrices}
    orders = {m.basis_order for m in matrices}
    if len(sizes) != 1 or len(orders) != 1:
        raise ValueError("matrices must share one basis and ordering")
    maps = {m.generator_index: (m.targets, m.exponents) for m in matrices}
    entries: list[tuple[str, bool]] = []
    witnesses: list[tuple[str, str]] = []

    def check(name: str, actual: Map, expected: Map) -> None:
        ok = actual == expected
        entries.append((name, ok))
        if not ok:
            witnesses.append((name, _witness(actual, expected)))

    indices = sorted(maps)
    for i in indices:
        u = maps[i]
        check(
            f"U_{i}^2 = d*U_{i}",
            _compose_maps(u, u),
            (u[0], tuple(m + 1 for m in u[1])),
        )
    for step in (1, -1):
        for i in indices:
            if i + step in maps:
                u, v = maps[i], maps[i + step]
                check(
                    f"U_{i}*U_{i + step}*U_{i} = U_{i}",
                    _compose_maps(u, _compose_maps(v, u)),
                    u,
                )
    for i in indices:
        for j in indices:
            if j - i >= 2:
                u, v = maps[i], maps[j]
                check(
                    f"U_{i}*U_{j} = U_{j}*U_{i}",
                    _compose_maps(u, v),
                    _compose_maps(v, u),
                )
    size = next(iter(sizes))
    return RelationReport(
        f"Temperley-Lieb relations, matrix level ({size}x{size})",
        tuple(entries),
        tuple(witnesses),
    )


def verify_tl_relations_diagrams(dimension: int) -> RelationReport:
    """The same relations checked directly on diagrams via composition,
    independently of any matrix."""
    gens = {g.index: g.diagram for g in generators(dimension)}
    entries: list[tuple[str, bool]] = []
    indices = sorted(gens)
    for i in indices:
        u = gens[i]
        product = compose(u, u)
        entries.append(
            (
                f"U_{i}^2 = d*U_{i}",
                product.diagram == u and product.loop_exponent == 1,
            )
        )
    for i in indices:
        for j in (i + 1, i - 1):
            if j in gens:
                inner = compose(gens[i], gens[j])
                outer = compose(inner.diagram, gens[i])
                ok = (
                    outer.diagram == gens[i]
                    and inner.loop_exponent + outer.loop_exponent == 0
                )
                entries.append((f"U_{i}*U_{j}*U_{i} = U_{i}", ok))
    for i in indices:
        for j in indices:
            if j - i >= 2:
                left = compose(gens[j], gens[i])
                right = compose(gens[i], gens[j])
                entries.append((f"U_{i}*U_{j} = U_{j}*U_{i}", left == right))
    return RelationReport(
        "Temperley-Lieb relations, diagram level", tuple(entries)
    )
