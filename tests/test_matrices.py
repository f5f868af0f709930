"""``PolyMatrix`` as sparse columns, checked against dense rows.

The matrix keeps the columns it is built from, without zero entries;
``rows`` and ``column`` are dense views.  The properties draw small
random columns whose entries are zero or one or two ±1 terms, so that
products often cancel, and check the sparse constructor, the three
readers and the sparse product against dense rows and the triple-loop
``oracles.dense_product``, and that the constructor, ``from_rows`` and
``repr`` each give the matrix back.  Equality, hashing, ``copy`` and
pickling are checked with ``rows`` patched to fail.  The values the
library makes through the held route ``_Value._trusted`` (the walk's
diagrams, a bracket image's coefficients, matrices, element images,
ideal partitions, bases and generator maps) are built with their
class's validating constructor patched to fail, then checked against
it, and every library class is shown to take ``_trusted`` and ``_set``
from ``_Value``.
"""

import copy
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dense_product
from tlkit import enumeration
from tlkit._values import _Value
from tlkit.braids import BraidWord, braid_image, braid_image_matrix
from tlkit.diagrams import PlanarDiagram
from tlkit.elements import TLElement
from tlkit.enumeration import DiagramBasis, enumerate_diagrams
from tlkit.laurent import LaurentPoly
from tlkit.matrices import PolyMatrix
from tlkit.representation import (
    GeneratorMatrix,
    IdealPartition,
    generator_matrices,
    generator_matrix,
    ideal_partition,
)


def entries(variable):
    """Zero, or a polynomial of up to two terms with coefficients ±1."""
    terms = st.dictionaries(st.integers(-2, 2), st.sampled_from((-1, 1)), max_size=2)
    return terms.map(lambda coeffs: LaurentPoly.from_dict(variable, coeffs))


def columns_of(size, variable):
    rows = st.integers(0, size - 1) if size else st.nothing()
    column = st.dictionaries(rows, entries(variable), max_size=size)
    return st.lists(column, min_size=size, max_size=size)


def dense_rows(variable, size, columns):
    """The rows of ``columns`` with every unlisted cell an explicit zero."""
    grid = [[LaurentPoly.zero(variable)] * size for _ in range(size)]
    for i, column in enumerate(columns):
        for j, entry in column.items():
            grid[j][i] = entry
    return grid


def stored_entries(m):
    return [entry for column in m.columns for _, entry in column]


@pytest.fixture
def unread_rows(monkeypatch):
    """``PolyMatrix.rows`` patched to fail, so any read of it shows."""

    def unread(self):
        raise AssertionError("the dense rows were read")

    monkeypatch.setattr(PolyMatrix, "rows", property(unread))


@given(st.data())
def test_sparse_columns_agree_with_dense_rows(data):
    size = data.draw(st.integers(0, 6), label="size")
    variable = data.draw(st.sampled_from(("d", "A")), label="variable")
    a_columns = data.draw(columns_of(size, variable), label="a")
    b_columns = data.draw(columns_of(size, variable), label="b")
    cancel = size >= 2 and data.draw(st.booleans(), label="cancel")
    if cancel:
        # columns 0 and 1 of a are equal and column 0 of b holds p and -p
        # in rows 0 and 1, so column 0 of a * b sums to zero in every row
        p = data.draw(entries(variable).filter(lambda q: not q.is_zero()), label="p")
        a_columns[1] = a_columns[0]
        b_columns[0] = {0: p, 1: -p}
    a = PolyMatrix(variable, a_columns)
    b = PolyMatrix(variable, b_columns)
    for m, columns in ((a, a_columns), (b, b_columns)):
        dense = PolyMatrix.from_rows(variable, dense_rows(variable, size, columns))
        assert m == dense and hash(m) == hash(dense)
        # the stored pairs, the dense rows and the repr each rebuild m
        assert PolyMatrix(variable, m.columns) == m
        assert PolyMatrix.from_rows(variable, m.rows) == m
        assert eval(repr(m), {"PolyMatrix": PolyMatrix, "LaurentPoly": LaurentPoly}) == m
        assert all(list(column) == sorted(column) for column in m.columns)
        # drawn zero entries, like explicit zeros in rows, are not stored
        assert not any(entry.is_zero() for entry in stored_entries(m) + stored_entries(dense))
        assert m.size == size and m.rows == dense.rows
        for j in range(size):
            assert m.column(j) == tuple(row[j] for row in m.rows)
            assert all(m.entry(i, j) == m.rows[i][j] for i in range(size))
    product = a * b
    explicit = dense_product(a, b)
    assert product == explicit and hash(product) == hash(explicit)
    assert not any(entry.is_zero() for entry in stored_entries(product))
    if cancel:
        assert not product.columns[0]
        assert all(entry.is_zero() for entry in product.column(0))


def test_generator_matrix_squared_stays_sparse():
    # The dense grid of dimension 9 alone is 4,862^2 references, about
    # 190 MB; the sparse columns of U_1 and its square (4,861 entries
    # each) peak at about 5 MB under tracemalloc.
    basis = enumerate_diagrams(9)
    tracemalloc.start()
    try:
        gm = generator_matrix(1, basis)
        u = gm.matrix
        square = u * u
        assert square.size == u.size == 4861
        # U_1^2 = d U_1, read in column 0
        row = gm.targets[0]
        assert square.entry(row, 0) == LaurentPoly.monomial("d", 1) * u.entry(row, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_equality_and_hashing_read_only_the_columns(unread_rows):
    # Equality and hashing compare the sparse columns: at dimension 9 the
    # dense rows they used to build took 54 s for two comparisons and a
    # hash.
    basis = enumerate_diagrams(6)
    u1, u2 = (generator_matrix(k, basis).matrix for k in (1, 2))
    same = PolyMatrix("d", [dict(column) for column in u1.columns])
    identities = [PolyMatrix.identity(size, var) for size, var in ((3, "d"), (3, "A"), (2, "d"))]
    assert u1 == same and hash(u1) == hash(same)
    assert u1 != u2 and len({u1, same, u2}) == 2
    # a different variable or size is a different matrix
    assert len(set(identities)) == 3
    assert identities[0] != identities[1] and identities[0] != identities[2]


def test_identity_reads_its_size():
    # Size 0 is the empty matrix, and a bool stands for its int.
    one = LaurentPoly.one("d")
    assert PolyMatrix.identity(0, "d") == PolyMatrix("d", [])
    assert PolyMatrix.identity(True, "d") == PolyMatrix("d", [{0: one}])


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_read_only_the_columns(unread_rows, clone):
    # ``copy`` and pickling rebuild a matrix from its sparse columns.
    # Through the dense rows, at dimension 9, a pickle round trip took
    # 8-10 s and wrote 116 MB; from the 4,861 columns of U_1 each clone
    # peaks at 1.6-2.7 MB under tracemalloc.
    u = generator_matrix(1, enumerate_diagrams(9)).matrix
    tracemalloc.start()
    try:
        again = clone(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(again) is PolyMatrix and again == u and hash(again) == hash(u)
    assert again.columns == u.columns and again.size == 4861
    assert peak < 8 << 20


def test_library_matrices_skip_the_constructor(monkeypatch):
    # A value the library made is held through ``_trusted``, not checked
    # again; the validating constructor still takes every one of them.
    bases = [enumerate_diagrams(n) for n in (3, 5)]
    gms = [generator_matrix(2, basis, include) for basis in bases for include in (False, True)]
    words = [BraidWord(1, ()), BraidWord(3, (1, -2, 1)), BraidWord(5, (1, -2, 3, -4, 2))]
    rng = random.Random(43)
    seeded = [
        BraidWord(n, [rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(length)])
        for n in range(2, 6)
        for length in (0, 3, 7)
    ]

    def matrices():
        made = [gm.matrix for gm in gms] + [braid_image_matrix(w) for w in words]
        made.append(made[1] * made[1])
        return made + [PolyMatrix.identity(n, "d") for n in (0, 1, 4)]

    def elements():
        images = [braid_image(w) for w in words + seeded]
        return images + [-e for e in images]

    def maps():
        pairs = [(basis, include) for basis in bases for include in (False, True)]
        single = [generator_matrix(k, b, include) for b, include in pairs for k in (1, 2)]
        return single + [m for b, include in pairs for m in generator_matrices(b, include)]

    builds = {
        PlanarDiagram: lambda: [d for n in range(1, 7) for d in enumeration._basis.__wrapped__(n)],
        LaurentPoly: lambda: [c for w in words + seeded for _, c in braid_image(w).terms],
        PolyMatrix: matrices,
        TLElement: elements,
        IdealPartition: lambda: [
            ideal_partition(enumerate_diagrams(n), include)
            for n in range(2, 7)
            for include in (False, True)
        ],
        DiagramBasis: lambda: [enumeration._basis.__wrapped__(n) for n in range(1, 7)],
        GeneratorMatrix: maps,
    }
    for cls, build in builds.items():

        def refuse(self, *args, name=cls.__name__):
            raise AssertionError(f"{name}.__init__ was called")

        with monkeypatch.context() as patch:
            patch.setattr(cls, "__init__", refuse)
            made = build()
        assert made and all(type(value) is cls for value in made)
        for value in made:
            fields = [getattr(value, name) for name in cls._fields]
            assert value == cls(*fields) == pickle.loads(pickle.dumps(value))
    # One held route, no exceptions: every library class's ``_trusted`` and
    # ``_set`` are the ones ``_Value`` built on its slot writers.
    library = [c for c in _Value.__subclasses__() if c.__module__.startswith("tlkit.")]
    assert set(builds) < set(library)
    for cls in library:
        assert cls._trusted.__module__ == cls._set.__module__ == _Value.__module__
