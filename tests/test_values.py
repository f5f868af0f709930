"""Value semantics of the library's immutable types.

For one instance of each type: the exact ``repr``, equality and hash
against an equal copy, inequality against a changed one, refusal to set
or delete a field, keyword construction, ``copy.copy`` and a ``pickle``
round trip.  Integers at the trust boundary are read through
``operator.index``: a bool or a NumPy integer builds the value of the int
it stands for.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from tlkit.braids import BraidWord
from tlkit.diagrams import (
    ConnectabilityMatrix,
    PlanarDiagram,
    ScaledDiagram,
    connectability,
    restrict_connectability,
)
from tlkit.elements import TLElement
from tlkit.enumeration import DiagramBasis
from tlkit.laurent import LaurentPoly
from tlkit.matrices import PolyMatrix
from tlkit.representation import (
    Generator,
    GeneratorMatrix,
    IdealPartition,
    RelationReport,
)

IDENTITY = PlanarDiagram(2, (3, 4, 1, 2))
CUP = PlanarDiagram(2, (2, 1, 4, 3))
IDENTITY_REPR = "PlanarDiagram(dimension=2, pairing=(3, 4, 1, 2))"
CUP_REPR = "PlanarDiagram(dimension=2, pairing=(2, 1, 4, 3))"
ONE = LaurentPoly("d", ((0, 1),))
ONE_REPR = "LaurentPoly(variable='d', coeffs=((0, 1),))"

# (keyword arguments of an instance, keyword arguments of a changed one,
# the instance's repr), one case per type.
CASES = {
    PlanarDiagram: (
        dict(dimension=2, pairing=(3, 4, 1, 2)),
        dict(dimension=2, pairing=(2, 1, 4, 3)),
        IDENTITY_REPR,
    ),
    ScaledDiagram: (
        dict(diagram=CUP, loop_exponent=1),
        dict(diagram=CUP, loop_exponent=2),
        f"ScaledDiagram(diagram={CUP_REPR}, loop_exponent=1)",
    ),
    ConnectabilityMatrix: (
        dict(dimension=1, entries=((0, 1), (1, 0))),
        dict(dimension=1, entries=((0, 0), (0, 0))),
        "ConnectabilityMatrix(dimension=1, entries=((0, 1), (1, 0)))",
    ),
    DiagramBasis: (
        dict(dimension=2, diagrams=(CUP, IDENTITY)),
        dict(dimension=2, diagrams=(IDENTITY, CUP)),
        f"DiagramBasis(dimension=2, diagrams=({CUP_REPR}, {IDENTITY_REPR}))",
    ),
    LaurentPoly: (
        dict(variable="d", coeffs=((-1, 2), (3, -1))),
        dict(variable="A", coeffs=((-1, 2), (3, -1))),
        "LaurentPoly(variable='d', coeffs=((-1, 2), (3, -1)))",
    ),
    PolyMatrix: (
        dict(variable="d", columns=(((0, ONE),),)),
        dict(variable="d", columns=((),)),
        f"PolyMatrix(variable='d', columns=(((0, {ONE_REPR}),),))",
    ),
    Generator: (
        dict(index=1, diagram=CUP),
        dict(index=2, diagram=PlanarDiagram(3, (4, 3, 2, 1, 6, 5))),
        f"Generator(index=1, diagram={CUP_REPR})",
    ),
    IdealPartition: (
        dict(dimension=2, blocks=((CUP,),)),
        dict(dimension=2, blocks=((CUP,), (IDENTITY,))),
        f"IdealPartition(dimension=2, blocks=(({CUP_REPR},),))",
    ),
    GeneratorMatrix: (
        dict(
            generator_index=1,
            basis_order=(CUP,),
            targets=(0,),
            exponents=(1,),
        ),
        dict(
            generator_index=1,
            basis_order=(CUP,),
            targets=(0,),
            exponents=(2,),
        ),
        "GeneratorMatrix(generator_index=1, "
        f"basis_order=({CUP_REPR},), targets=(0,), exponents=(1,))",
    ),
    RelationReport: (
        dict(title="t", entries=(("x", True),), witnesses=()),
        dict(title="t", entries=(("x", False),), witnesses=()),
        "RelationReport(title='t', entries=(('x', True),), witnesses=())",
    ),
    BraidWord: (
        dict(strands=3, letters=(1, -2)),
        dict(strands=3, letters=(-2, 1)),
        "BraidWord(strands=3, letters=(1, -2))",
    ),
    TLElement: (
        dict(dimension=2, variable="d", terms=((CUP, ONE),)),
        dict(dimension=2, variable="d", terms=((IDENTITY, ONE),)),
        f"TLElement(dimension=2, variable='d', terms=(({CUP_REPR}, {ONE_REPR}),))",
    ),
}

each_type = pytest.mark.parametrize(
    "cls", list(CASES), ids=[cls.__name__ for cls in CASES]
)


@each_type
def test_repr(cls):
    kwargs, _, text = CASES[cls]
    assert repr(cls(**kwargs)) == text


@each_type
def test_equal_copy_and_changed_copy(cls):
    kwargs, changed, _ = CASES[cls]
    value = cls(**kwargs)
    twin = cls(*kwargs.values())
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    other = cls(**changed)
    assert value != other and not value == other
    assert value != 5 and value != object()


@each_type
def test_fields_cannot_be_set_or_deleted(cls):
    kwargs, _, _ = CASES[cls]
    value = cls(**kwargs)
    name = next(iter(kwargs))
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert getattr(value, name) == before


@each_type
def test_keyword_construction_keeps_every_field(cls):
    kwargs, _, _ = CASES[cls]
    value = cls(**kwargs)
    for name, given in kwargs.items():
        assert getattr(value, name) == given


@each_type
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trip(cls, clone):
    kwargs, _, text = CASES[cls]
    value = cls(**kwargs)
    again = clone(value)
    assert type(again) is cls
    assert again == value and hash(again) == hash(value)
    assert repr(again) == text


def test_defaults():
    assert ScaledDiagram(CUP) == ScaledDiagram(CUP, 0)
    assert RelationReport("t", ()).witnesses == ()


def test_copies_keep_their_derived_state():
    basis = DiagramBasis(2, (CUP, IDENTITY))
    for again in (copy.copy(basis), pickle.loads(pickle.dumps(basis))):
        assert again.index_of(IDENTITY) == 1 and CUP in again
    gm = GeneratorMatrix(1, (CUP,), (0,), (1,))
    dense = gm.matrix
    assert gm == GeneratorMatrix(1, (CUP,), (0,), (1,))
    assert copy.copy(gm).matrix == dense
    assert pickle.loads(pickle.dumps(gm)).matrix == dense


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: PolyMatrix("d", [{True: ONE}, {}]), lambda: PolyMatrix("d", [{1: ONE}, {}])),
        (
            lambda: PolyMatrix("d", [((np.int64(1), ONE),), ()]),
            lambda: PolyMatrix("d", [((1, ONE),), ()]),
        ),
        (lambda: LaurentPoly.constant("d", True), lambda: LaurentPoly.constant("d", 1)),
        (lambda: LaurentPoly("d", ((np.int64(0), 1),)), lambda: LaurentPoly("d", ((0, 1),))),
        (
            lambda: LaurentPoly.from_dict("A", {np.int64(-2): np.int64(3), 1: True}),
            lambda: LaurentPoly.from_dict("A", {-2: 3, 1: 1}),
        ),
        (
            lambda: restrict_connectability(
                {np.int64(1): np.int64(4), np.int64(4): np.int64(1)}, 2, connectability(3)
            ),
            lambda: restrict_connectability({1: 4, 4: 1}, 2, connectability(3)),
        ),
        (
            lambda: TLElement(2, "d", ((CUP, ONE),)).scaled(np.int64(2)),
            lambda: TLElement(2, "d", ((CUP, ONE),)).scaled(2),
        ),
    ],
    ids=[
        "polymatrix-bool-row", "polymatrix-numpy-row", "laurent-constant-bool",
        "laurent-numpy-exponent", "laurent-from-dict-numpy", "restrict-numpy-nodes",
        "scaled-numpy",
    ],
)
def test_integers_are_read_as_the_int_they_stand_for(build, expected):
    value, twin = build(), expected()
    assert repr(value) == repr(twin)
    assert value == twin and hash(value) == hash(twin)
