"""The ValueError contract, swept over every exported name and every
public method of the exported classes.

Each callable in ``tlkit.__all__``, and each public (non-underscore)
method of one sample instance of each exported class in ``SAMPLES``, is
called in two passes over its required positional parameters, read with
``inspect.signature``, so a new export or method is covered with no new
code.  The first pass fills them with every mix of a few wrong values.
The second puts one wrong value in one position and fills the others
with every mix of valid arguments from ``POOL``, so a wrong value is
also tried after its valid neighbours have been read: a check the first
pass reaches only after another argument has failed shows there.  Each
call must return a value or raise ``ValueError``; any other exception
the sweep allows is listed in ``ALLOWED`` with its reason.  One test per
name or method and pass loops over its mixes.
"""

from __future__ import annotations

import inspect
import itertools

import pytest

import tlkit

#: The values tried in every required positional parameter.
VALUES = (None, 5, -1, 1.5, "a", (), [5], object())

#: Exceptions other than ValueError that a name or a method ("Class.name")
#: may raise, with the reason.  None needs one today.
ALLOWED: dict[str, tuple[type[BaseException], str]] = {}

_DIAGRAM = tlkit.identity_diagram(2)

#: Valid arguments, one of each kind the library takes, that fill the
#: other positions while one position holds a wrong value.
POOL = (
    2,
    "d",
    "A",
    _DIAGRAM,
    tlkit.enumerate_diagrams(2),
    tlkit.LaurentPoly.monomial("d", 1),
    tlkit.BraidWord(2, (1,)),
    tlkit.TLElement.from_diagram(_DIAGRAM),
    tlkit.generators(2)[0],
    tlkit.ScaledDiagram(_DIAGRAM, 1),
    {1: 2},
    [(_DIAGRAM, tlkit.LaurentPoly.one("d"))],
    tlkit.connectability(2),
)

#: One instance of each exported class.
SAMPLES = {
    "BraidWord": tlkit.BraidWord(3, (1, -2)),
    "ConnectabilityMatrix": tlkit.connectability(2),
    "DiagramBasis": tlkit.enumerate_diagrams(2),
    "Generator": tlkit.generators(2)[0],
    "GeneratorMatrix": tlkit.generator_matrix(1, tlkit.enumerate_diagrams(3)),
    "IdealPartition": tlkit.ideal_partition(tlkit.enumerate_diagrams(3)),
    "LaurentPoly": tlkit.LaurentPoly.monomial("d", 1),
    "PlanarDiagram": _DIAGRAM,
    "PolyMatrix": tlkit.generator_matrix(1, tlkit.enumerate_diagrams(2), True).matrix,
    "RelationReport": tlkit.verify_tl_relations_diagrams(2),
    "ScaledDiagram": tlkit.ScaledDiagram(_DIAGRAM, 1),
    "TLElement": tlkit.TLElement.from_diagram(_DIAGRAM),
}

#: "Class.method" -> the bound public method of its sample.
METHODS = {
    f"{name}.{attr}": getattr(sample, attr)
    for name, sample in SAMPLES.items()
    for attr in dir(sample)
    if not attr.startswith("_") and callable(getattr(sample, attr))
}

_POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def required_arity(fn) -> int:
    """The number of required positional parameters of ``fn``."""
    return sum(
        1
        for p in inspect.signature(fn).parameters.values()
        if p.kind in _POSITIONAL and p.default is inspect.Parameter.empty
    )


def test_every_export_is_callable():
    assert all(callable(getattr(tlkit, name)) for name in tlkit.__all__)
    assert set(ALLOWED) <= {*tlkit.__all__, *METHODS}
    classes = {name for name in tlkit.__all__ if isinstance(getattr(tlkit, name), type)}
    assert set(SAMPLES) == classes
    assert all(type(sample) is getattr(tlkit, name) for name, sample in SAMPLES.items())


def every_mix(arity):
    """Every mix of ``VALUES`` in ``arity`` positions."""
    return itertools.product(VALUES, repeat=arity)


def one_wrong(arity):
    """Each of ``VALUES`` in each of ``arity`` positions, the others filled
    with every mix of ``POOL``."""
    for i in range(arity):
        for wrong in VALUES:
            for rest in itertools.product(POOL, repeat=arity - 1):
                yield (*rest[:i], wrong, *rest[i:])


@pytest.mark.parametrize("name", tlkit.__all__)
def test_returns_or_raises_value_error(name):
    sweep(name, getattr(tlkit, name), every_mix)


@pytest.mark.parametrize("name", METHODS)
def test_methods_return_or_raise_value_error(name):
    sweep(name, METHODS[name], every_mix)


@pytest.mark.parametrize("name", [*tlkit.__all__, *METHODS])
def test_one_wrong_argument_returns_or_raises_value_error(name):
    sweep(name, METHODS.get(name) or getattr(tlkit, name), one_wrong)


def sweep(name, fn, mixes):
    """Call ``fn`` with each of ``mixes(arity)`` in its required positional
    parameters."""
    allowed, _reason = ALLOWED.get(name, (ValueError, ""))
    for args in mixes(required_arity(fn)):
        try:
            fn(*args)
        except (ValueError, allowed):
            pass
        except Exception as exc:
            raise AssertionError(
                f"{name}{args!r} raised {type(exc).__name__}: {exc}"
            ) from exc
