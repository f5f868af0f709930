"""The ValueError contract, swept over every exported name.

Each callable in ``tlkit.__all__`` is called with every mix of a few wrong
values in its required positional parameters, read with
``inspect.signature``, so a new export is covered with no new code.  Each
call must return a value or raise ``ValueError``; any other exception the
sweep allows is listed in ``ALLOWED`` with its reason.  One test per name
loops over that name's mixes.
"""

from __future__ import annotations

import inspect
import itertools

import pytest

import tlkit

#: The values tried in every required positional parameter.
VALUES = (None, 5, -1, 1.5, "a", (), [5], object())

#: Exceptions other than ValueError that a name may raise, with the reason.
#: No name needs one today.
ALLOWED: dict[str, tuple[type[BaseException], str]] = {}

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
    assert set(ALLOWED) <= set(tlkit.__all__)


@pytest.mark.parametrize("name", tlkit.__all__)
def test_returns_or_raises_value_error(name):
    fn = getattr(tlkit, name)
    allowed, _reason = ALLOWED.get(name, (ValueError, ""))
    for args in itertools.product(VALUES, repeat=required_arity(fn)):
        try:
            fn(*args)
        except (ValueError, allowed):
            pass
        except Exception as exc:
            raise AssertionError(
                f"{name}{args!r} raised {type(exc).__name__}: {exc}"
            ) from exc
