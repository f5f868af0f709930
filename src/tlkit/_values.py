"""The base of the library's value types and the type and shape rule.

``_Value`` gives the immutable value classes their equality, hash,
``repr`` and pickling, and the two ways their fields are written, both
built on the slot writers it looks up once per class: ``_set``, the
last step of every constructor, and the one held route, ``_trusted``,
which builds a value from parts the library made itself and checks
nothing.  No class has a route of its own.
``_require``, ``_integers``, ``_pairs`` and ``_sequence`` check the
arguments of every public entry point: a value of the wrong kind is a
ValueError, never an AttributeError or TypeError from deeper down.
Each helper builds its message only on failure.  ``_index`` reads one
integer the way ``_integers`` reads each, through ``operator.index``,
for ``_pairs`` and for the checks that word their own message.  The
size rule (``_integer``, ``_dimension``) is in ``_backend``.

The module imports nothing from the package, so the modules of the
bracket element route (``laurent`` and ``braids``) build their values
without loading the diagram types.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable


def _require(value: object, kind: type | tuple[type, ...], message: str):
    """``value`` if it is a ``kind``; otherwise ValueError, "``message``,
    got ``value``"."""
    if isinstance(value, kind):
        return value
    raise ValueError(f"{message}, got {value!r}")


def _integers(values: Iterable[int], message: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ValueError ``message`` unless it is
    a sequence of integers."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(message) from None


def _index(value: object, default: object = None) -> object:
    """The int ``value`` stands for, read through ``operator.index`` as
    ``_integers`` reads it, or ``default`` if it stands for none."""
    try:
        return operator.index(value)
    except TypeError:
        return default


def _pairs(pairs: Iterable[tuple], first: type, second: type, message: str) -> tuple:
    """``pairs`` as a tuple of (a, b) pairs, each a a ``first`` and each b
    a ``second``; ValueError ``message`` otherwise, naming the first pair
    that is not.  Pairs of ``int`` are read through ``_index``, so a bool
    or a NumPy integer is stored as the int it stands for."""
    try:
        pairs = tuple((a, b) for a, b in pairs)
    except (TypeError, ValueError):
        raise ValueError(message) from None
    read = tuple((_index(a, a), _index(b, b)) for a, b in pairs) if first is second is int else pairs
    for (a, b), (x, y) in zip(pairs, read):
        if not (isinstance(x, first) and isinstance(y, second)):
            raise ValueError(
                f"{message}: ({a!r}, {b!r}) is not a "
                f"({first.__name__}, {second.__name__}) pair"
            )
    return read


def _sequence(
    values: Iterable, kind: type, field: str, expected: object, message: str
) -> tuple:
    """``values`` as a tuple of ``kind`` values whose ``field`` equals
    ``expected`` (diagrams of one dimension, polynomials in one variable),
    checked in one pass; ValueError ``message`` otherwise, naming the
    first value that is not."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{message}, got {values!r}") from None
    key = operator.attrgetter(field)
    for value in values:
        if not (isinstance(value, kind) and key(value) == expected):
            raise ValueError(f"{message}, got {value!r}")
    return values


def _writers(cls: type, writers: tuple) -> tuple:
    """``cls``'s ``_set`` and ``_trusted``, built on its slot ``writers``;
    a two-field class, the hot case, calls its two writers directly."""
    new = object.__new__
    if len(writers) == 2:
        first, second = writers

        def _set(self, a: object, b: object) -> None:
            first(self, a)
            second(self, b)

        def _trusted(a: object, b: object):
            value = new(cls)
            first(value, a)
            second(value, b)
            return value

    else:

        def _set(self, *values: object) -> None:
            for write, item in zip(writers, values):
                write(self, item)

        def _trusted(*values: object):
            value = new(cls)
            _set(value, *values)
            return value

    return _set, staticmethod(_trusted)


class _Value:
    """Base of the library's immutable value types.

    A subclass names its compared fields in ``_fields``, declares them (and
    any private state) in ``__slots__``, and ends its own ``__init__``,
    after its checks, in one ``self._set(...)`` call.  ``_trusted(...)``
    skips ``__init__`` and is only for parts the library made itself.
    Both write the values into the leading ``__slots__``, in order,
    through the slot writers (each slot's member descriptor ``__set__``)
    that ``__init_subclass__`` looks up once per class: the slots, not
    ``_fields``, since a value may store a field under a private name
    (``PolyMatrix._columns``).  Two values are equal when they have the
    same class and equal fields, and hash as the tuple of their fields;
    ``repr`` reads ``Name(field=value, ...)``.  Setting or deleting an
    attribute raises AttributeError.  ``copy`` and ``pickle`` rebuild a
    value by calling its class on the field values.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # A C-level getter of the field tuple keeps __eq__ and __hash__ fast.
        cls._key = operator.attrgetter(*cls._fields)
        writers = tuple(getattr(cls, name).__set__ for name in cls.__slots__ if name != "__dict__")
        cls._set, cls._trusted = _writers(cls, writers)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._key(self)
