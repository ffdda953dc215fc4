"""The immutable-record base of fcw's value objects, the infinities and
`Polynomial` included, and the argument gates for ints, cell ids and
instances; those for exact values are in `rationals`.

``integer(value, what, nonnegative=False)`` passes an int that is not a
bool, raising ``TypeError: {what} must be an int, got {value!r}``
otherwise; with `nonnegative`, a value below 0 raises ``ValueError: {what}
must be nonnegative, got {value}``.  ``cell_id(value)`` passes a str,
raising ``TypeError: cell id must be a str, got {value!r}`` otherwise.
``instance(value, cls)`` passes an instance of `cls`, raising
``TypeError: expected a {cls}, got {type of value}`` otherwise.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A value object whose fields are the ``__slots__`` of its classes.

    A subclass lists its fields in ``__slots__``; the constructor takes
    their values positionally, in that order.  A subclass that checks or
    coerces its fields writes its own ``__init__``, which hands the values
    on to this one.  Afterwards assigning or deleting a field raises
    AttributeError.  Equality and hashing use the fields and hold only
    between instances of the same class, and the repr is
    ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        # the fields' tuple, or the one field's value: a key within one class
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            name = self.__class__.__qualname__
            raise TypeError(f"{name} takes {len(self._fields)} fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return self.__class__, self._values()


def integer(value, what: str, nonnegative: bool = False) -> int:
    """`value` if it is an int, not a bool, and with `nonnegative` not below 0."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {value!r}")
    if nonnegative and value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


def cell_id(value) -> str:
    """`value` if it is a str."""
    if not isinstance(value, str):
        raise TypeError(f"cell id must be a str, got {value!r}")
    return value


def instance(value, cls):
    """`value` if it is an instance of `cls`."""
    if not isinstance(value, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(value).__name__}")
    return value
