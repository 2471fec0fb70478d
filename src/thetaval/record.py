"""`Record`, the one immutable value type of the package, and `as_fraction`,
here so that `precision.py` stays below the about 8,192 tokens it is held to."""

from fractions import Fraction
from operator import attrgetter

_set_field = object.__setattr__


class Record:
    """An immutable value whose fields are its classes' `__slots__`.

    Two records are equal when they are of one class with equal fields.  The
    hash is computed on first use and kept, so a tree of records hashes in
    O(1) however often it keys a memo; pickling rebuilds a record from its
    field values, so a kept hash never crosses into another process.  A
    subclass that validates or normalises its fields, or has defaults,
    defines `__init__` and passes the final values to `Record.__init__`.
    """

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()  # the __set__ of each field's slot descriptor

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._key = attrgetter(*cls._fields or ["_fields"])  # a field's value, or a tuple

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            try:
                values += tuple(named.pop(name) for name in fields[len(values) :])
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__} needs the field {exc}") from None
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes exactly the fields {fields}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)
        _set_field(self, "_hash", None)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.__class__, self._key(self)))
            _set_field(self, "_hash", h)
        return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def as_fraction(x) -> Fraction:
    """x itself if its type is Fraction, else Fraction(x) (a subclass too):
    Fraction(x) of a Fraction is a copy, made through a slow Rational check."""
    return x if type(x) is Fraction else Fraction(x)
