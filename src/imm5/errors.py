"""Exception types shared across the package, how messages quote values, and
the base of the package's value types."""

import reprlib
from functools import cached_property


class _Quote(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than the interpreter converts to str
            return f"<int of {x.bit_length()} bits>"


# Quotes an offending input value in an error message in at most about 200
# characters: nested containers show as [...], long scalars lose their middle.
_QUOTE = _Quote()
_QUOTE.maxlevel = 1
_QUOTE.maxdict = 3
_QUOTE.maxlong = 30


class Imm5Error(Exception):
    """Base class for every error raised by this package."""


class ParseError(Imm5Error):
    """Malformed input file or command-line value."""


class AsymmetricMatrix(ParseError):
    """A linking matrix that is not square and symmetric."""


class ParityError(Imm5Error):
    """Numeric Seifert data whose parity rules out any genuine filling."""


class WuMismatch(Imm5Error):
    """Connected-sum arithmetic attempted across different Wu classes."""


class InvalidSpinStructure(Imm5Error):
    """A vector that fails the characteristic-sublink equation."""


class NoSolution(Imm5Error):
    """A linear system over Z2 with empty solution set."""


class CosetUncovered(Imm5Error):
    """Bounding-signature data missing for some Wu class."""


class ParityViolation(Imm5Error):
    """A base signature whose parity disagrees with alpha."""


class HypothesisViolated(Imm5Error):
    """A criterion invoked outside its stated hypotheses."""


class MissingData(Imm5Error):
    """A validator needs a field the record does not carry."""


class _Value:
    """Base of the package's value types, which behave as frozen dataclasses
    without the cost of generating their methods at import.

    A subclass declares its fields as annotations, in constructor order,
    with any default in the class body; they follow the fields of the class
    it extends.  Its ``__init__`` stores them through ``_set``.  It gets the
    repr ``Name(field=value, ...)``, ``==`` on the fields within one class
    (NotImplemented across classes), the hash of the tuple of its fields,
    and refuses assignment and deletion of attributes.  Instances keep a
    ``__dict__``, which ``cached_property`` writes to and pickle and
    copy restore.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = (*cls._fields, *cls.__annotations__)

    def _set(self, *values) -> None:
        """Stores values as the fields, in order, straight into the instance
        dict, past the refusing ``__setattr__``."""
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _cached(cached_property):
    """``functools.cached_property`` without the lock that Python 3.11 takes
    on every first read: the value is computed, written to the instance dict
    and returned.  Later reads find it there.  Two threads that read one
    instance's value for the first time may both compute it, as on 3.12."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value
