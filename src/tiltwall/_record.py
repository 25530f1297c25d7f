"""The immutable-record base of the library's value classes.

A record lists its fields in ``__slots__`` and sets them in its own
``__init__`` with ``object.__setattr__``, after whatever validation the
class makes.  The base supplies what a frozen data class would:
equality and hashing on the tuple of fields, the ``Name(field=value, ...)``
repr in slot order, an ``AttributeError`` on assigning or deleting a
field, and pickling and copying through the constructor.  Its one import is
``operator``, which ``fractions`` loads anyway.
"""

from operator import attrgetter


class Record:
    """Immutable value with the fields named in the subclass's ``__slots__``,
    two or more of them, so that ``_values`` returns a tuple."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(attrgetter(*cls.__slots__))
        cls.__match_args__ = cls.__slots__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # every record's __init__ takes its fields positionally in slot order
        return self.__class__, self._values(self)
