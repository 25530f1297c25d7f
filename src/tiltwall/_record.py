"""The immutable-value base of the library's value classes.

A record lists its fields in ``__slots__``, one or more of them, and its
``__init__`` makes whatever coercions, checks and defaults the class needs
and then hands the slot values, in slot order, to ``self._set``: the one
path by which a slot is ever set.  ``_set`` is built once per class, as
``dataclasses`` builds an ``__init__``: it takes exactly one value per slot,
positionally and in slot order, so a missing or an extra value raises
TypeError at once, and it makes one call of each slot's own descriptor,
with no loop.  For 3 slots it takes about 0.21 us where a ``zip`` loop over
the descriptors took 0.48-0.53 us (Python 3.11.7, timeit best of 7); on
3.10.13, 3.12.1 and 3.13.0 the loop took 0.55-0.76 us and this setter
0.23-0.29 us.  A class's setter is compiled on its first ``_set`` call
(about 0.05-0.1 ms), so a process compiles only the setters of the classes
it builds (``import tiltwall.cli`` builds a NumClass and a Slope).

A slot whose name starts with an underscore, listed after the fields, is no
field: it holds a value that ``__init__`` derives from the fields once (a
collection's slopes, say).  The base supplies what a frozen data class would,
on the fields alone: equality and hashing on the tuple of fields, the
``Name(field=value, ...)`` repr in slot order, an ``AttributeError`` on
assigning or deleting any slot, and pickling and copying through the
constructor, which derives the derived slots again.  A class may replace the
equality, hash or repr with its own.  A class that defines ``_cmp(other)``,
the sign of self - other or None for an operand it does not compare, is
ordered by it instead: it gets ``==``, ``<``, ``<=``, ``>``, ``>=`` from one
``_cmp`` call each, None giving NotImplemented, and keeps its own
``__hash__``.  Its one import is ``operator``, which ``fractions`` loads
anyway.
"""

from operator import attrgetter, eq, ge, gt, le, lt


def _order(test):
    """The rich comparison ``test`` of a record with another value, from one
    ``_cmp`` call: ``test`` applied to the sign of self - other and 0, or
    NotImplemented for an operand that ``_cmp`` does not compare."""

    def compare(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else test(c, 0)
    return compare


def _first_set(self, *values):
    """A record class's ``_set`` until its first call, which puts the class's
    positional setter in its place and sets the slots with it.  The setter
    ``_set(self, a0, a1, ...)`` calls ``s0(self, a0)``, ``s1(self, a1)``, ...
    in slot order, where its global ``si`` is slot i's descriptor setter."""
    cls = self.__class__
    indices = range(len(cls.__slots__))
    namespace = dict(zip(map("s{}".format, indices),
                         [getattr(cls, name).__set__ for name in cls.__slots__]))
    exec("def _set(self, %s):\n%s" % (
        ", ".join(map("a{}".format, indices)),
        "".join(map("    s{0}(self, a{0})\n".format, indices))), namespace)
    cls._set = _set = namespace["_set"]
    _set.__qualname__ = cls.__qualname__ + "._set"
    _set(self, *values)


class Record:
    """Immutable value with the fields named in the subclass's ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__slots__
        fields = tuple(name for name in slots if not name.startswith("_"))
        get = attrgetter(*fields)
        cls._set = _first_set
        cls._values = staticmethod(
            get if len(fields) > 1 else lambda record: (get(record),))
        cls.__match_args__ = fields
        if "_cmp" in vars(cls):
            # one _cmp call per comparison; != is the negation of ==
            for test in (eq, lt, le, gt, ge):
                setattr(cls, f"__{test.__name__}__", _order(test))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__match_args__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # every record's __init__ takes its fields positionally in slot order
        return self.__class__, self._values(self)
