"""Immutable value records without the dataclasses module.

A record class lists its fields in __slots__ and writes its own __init__,
which takes the fields in that order (copy and pickle call it), checks
them and stores each with set_field.  Records compare equal when they have
the same class and the same fields, hash as the tuple of their fields,
print as Name(field=value, ...), and refuse assignment with
AttributeError.  A class that also stores values derived from its fields
names the fields alone in _fields; the derived slots then take no part in
equality, hashing, repr or copying.

Every CLI peer is a fresh process, and with CPython 3.11 on 2 CPUs
importing dataclasses (it loads inspect) took about 15 ms of its start and
building the frozen dataclasses about 10 ms more.  Each class keeps its own
__init__ because a simulator trial builds 13 records (23 under attack): a
generic *args/**kwargs __init__ here cut sim-small throughput by a third
when a trial built about 50.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__  # the one way to store a field, in __init__ only


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        get = attrgetter(*fields)
        # the field tuple; attrgetter of a single name returns the bare value
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({inner})"

    def __reduce__(self):
        return self.__class__, self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
