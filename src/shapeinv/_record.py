"""Immutable record types, built without per-class code generation.

A frozen dataclass compiles its ==, hash, repr and attribute guards with
`exec` for every class, which costs about a millisecond a class whenever
the package is imported. `Record` supplies the same behaviour from one
shared implementation driven by each subclass's `_fields` tuple:

- == compares the field values as a tuple, for instances of the same class;
- hash is the hash of that tuple;
- repr is `ClassName(field=value!r, ...)`;
- assigning or deleting any attribute raises FrozenInstanceError;
- copy, deepcopy and pickle call the class again with the field values, so
  every copy is validated and rebuilds what its __init__ derives.

Each subclass writes a plain __init__ taking its fields in order. It does
the validation a dataclass would do in __post_init__ and stores the values
through `self.__dict__`, the one path the guard leaves open.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
