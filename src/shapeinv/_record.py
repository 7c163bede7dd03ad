"""Immutable record types, built without code generation at import.

A frozen dataclass compiles its __init__, ==, hash, repr and attribute
guards with `exec` for every class, which costs about a millisecond a
class whenever the package is imported. `Record` supplies the same
behaviour from one shared implementation driven by each subclass's
`_fields` tuple:

- == compares the field values as a tuple, for instances of the same class;
- hash is the hash of that tuple;
- repr is `ClassName(field=value!r, ...)`;
- assigning or deleting any attribute raises FrozenInstanceError;
- copy, deepcopy and pickle call the class again with the field values, so
  every copy is validated and rebuilds what its __init__ derives;
- the constructor takes every field, in `_fields` order, by position or by
  name; a call that does not pass them all by position goes through
  `_binder`, so Python itself words the TypeError of a missing, unexpected
  or surplus argument.

A record that validates, converts or derives values, or gives a field a
default, writes its own __init__ as a dataclass's __post_init__ would, and
stores the values through `self.__dict__`, the one path the guard leaves
open.
"""

from __future__ import annotations

from functools import cache


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _binder(type(self))(self, *args, **kwargs)
        self.__dict__.update(zip(fields, args))

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

    # dataclasses is imported only to raise: at load it would pull inspect,
    # ast, dis and tokenize into every process that never needs them
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


@cache
def _binder(cls):
    """def __init__(self, <cls._fields>) returning the field values in order,
    compiled on the class's first call that is not all positional."""
    params = ", ".join(cls._fields)
    scope = {}
    exec(f"def __init__(self, {params}): return ({params}{',' * bool(params)})",
         scope)
    binder = scope["__init__"]
    binder.__qualname__ = f"{cls.__qualname__}.__init__"
    return binder
