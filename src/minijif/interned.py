"""Hash-consed immutable values: one live object per distinct value.

A subclass names its fields in ``__match_args__``, and in ``__slots__`` unless
it keeps cached properties in an instance ``__dict__``.  Building an instance
whose class and fields equal those of a live one returns the live one, so
equality is identity and hashing is O(1) however deep the value is.
Copying and unpickling rebuild through the constructor, so they return the
same object too.

The table holds its values weakly: an entry goes when its value dies, and
never while the value lives, since two live equal values would compare
unequal.  Its keys hold the fields, which are themselves interned or plain
strings, tuples and frozensets, so a table key hashes in time independent of
depth.
"""

from __future__ import annotations

from weakref import ref

_table: dict[tuple, "_Entry"] = {}


class _Entry(ref):
    """Weak reference to an interned value, remembering its table key."""

    __slots__ = ("key",)


def _forget(entry: _Entry, table: dict = _table) -> None:
    # Runs when the value dies.  The table is bound as a default so this
    # works during interpreter shutdown, when module globals may be gone.
    if table.get(entry.key) is entry:
        del table[entry.key]


class Interned:
    """Base of hash-consed values; fields are given positionally."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *values):
        key = (cls, *values)
        entry = _table.get(key)
        if entry is not None:
            obj = entry()
            if obj is not None:
                return obj
        fields = cls.__match_args__
        if len(values) != len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} field(s), got {len(values)}")
        obj = object.__new__(cls)
        for name, value in zip(fields, values):
            object.__setattr__(obj, name, value)
        entry = _Entry(obj, _forget)
        entry.key = key
        _table[key] = entry
        return obj

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __deepcopy__(self, memo: dict):
        return self  # without this, deepcopy would rebuild the fields first

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"
