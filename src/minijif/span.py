"""Source positions shared by the lexer, parser, and diagnostics, and the
``Record`` base of every plain record in the package."""

from __future__ import annotations

from _collections import _tuplegetter

_tuple_new = tuple.__new__


class _RecordType(type):
    """Makes the annotations of a class body its tuple fields."""

    def __new__(mcls, name: str, bases: tuple, namespace: dict):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["__slots__"] = ()
        namespace["_fields"] = namespace["__match_args__"] = fields
        for i, field in enumerate(fields):
            namespace[field] = _tuplegetter(i, None)  # the C accessor of namedtuple
        return super().__new__(mcls, name, bases, namespace)


class Record(tuple, metaclass=_RecordType):
    """An immutable record: a tuple of the fields its class annotates, in order.

    It behaves as a ``collections.namedtuple`` does for positional construction,
    field access, matching, copying, pickling and ``repr``, and is defined
    without generating code.  A subclass with defaults or keyword arguments
    defines its own ``__new__``.  Being a tuple, it compares equal to any
    tuple of the same values, whatever its class.
    """

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} field(s), "
                            f"got {len(values)}")
        return _tuple_new(cls, values)

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


class Span(Record):
    """Half-open source region; line/column are 1-based, end is exclusive."""

    file: str
    start: tuple[int, int]
    end: tuple[int, int]

    def __str__(self) -> str:
        return f"{self.file}:{self.start[0]}:{self.start[1]}"
