"""The ``Record`` base and ``Span`` against ``collections.namedtuple``, and
``render_json`` against ``json.dumps``."""

import collections
import copy
import json
import os
import pickle

import pytest
from hypothesis import given, strategies as st

import minijif.cli  # noqa: F401  (imports every module, so every record class exists)
from minijif.checker import TrustConfig, check_program
from minijif.diagnostics import CATALOG, Diagnostic, render_json
from minijif.parser import parse_program
from minijif.span import Record, Span
from conftest import bench_gen, corpus_files
from oracles import to_json_obj

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: (cls.__module__, cls.__name__))
SAMPLE = {"code": "E-FLOW"}  # a field value that a constructor checks


def test_every_record_class_is_found():
    # the 24 AST nodes, SemLabel, ParamInfo, MethodInfo, TrustConfig, Diagnostic, and
    # the tests' Token; Span is a flat tuple of its own
    assert len(RECORDS) == 30
    assert sum(cls.__module__ == "minijif.syntax" for cls in RECORDS) == 24


def match_positionally(obj: Record) -> tuple:
    """The values a positional class pattern with one capture per field binds."""
    names = [f"v{i}" for i in range(len(obj._fields))]
    source = (f"match obj:\n    case cls({', '.join(names)}):\n"
              f"        bound = ({''.join(n + ', ' for n in names)})\n")
    scope = {"obj": obj, "cls": type(obj)}
    exec(source, scope)
    return scope["bound"]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_a_namedtuple(cls):
    fields = tuple(cls.__annotations__)
    assert cls._fields == cls.__match_args__ == fields
    values = tuple(SAMPLE.get(f, (i, f)) for i, f in enumerate(fields))
    obj = cls(*values)
    assert type(obj) is cls and tuple(obj) == values
    assert tuple(getattr(obj, f) for f in fields) == values
    with pytest.raises(TypeError):
        cls(*values, None)
    if cls is TrustConfig:  # its every field has a default
        assert cls() == (True, ())
    else:
        with pytest.raises(TypeError):
            cls()
    reference = collections.namedtuple(cls.__name__, fields)(*values)
    assert repr(obj) == repr(reference)
    assert obj == reference == values and hash(obj) == hash(reference)
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        setattr(obj, fields[0], None)
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls and other == obj
    assert match_positionally(obj) == values


def test_span_behaves_as_a_namedtuple_of_three_fields():
    span = Span("f.mjif", (1, 2), (1, 3))
    assert type(span) is Span and (span.file, span.start, span.end) == ("f.mjif", (1, 2), (1, 3))
    assert type(span.start) is type(span.end) is tuple
    reference = collections.namedtuple("Span", "file start end")("f.mjif", (1, 2), (1, 3))
    assert repr(span) == repr(reference) == "Span(file='f.mjif', start=(1, 2), end=(1, 3))"
    assert str(span) == "f.mjif:1:2"
    twin = Span("f.mjif", (1, 2), (1, 3))
    assert twin is not span and twin == span and hash(twin) == hash(span)
    assert span != Span("f.mjif", (1, 2), (1, 4))
    assert not hasattr(span, "__dict__")
    with pytest.raises(AttributeError):
        span.file = "g.mjif"
    copies = [copy.copy(span), copy.deepcopy(span)]
    copies += [pickle.loads(pickle.dumps(span, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is Span and other == span and repr(other) == repr(span)


# a diagnostic's strings may hold any code point: a file name that ``os.fsdecode``
# could not decode holds lone surrogates
SPECIAL = '"\\/\x00\x1f\x7f\n\t 𐃿\U0001f600' + os.fsdecode(b"\xff")
TEXT = st.text(st.sampled_from(SPECIAL) | st.characters(exclude_categories=()))
POSITION = st.tuples(st.integers(), st.integers())
DIAGNOSTICS = st.lists(st.builds(
    Diagnostic, st.sampled_from(sorted(CATALOG)), st.builds(Span, TEXT, POSITION, POSITION),
    TEXT, st.none() | TEXT, st.none() | TEXT), max_size=4)


def json_reference(diagnostics: list[Diagnostic]) -> str:
    return json.dumps([to_json_obj(d) for d in diagnostics], indent=2)


@given(DIAGNOSTICS)
def test_render_json_is_the_indented_json_dumps(diagnostics):
    assert render_json(diagnostics) == json_reference(diagnostics)


def test_render_json_of_no_diagnostics():
    assert render_json([]) == json_reference([]) == "[]"


def test_render_json_of_the_checker_diagnostics():
    gen = bench_gen()
    sources = [(str(path), path.read_text()) for path in corpus_files()]
    sources += [("deep.mjif", gen.generate("deep_nesting", 1)[0])]
    for file, source in sources:
        diagnostics = check_program(parse_program(source, file=file))
        assert render_json(diagnostics) == json_reference(diagnostics), file
