import ast as pyast
import gc
import importlib.metadata
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minijif.checker import check_program
from minijif.diagnostics import render_json
from minijif import cli
from minijif.cli import main
from minijif.lexer import KEYWORDS, MAX_INT_DIGITS, SYMBOLS
from minijif.parser import MAX_NESTING, parse_program
from minijif import syntax as ast
from conftest import CORPUS_DIR, REPO_ROOT, bench_gen, corpus_files
from oracles import ast_equal
from pretty import pretty_print

NOT_UTF8 = b"\xff\xfe"
# a 5,000-digit literal, more than int() converts on CPython 3.10.7 and later
LONG_LITERAL_PREFIX = "class C { void m{}() { int x = "
LONG_LITERAL = LONG_LITERAL_PREFIX + "9" * 5000 + "; } }\n"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCheck:
    def test_clean_file_exits_zero(self, capsys):
        code, out, _ = run_cli("check", str(CORPUS_DIR / "booking_ok.mjif"), capsys=capsys)
        assert code == 0
        assert out == ""

    def test_diagnostics_exit_one(self, capsys):
        code, out, _ = run_cli(
            "check", str(CORPUS_DIR / "booking_no_declassify.mjif"), capsys=capsys
        )
        assert code == 1
        assert "E-FLOW" in out
        assert "{Owner->Operator}" in out

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli("check", "no_such_file.mjif", capsys=capsys)
        assert code == 2
        assert "no_such_file" in err

    def test_unreadable_file_is_named_as_given(self, capsys):
        # as its diagnostics would name it, not normalised to 'no_such/file.mjif'
        code, _, err = run_cli("check", "./no_such//file.mjif", capsys=capsys)
        assert (code, err) == (2, "error: [Errno 2] No such file or directory: "
                                  "'./no_such//file.mjif'\n")

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.mjif"
        bad.write_text("class X [")
        code, _, err = run_cli("check", str(bad), capsys=capsys)
        assert code == 2
        assert "expected" in err

    def test_json_output_is_valid_and_stable(self, capsys):
        path = str(CORPUS_DIR / "booking_bob_leak.mjif")
        code1, out1, _ = run_cli("check", "--json", path, capsys=capsys)
        code2, out2, _ = run_cli("check", "--json", path, capsys=capsys)
        assert code1 == code2 == 1
        assert out1 == out2
        payload = json.loads(out1)
        assert payload[0]["code"] == "E-FLOW"
        assert set(payload[0]) == {"code", "span", "from", "to", "message"}
        assert payload[0]["span"]["start"] == [27, 9]

    def test_no_trust_main(self, capsys):
        code, out, _ = run_cli(
            "check", "--no-trust-main", str(CORPUS_DIR / "booking_ok.mjif"), capsys=capsys
        )
        assert code == 1
        # three authority claims of main, and the two `new Booking[...]` in it
        assert out.count("E-AUTH-CLAIM") == 5

    def test_max_errors(self, capsys):
        code, out, _ = run_cli(
            "check", "--no-trust-main", "--max-errors", "1",
            str(CORPUS_DIR / "booking_ok.mjif"), capsys=capsys,
        )
        assert code == 1
        assert out.count("E-AUTH-CLAIM") == 1
        assert "4 more error(s) suppressed" in out

    def test_negative_max_errors_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            "check", "--max-errors", "-1", str(CORPUS_DIR / "booking_ok.mjif"), capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: --max-errors must be non-negative, got -1\n"

    def test_max_errors_zero_shows_none(self, capsys):
        code, out, _ = run_cli(
            "check", "--no-trust-main", "--max-errors", "0",
            str(CORPUS_DIR / "booking_ok.mjif"), capsys=capsys,
        )
        assert code == 1
        assert out == "... 5 more error(s) suppressed\n"

    def test_hierarchy_enables_flow(self, tmp_path, capsys):
        src = tmp_path / "memo.mjif"
        src.write_text(
            "principal Alice;\nprincipal Bob;\nprincipal Carol;\n"
            "class Main {\n"
            "    void main{}() {\n"
            "        String{Alice->Bob} memo = \"m\";\n"
            "        String{Alice->Carol} copy = memo;\n"
            "    }\n"
            "}\n"
        )
        code, *_ = run_cli("check", str(src), capsys=capsys)
        assert code == 1
        trust = tmp_path / "trust.hier"
        trust.write_text("principal Bob\nprincipal Carol\nactsfor Carol >= Bob\n")
        code, *_ = run_cli("check", "--hierarchy", str(trust), str(src), capsys=capsys)
        assert code == 0

    def test_loop_labels_do_not_depend_on_the_hierarchy(self, tmp_path, capsys):
        # with A >= B the loop condition adds {B->*} to a pc of {A->*} without
        # raising it; the loop still ends only when a pass adds no component
        src = tmp_path / "loop.mjif"
        src.write_text(
            "principal A; principal B;\n"
            "class K { int g{}(int{} x) { return x; }\n"
            "  void main{}() { int{A->*} s = 1; int{B->*} t = 2; K{} k = new K();\n"
            "    if (s > 0) { while (t > k.g(0)) { t = t - 1; } } } }\n"
        )
        trust = tmp_path / "trust.hier"
        trust.write_text("principal A\nprincipal B\nactsfor A >= B\n")
        code, out, _ = run_cli("check", "--json", str(src), capsys=capsys)
        assert code == 1
        assert run_cli("check", "--json", "--hierarchy", str(trust), str(src),
                       capsys=capsys) == (code, out, "")

    def test_hierarchy_edges_reach_the_checker_as_names(self, tmp_path, monkeypatch, capsys):
        seen = []

        def recording(program, trust):
            seen.append(trust)
            return check_program(program, trust)

        monkeypatch.setattr("minijif.cli.check_program", recording)
        trust = tmp_path / "trust.hier"
        trust.write_text("principal Alice\nactsfor * >= Alice\n")
        code, *_ = run_cli("check", "--hierarchy", str(trust),
                           str(CORPUS_DIR / "booking_ok.mjif"), capsys=capsys)
        assert code == 0
        (edge,) = seen[0].extra_delegations
        assert edge == ("*", "Alice")
        assert all(type(p) is str for p in edge)

    def test_hierarchy_endpoint_must_be_declared_by_program(self, tmp_path, capsys):
        src = tmp_path / "tiny.mjif"
        src.write_text("principal Alice;\n")
        trust = tmp_path / "trust.hier"
        trust.write_text("principal Ghost\nprincipal Alice\nactsfor Ghost >= Alice\n")
        code, _, err = run_cli("check", "--hierarchy", str(trust), str(src), capsys=capsys)
        assert code == 2
        assert "Ghost" in err

    def test_undeclared_hierarchy_endpoint_reported_does_not_depend_on_hash_seed(self, tmp_path):
        # the edges come from a set, whose iteration order varies with the string hash seed
        src = tmp_path / "tiny.mjif"
        src.write_text("principal Alice;\n")
        trust = tmp_path / "trust.hier"
        trust.write_text("principal Alice\n" + "".join(
            f"principal G{i}\nactsfor G{i} >= Alice\n" for i in (3, 1, 2)))
        errs = set()
        for seed in range(1, 5):
            env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONHASHSEED": str(seed)}
            proc = subprocess.run([sys.executable, "-m", "minijif.cli", "check", "--hierarchy",
                                   str(trust), str(src)],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 2
            errs.add(proc.stderr)
        assert errs == {f"error: --hierarchy: undeclared principal: G1 (not declared by {src})\n"}

    def test_non_utf8_source_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.mjif"
        bad.write_bytes(NOT_UTF8)
        code, out, err = run_cli("check", str(bad), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_utf8_hierarchy_exits_two(self, tmp_path, capsys):
        trust = tmp_path / "trust.hier"
        trust.write_bytes(NOT_UTF8)
        code, out, err = run_cli(
            "check", "--hierarchy", str(trust), str(CORPUS_DIR / "booking_ok.mjif"), capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read hierarchy file") and err.count("\n") == 1

    def test_long_integer_literal_is_a_lex_error(self, tmp_path, capsys):
        bad = tmp_path / "long.mjif"
        bad.write_text(LONG_LITERAL)
        code, out, err = run_cli("check", str(bad), capsys=capsys)
        assert code == 2
        assert out == ""
        col = len(LONG_LITERAL_PREFIX) + 1
        assert err == f"error: {bad}:1:{col}: integer literal too long\n"

    def test_internal_error_is_one_line_and_exits_two(self, monkeypatch, capsys):
        def fault(*args):
            raise RuntimeError("checker fault")

        monkeypatch.setattr("minijif.cli.check_program", fault)
        code, out, err = run_cli("check", str(CORPUS_DIR / "booking_ok.mjif"), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "internal error: RuntimeError('checker fault')\n"

    def test_os_error_of_no_write_is_an_internal_error(self, monkeypatch, capsys):
        def fault(*args):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr("minijif.cli.check_program", fault)
        code, out, err = run_cli("check", str(CORPUS_DIR / "booking_ok.mjif"), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "internal error: OSError(5, 'Input/output error')\n"

    def test_multiple_files_sorted_output(self, capsys):
        paths = [str(CORPUS_DIR / "undefined_names.mjif"), str(CORPUS_DIR / "arity.mjif")]
        code, out, _ = run_cli("check", *paths, capsys=capsys)
        assert code == 1
        assert out.index("arity.mjif") < out.index("undefined_names.mjif")


def _method_body(body):
    return f"class C {{\n    void m{{}}() {{\n{body}\n    }}\n}}\n"


class TestOverDeepInput:
    """Input nested past the parser's limit is a parse error, never a crash;
    long flat input is checked without a crash."""

    def _check(self, tmp_path, capsys, source, *flags):
        path = tmp_path / "deep.mjif"
        path.write_text(source)
        return (str(path), *run_cli("check", *flags, str(path), capsys=capsys))

    def test_nested_ifs(self, tmp_path, capsys):
        depth = 400
        body = "if (true) {\n" * depth + "}\n" * depth
        # the method body is level 1, so the 150th if opens level 151 on line 152
        path, code, out, err = self._check(tmp_path, capsys, _method_body(body))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}:152:11: expected at most {MAX_NESTING} "
                       "levels of nesting, got {\n")

    def test_nested_parentheses(self, tmp_path, capsys):
        depth = 150
        body = "int x = " + "(" * depth + "1" + ")" * depth + ";"
        path, code, out, err = self._check(tmp_path, capsys, _method_body(body))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}:3:{8 + depth}: expected at most {MAX_NESTING} "
                       "levels of nesting, got (\n")

    def test_deep_nesting_workload_past_the_limit(self, tmp_path, capsys):
        source, _ = bench_gen().deep_nesting(random.Random("deep_nesting:1"), depth=200)
        path, code, out, err = self._check(tmp_path, capsys, source)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}:") and err.count("\n") == 1
        assert f"expected at most {MAX_NESTING} levels of nesting" in err

    def test_deep_nesting_workload_within_the_limit(self, tmp_path, capsys):
        source, expected = bench_gen().deep_nesting(random.Random("deep_nesting:1"), depth=120)
        path, code, out, err = self._check(tmp_path, capsys, source, "--json")
        assert (code, err) == (1, "")
        assert sorted((d["code"], d["span"]["start"][0]) for d in json.loads(out)) == expected
        program = parse_program(source)
        assert ast_equal(parse_program(pretty_print(program)), program)

    def test_long_operator_chain(self, tmp_path, capsys):
        body = "int x = " + " + ".join(["1"] * 1000) + ";"
        _, code, out, err = self._check(tmp_path, capsys, _method_body(body))
        assert (code, out, err) == (0, "", "")
        program = parse_program(_method_body(body))
        assert pretty_print(program) == _method_body("        " + body)

    # pc and value labels that join two policies hundreds of times list each once
    def test_many_early_returns_on_alternating_labels(self, tmp_path, capsys):
        body = "if (a > 1) { return 1; } if (b > 1) { return 2; }\n" * 250 + "return 0;"
        source = ("principal A;\nprincipal B;\nclass C {\n"
                  f"    int{{A->*; B->*}} m{{}}(int{{A->*}} a, int{{B->*}} b) {{\n{body}\n    }}\n}}\n")
        _, code, out, err = self._check(tmp_path, capsys, source)
        assert (code, out, err) == (0, "", "")

    def test_long_operator_chain_over_two_labels(self, tmp_path, capsys):
        chain = " + ".join(["a", "b"] * 400)
        source = ("principal A;\nprincipal B;\nclass C {\n"
                  "    void m{}(int{A->*} a, int{B->*} b) {\n"
                  f"        int{{A->*; B->*}} x = {chain};\n    }}\n}}\n")
        _, code, out, err = self._check(tmp_path, capsys, source)
        assert (code, out, err) == (0, "", "")

    # the labels the checker builds may have any number of `;` components
    def test_sum_over_many_principals(self, tmp_path, capsys):
        n = 700
        decls = "".join(f"principal P{i};\n" for i in range(n))
        body = "".join(f"int{{P{i}->*}} x{i} = 0;\n" for i in range(n))
        body += "int{} y = " + " + ".join(f"x{i}" for i in range(n)) + ";"
        _, code, out, err = self._check(tmp_path, capsys, decls + _method_body(body), "--json")
        assert (code, err) == (1, "")
        assert [d["code"] for d in json.loads(out)] == ["E-FLOW"]


_WORDS = sorted(KEYWORDS) + SYMBOLS + ["x", "y", "Alice", "C", "m", "0", "17", '"s"', "\n"]
_SOUP = st.lists(st.sampled_from(_WORDS), max_size=60).map(" ".join)

# Mostly well-formed programs, so that most of them reach the checker.
_LABEL = st.sampled_from([
    "", "{}", "{P->*}", "{Alice->*}", "{Alice<-*}", "{Alice->Bob; Bob<-*}", "{Bob->_}",
    "{L}", "{Ghost->*}", "{(Alice->*; P->*) meet Bob->*}",
])
_TYPE = st.sampled_from(["int", "boolean", "String", "void", "C[Alice]", "C[*]", "C", "D"])
_EXPR = st.recursive(
    st.sampled_from(["x", "y", "o", "f", "g", "1", "true", '"t"', "nobody"]),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from(sorted(ast.BINARY_PRECEDENCE)), e).map(" ".join),
        e.map("({})".format),
        e.map("{}.f".format),
        st.tuples(e, e).map(lambda t: f"{t[0]}.m({t[1]})"),
        st.tuples(st.sampled_from(["C[Alice]", "C[Bob]", "C", "D"]), e).map(
            lambda t: f"new {t[0]}({t[1]})"),
        st.tuples(e, _LABEL, _LABEL).map(lambda t: f"declassify({t[0]}, {t[1]} to {t[2]})"),
        st.tuples(st.sampled_from(["length", "concat", "nope"]), st.lists(e, max_size=3)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"),
    ),
    max_leaves=8,
)
_STMT = st.recursive(
    st.one_of(
        st.tuples(_TYPE, _LABEL, st.sampled_from("xyzo"), _EXPR).map(
            lambda t: f"{t[0]}{t[1]} {t[2]} = {t[3]};"),
        st.tuples(st.sampled_from(["x", "y", "o.f", "f", "g"]), _EXPR).map(
            lambda t: f"{t[0]} = {t[1]};"),
        _EXPR.map("return {};".format),
        st.just("return;"),
        _EXPR.map("{};".format),
    ),
    lambda s: st.tuples(st.sampled_from(["if", "while"]), _EXPR, st.lists(s, max_size=3),
                        st.lists(s, max_size=2)).map(
        lambda t: f"{t[0]} ({t[1]}) {{ {' '.join(t[2])} }}"
        + (f" else {{ {' '.join(t[3])} }}" if t[0] == "if" and t[3] else "")),
    max_leaves=10,
)
_METHOD = st.tuples(_TYPE, _LABEL, _LABEL, _TYPE, _LABEL, _LABEL,
                    st.sampled_from(["", " where authority(P)", " where authority(Alice)"]),
                    st.lists(_STMT, max_size=5)).map(
    lambda t: f"    {t[0]}{t[1]} m{t[2]}({t[3]}{t[4]} x) "
    + (f": {t[5]}" if t[5] else "") + f"{t[6]} {{\n        " + "\n        ".join(t[7]) + "\n    }")
_CLASSES = st.tuples(st.sampled_from(["[principal P]", "[principal P, principal Q]", ""]),
                     st.sampled_from(["", " authority(P)", " authority(Alice)"]),
                     st.lists(_METHOD, min_size=1, max_size=2)).map(
    lambda t: "principal Alice;\nprincipal Bob;\nactsfor Alice >= Bob;\n"
    f"class C{t[0]}{t[1]} {{\n    int{{P->*}} f;\n    int{{}} g;\n    C[P]{{}} o;\n"
    + "\n".join(t[2]) + "\n}\nclass D {\n    void main{}() {\n"
    "        C[Alice] c = new C[Alice]();\n        int{Alice->*} y = c.m(1);\n    }\n}\n")

_PROGRAMS = st.one_of(
    st.text(max_size=80),
    _SOUP,
    _SOUP.map(lambda soup: "principal Alice;\nclass C {\n" + soup + "\n}\n"),
    _SOUP.map(lambda soup: "principal Alice;\n" + _method_body(soup)),
    _CLASSES,
)


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    """``main``'s exit code, stdout and stderr; an argparse usage error counts as its exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_no_crash(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert "internal error" not in err
    # exit 2 always says why on stderr; 0 and 1 never write there
    assert (code == 2) == (err != "")


@settings(max_examples=400, deadline=None)
@given(_PROGRAMS)
def test_check_never_crashes(source):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.mjif"
        path.write_text(source, encoding="utf-8")
        code, out, err = _run_main(["check", str(path)])
    _assert_no_crash(code, err)
    assert (code == 1) == (out != "")


# one E-FLOW, at line 3, so that the sidecar `E-FLOW 3` matches
_SIDECAR_PROGRAM = "principal A;\nclass C { void m{}() {\nint{A->*} s = 1; int{} p = s; } }\n"
_SIDECAR_LINES = st.one_of(
    st.text(max_size=30),
    st.builds("{} {}".format, st.sampled_from(["E-FLOW", "E-TYPE", "#", ""]), st.one_of(
        st.integers(0, 9).map(str),
        st.integers(MAX_INT_DIGITS - 1, MAX_INT_DIGITS + 2).map("9".__mul__),
        st.text(max_size=8),
    )),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_SIDECAR_LINES, max_size=4).map("\n".join))
def test_corpus_never_crashes_on_a_sidecar(sidecar):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "f.mjif").write_text(_SIDECAR_PROGRAM, encoding="utf-8")
        (Path(tmp) / "f.expect").write_text(sidecar, encoding="utf-8")
        code, _, err = _run_main(["corpus", tmp])
    # the sidecar is readable, so exit 2 is a usage error, said on stderr
    _assert_no_crash(code, err)


_NAMES = st.sampled_from(["A", "B", "C", "*", "_"])
_ODD_NAMES = st.one_of(
    st.sampled_from(["D", "class", "a1", "1a", "\u00e9", "A-B", "x" * 300, "9" * (MAX_INT_DIGITS + 1)]),
    st.text(max_size=6),
)
_HIERARCHY_LINES = st.one_of(
    st.builds("principal {}".format, _NAMES),
    st.builds("actsfor {} >= {}".format, _NAMES, _NAMES),
    st.sampled_from(["# comment", "", "actsfor A >= B # c", "  principal\tC  "]),
)
_ODD_HIERARCHY_LINES = st.one_of(
    st.text(max_size=30),
    st.builds("principal {}".format, _ODD_NAMES),
    st.builds("actsfor {} {} {}".format, st.one_of(_NAMES, _ODD_NAMES),
              st.sampled_from([">=", "<=", ">", ""]), st.one_of(_NAMES, _ODD_NAMES)),
    st.sampled_from(["principal", "actsfor", "principal A B", "actsfor A >= B >= C"]),
)
_HIERARCHY_FILES = st.one_of(
    st.lists(_HIERARCHY_LINES, max_size=6)
    .map(lambda lines: "\n".join(["principal A", "principal B", *lines]).encode()),
    st.lists(st.one_of(_HIERARCHY_LINES, _ODD_HIERARCHY_LINES), max_size=6)
    .map("\n".join).map(str.encode),
    st.binary(max_size=20),
)
# declares A, B and C, and has one E-FLOW unless the hierarchy lets B read A's secret
_HIERARCHY_PROGRAM = ("principal A;\nprincipal B;\nprincipal C;\n"
                      "class K { void m{}() { int{A->*} s = 1; int{B->*} p = s; } }\n")


@settings(max_examples=400, deadline=None)
@given(_HIERARCHY_FILES, st.sampled_from([["check"], ["query", "actsfor", "A", "B"],
                                          ["query", "readers", "{A->B}"]]))
def test_hierarchy_files_never_crash(hierarchy, command):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "h.txt").write_bytes(hierarchy)
        (Path(tmp) / "f.mjif").write_text(_HIERARCHY_PROGRAM, encoding="utf-8")
        argv = [command[0], "--hierarchy", str(Path(tmp) / "h.txt"), *command[1:]]
        if command == ["check"]:
            argv.append(str(Path(tmp) / "f.mjif"))
        code, _, err = _run_main(argv)
    _assert_no_crash(code, err)


_LABELS = st.sampled_from(["{}", "{A->B}", "{A->*; B<-_}", "{A->B meet B->*}", "{B->A,B}",
                           "{*->_}", "{C<-A}", "{A->B; A->B}"])
_ODD_ARGS = st.one_of(
    st.sampled_from(["{A<-}", "{A->", "{L}", "{\u00e9->*}", "{A->B} x",
                     "{" * (MAX_NESTING + 1) + "}" * (MAX_NESTING + 1),
                     "9" * (MAX_INT_DIGITS + 1), "-x", "--", ""]),
    st.text(alphabet="{}[]();,-<>*_ ABmet\u00e9", max_size=20),
    st.text(max_size=10),
)
_QUERIES = st.one_of(
    st.tuples(st.just("actsfor"), st.lists(st.one_of(_NAMES, _ODD_NAMES), min_size=2, max_size=2)),
    st.tuples(st.sampled_from(["leq", "join", "meet"]),
              st.lists(st.one_of(_LABELS, _ODD_ARGS), min_size=2, max_size=2)),
    st.tuples(st.sampled_from(["readers", "writers"]),
              st.lists(st.one_of(_LABELS, _ODD_ARGS), min_size=1, max_size=1)),
    st.tuples(st.sampled_from(["actsfor", "leq", "join", "meet", "readers", "writers", "other"]),
              st.lists(st.one_of(_NAMES, _LABELS, _ODD_ARGS), max_size=3)),
)


@settings(max_examples=400, deadline=None)
@given(_QUERIES, st.booleans())
def test_query_arguments_never_crash(query, with_hierarchy):
    subcommand, args = query
    with tempfile.TemporaryDirectory() as tmp:
        hierarchy = Path(tmp) / "h.txt"
        hierarchy.write_text("principal A\nprincipal B\nactsfor A >= B\n", encoding="utf-8")
        options = ["--hierarchy", str(hierarchy)] if with_hierarchy else []
        code, out, err = _run_main(["query", *options, subcommand, *args])
    _assert_no_crash(code, err)
    assert code != 1  # a query reports no diagnostics
    assert (code == 0) == (out != "")


class TestCyclicCollector:
    """A run turns the cyclic collector off, which is safe only while checking builds no cycles."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv", [
        ["check", "--json", str(CORPUS_DIR / "booking_bob_leak.mjif")],
        ["check", "--max-errors", "-1", str(CORPUS_DIR / "booking_ok.mjif")],
        ["query", "join", "{A->*}", "{B->*}"],
        ["corpus", str(CORPUS_DIR)],
    ], ids=["check", "usage-error", "query", "corpus"])
    def test_main_restores_the_collector_state(self, enabled, argv, capsys):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            run_cli(*argv, capsys=capsys)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_checking_leaves_no_cyclic_garbage(self):
        sources = [(str(path), path.read_text()) for path in corpus_files()]
        was = gc.isenabled()
        gc.disable()
        try:
            for path, text in sources:  # warm-up: label caches and lazy imports
                check_program(parse_program(text, file=path))
            gc.collect()
            for path, text in sources:
                render_json(check_program(parse_program(text, file=path)))
                assert gc.collect() == 0, path
        finally:
            if was:
                gc.enable()


class TestQuery:
    def test_actsfor_top(self, capsys):
        code, out, _ = run_cli("query", "actsfor", "*", "Alice", capsys=capsys)
        assert (code, out.strip()) == (0, "true")

    def test_actsfor_false_still_exits_zero(self, capsys):
        code, out, _ = run_cli("query", "actsfor", "Alice", "Bob", capsys=capsys)
        assert (code, out.strip()) == (0, "false")

    def test_leq(self, tmp_path, capsys):
        hier = tmp_path / "h.hier"
        hier.write_text("principal Owner\nprincipal Operator\n")
        code, out, _ = run_cli(
            "query", "--hierarchy", str(hier), "leq", "{Owner->Operator}", "{Owner->*}",
            capsys=capsys,
        )
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run_cli(
            "query", "--hierarchy", str(hier), "leq", "{Owner->*}", "{Owner->Operator}",
            capsys=capsys,
        )
        assert (code, out.strip()) == (0, "false")

    def test_readers_of_bottom_policy(self, tmp_path, capsys):
        hier = tmp_path / "h.hier"
        hier.write_text("principal Alice\nprincipal Bob\n")
        code, out, _ = run_cli(
            "query", "--hierarchy", str(hier), "readers", "{Alice->_}", capsys=capsys
        )
        assert code == 0
        assert out.strip() == "{Alice, Bob, *, _}"

    def test_writers(self, tmp_path, capsys):
        hier = tmp_path / "h.hier"
        hier.write_text("principal Alice\n")
        code, out, _ = run_cli(
            "query", "--hierarchy", str(hier), "writers", "{Alice<-*}", capsys=capsys
        )
        assert (code, out.strip()) == (0, "{Alice, *}")

    def test_outsider_is_acted_for_by_top_alone(self, tmp_path, capsys):
        # A >= * puts A above top; an undeclared Z is still acted for by top alone
        hier = tmp_path / "h.hier"
        hier.write_text("principal A\nprincipal B\nactsfor A >= *\n")
        code, out, _ = run_cli(
            "query", "--hierarchy", str(hier), "readers", "{Z->Z}", capsys=capsys
        )
        assert (code, out.strip()) == (0, "{*}")
        code, out, _ = run_cli(
            "query", "--hierarchy", str(hier), "leq", "{Z->Z}", "{A->A}", capsys=capsys
        )
        assert (code, out.strip()) == (0, "false")

    @pytest.mark.parametrize("p, q, answer", [
        ("A", "*", "true"), ("*", "Z", "true"),
        # transitivity holds among declared principals: A acts for top, yet
        # not for the undeclared Z, whom only top and Z itself act for
        ("A", "Z", "false"), ("Z", "Z", "true"),
    ])
    def test_actsfor_an_outsider(self, tmp_path, capsys, p, q, answer):
        hier = tmp_path / "h.hier"
        hier.write_text("principal A\nprincipal B\nactsfor A >= *\n")
        code, out, _ = run_cli("query", "--hierarchy", str(hier), "actsfor", p, q, capsys=capsys)
        assert (code, out.strip()) == (0, answer)

    def test_join_pretty(self, capsys):
        code, out, _ = run_cli("query", "join", "{Chuck->*}", "{Alice->Chuck}", capsys=capsys)
        assert (code, out.strip()) == (0, "{Chuck->*; Alice->Chuck}")

    def test_written_label_lists_each_component_once(self, capsys):
        # `;` is parsed as a join, so a written label is join-normal as a computed one is
        code, out, _ = run_cli("query", "join", "{A->B; A->B}", "{}", capsys=capsys)
        assert (code, out.strip()) == (0, "{A->B}")

    def test_meet_of_joins_reparses(self, capsys):
        code, out, _ = run_cli(
            "query", "meet", "{A->*; B->*}", "{C->*}", capsys=capsys
        )
        assert code == 0
        from minijif.parser import parse_label
        parse_label(out.strip())  # grammar accepts the parenthesized form

    def test_bad_label_exits_two(self, capsys):
        code, _, err = run_cli("query", "leq", "{Alice->}", "{}", capsys=capsys)
        assert code == 2
        assert err

    def test_wrong_arity_exits_two(self, capsys):
        code, _, err = run_cli("query", "leq", "{}", capsys=capsys)
        assert code == 2

    def test_label_variable_has_no_answer(self, capsys):
        code, _, err = run_cli("query", "readers", "{L}", capsys=capsys)
        assert code == 2


class TestCorpus:
    def test_shipped_corpus_passes(self, capsys):
        code, out, _ = run_cli("corpus", str(CORPUS_DIR), capsys=capsys)
        n = len(corpus_files())
        assert code == 0
        assert f"{n}/{n} corpus files matched" in out

    def test_tampered_expectation_fails(self, tmp_path, capsys):
        work = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, work)
        (work / "booking_ok.expect").write_text("E-FLOW 9\n")
        code, out, _ = run_cli("corpus", str(work), capsys=capsys)
        assert code == 1
        assert "FAIL" in out
        assert "booking_ok" in out

    def test_long_integer_literal_fails_only_its_file(self, tmp_path, capsys):
        long, ok = tmp_path / "a_long.mjif", tmp_path / "b_ok.mjif"
        long.write_text(LONG_LITERAL)
        ok.write_text("principal Alice;\n")
        code, out, err = run_cli("corpus", str(tmp_path), capsys=capsys)
        assert code == 1
        col = len(LONG_LITERAL_PREFIX) + 1
        assert out.splitlines() == [
            f"FAIL {long}: parse error: {long}:1:{col}: integer literal too long",
            f"ok   {ok}",
            "1/2 corpus files matched",
        ]
        assert err == ""

    def test_empty_directory_warns(self, tmp_path, capsys):
        code, out, _ = run_cli("corpus", str(tmp_path), capsys=capsys)
        assert code == 0
        assert "warning" in out

    @pytest.mark.parametrize("suffix", [".mjif", ".expect"])
    def test_non_utf8_file_exits_two(self, tmp_path, suffix, capsys):
        (tmp_path / "ok.mjif").write_text("principal Alice;\n")
        (tmp_path / "ok.expect").write_text("")
        (tmp_path / "ok").with_suffix(suffix).write_bytes(NOT_UTF8)
        code, out, err = run_cli("corpus", str(tmp_path), capsys=capsys)
        assert code == 2
        assert out.startswith("FAIL ") and out.count("\n") == 1
        assert err == ""

    @pytest.mark.parametrize("line", ["E-FLOW \u00b2", "E-FLOW x"])
    def test_malformed_expectation_is_a_usage_error(self, tmp_path, line, capsys):
        (tmp_path / "ok.mjif").write_text("principal Alice;\n")
        (tmp_path / "ok.expect").write_text(line + "\n", encoding="utf-8")
        code, _, err = run_cli("corpus", str(tmp_path), capsys=capsys)
        assert code == 2
        assert err == f"error: {tmp_path / 'ok.expect'}:1: expected '<code> <line>'\n"
        assert "internal error" not in err

    def test_missing_directory_exits_two(self, capsys):
        code, _, err = run_cli("corpus", "does/not/exist", capsys=capsys)
        assert code == 2

    def test_line_number_longer_than_an_int_literal_is_a_usage_error(self, tmp_path, capsys):
        # bounded by length, as the lexer bounds INT literals: int() refuses longer digit strings
        (tmp_path / "ok.mjif").write_text("principal Alice;\n")
        expect = tmp_path / "ok.expect"
        expect.write_text("E-FLOW " + "9" * MAX_INT_DIGITS + "\n")
        code, _, err = run_cli("corpus", str(tmp_path), capsys=capsys)
        assert (code, err) == (1, "")
        expect.write_text("E-FLOW " + "9" * (MAX_INT_DIGITS + 1) + "\n")
        code, _, err = run_cli("corpus", str(tmp_path), capsys=capsys)
        assert code == 2
        assert err == f"error: {expect}:1: expected '<code> <line>'\n"


def cli_env(unbuffered: bool = False) -> dict[str, str]:
    """A subprocess environment that imports ``minijif`` from the working tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def cli_process(*argv: str, env: "dict[str, str] | None" = None) -> subprocess.CompletedProcess:
    """``python -m minijif.cli ARGV`` in a fresh interpreter, its output as bytes."""
    return subprocess.run([sys.executable, "-m", "minijif.cli", *argv], capture_output=True,
                          env=env or cli_env(), timeout=120)


def stdout_closed_process(*argv: str) -> subprocess.CompletedProcess:
    """``python -m minijif.cli ARGV`` started with descriptor 1 closed, its stderr as bytes."""
    return subprocess.run([sys.executable, "-m", "minijif.cli", *argv], stderr=subprocess.PIPE,
                          preexec_fn=lambda: os.close(1), env=cli_env(), timeout=120)


UNBUFFERED = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
LEAK = str(CORPUS_DIR / "booking_bob_leak.mjif")  # one E-FLOW: exit 1
CLOSED_OUTPUT = b"error: cannot write output: [Errno 32] Broken pipe\n"
FULL = "/dev/full"  # every write to it fails with ENOSPC
NEEDS_FULL = pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL}")
FULL_OUTPUT = b"error: cannot write output: [Errno 28] No space left on device\n"


class TestProcessExit:
    """A CLI process ends with ``os._exit`` once ``main`` returns, skipping the
    interpreter's teardown: no output and no atexit handler may be lost to it."""

    @UNBUFFERED
    def test_output_closed_mid_write_is_one_error_line(self, tmp_path, unbuffered):
        # 175 KB of JSON, more than a pipe holds: the reader leaves while it is written
        path = tmp_path / "deep.mjif"
        path.write_text(bench_gen().generate("deep_nesting", 1)[0])
        proc = subprocess.Popen([sys.executable, "-m", "minijif.cli", "check", "--json", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
                                env=cli_env(unbuffered))
        assert proc.stdout.read(1) == b"["
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (2, CLOSED_OUTPUT)

    @UNBUFFERED
    def test_output_closed_before_it_is_written_is_one_error_line(self, unbuffered):
        # buffered, a short output is first written by the final flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "minijif.cli", "check", "--json", LEAK],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=cli_env(unbuffered), timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, CLOSED_OUTPUT)

    @NEEDS_FULL
    @UNBUFFERED
    @pytest.mark.parametrize("argv", [
        ["check", LEAK], ["check", "--json", LEAK], ["query", "join", "{A->*}", "{B->*}"],
        ["corpus", str(CORPUS_DIR)], ["--help"], ["query", "--help"],
    ], ids=["check", "check-json", "query", "corpus", "help", "query-help"])
    def test_output_to_a_full_disk_is_one_error_line(self, argv, unbuffered):
        with open(FULL, "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "minijif.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=cli_env(unbuffered), timeout=120)
        assert (proc.returncode, proc.stderr) == (2, FULL_OUTPUT)

    @NEEDS_FULL
    @UNBUFFERED
    def test_usage_error_to_a_full_disk_exits_two(self, unbuffered):
        with open(FULL, "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "minijif.cli", "bogus"],
                                  stdout=subprocess.PIPE, stderr=full,
                                  env=cli_env(unbuffered), timeout=120)
        assert (proc.returncode, proc.stdout) == (2, b"")

    @UNBUFFERED
    def test_unreadable_file_keeps_its_message(self, tmp_path, unbuffered):
        proc = cli_process("check", str(tmp_path), env=cli_env(unbuffered))
        assert proc.returncode == 2
        assert proc.stderr == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n".encode()

    def test_output_closed_at_start_is_dropped_without_an_error(self):
        # Python starts with `sys.stdout` None: print writes nothing, and that is no failure
        proc = stdout_closed_process("check", LEAK)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_help_with_output_closed_at_start_goes_to_stderr(self):
        # argparse falls back to stderr where `sys.stdout` is None
        proc = stdout_closed_process("--help")
        assert proc.returncode == 0
        assert proc.stderr.startswith(b"usage: minijif")

    def test_error_lines_come_before_the_output(self):
        proc = subprocess.run([sys.executable, "-m", "minijif.cli", "check", "missing.mjif", LEAK],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=cli_env(),
                              timeout=120)
        first, rest = proc.stdout.split(b"\n", 1)
        assert proc.returncode == 2
        assert first.startswith(b"error: ") and b"missing.mjif" in first
        assert b"E-FLOW" in rest

    def test_output_the_codec_cannot_encode_is_one_error_line(self, tmp_path):
        path = tmp_path / "café.mjif"  # named in the diagnostics, which go to stdout
        shutil.copyfile(LEAK, path)
        proc = cli_process("check", str(path), env={**cli_env(), "PYTHONIOENCODING": "ascii"})
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: cannot write output: 'ascii' codec can't encode ")
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")

    def test_atexit_handlers_run_once_and_keep_the_exit_code(self):
        script = ("import atexit, runpy, sys\n"
                  "atexit.register(print, 'handler ran')\n"
                  f"sys.argv = ['minijif', 'check', {LEAK!r}]\n"
                  "runpy.run_module('minijif.cli', run_name='__main__')\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=cli_env(), timeout=120)
        plain = cli_process("check", LEAK)
        assert proc.returncode == plain.returncode == 1
        assert proc.stdout == plain.stdout + b"handler ran\n"
        assert proc.stderr == plain.stderr == b""

    @pytest.mark.parametrize("trust", [[], ["--no-trust-main"]], ids=["trust", "no-trust"])
    def test_corpus_output_is_the_in_process_output(self, trust, capsys):
        argv = ["check", "--json", *trust, *map(str, corpus_files())]
        code, out, err = run_cli(*argv, capsys=capsys)
        proc = cli_process(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())

    def test_long_output_is_the_in_process_output(self, tmp_path, capsys):
        path = tmp_path / "deep.mjif"
        path.write_text(bench_gen().generate("deep_nesting", 1)[0])
        code, out, err = run_cli("check", "--json", str(path), capsys=capsys)
        assert code == 1 and len(out) > 1 << 16  # more than a pipe holds
        proc = cli_process("check", "--json", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2)], ids=["help", "bogus"])
    def test_argparse_exits_are_the_in_process_exits(self, argv, code, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal width
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        assert exit_info.value.code == code
        assert (out if code == 0 else err).startswith("usage: minijif")
        proc = cli_process(*argv, env={**cli_env(), "COLUMNS": "80"})
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


def declared_console_script() -> str:
    """The ``module:function`` that pyproject.toml's ``[project.scripts]`` runs as ``minijif``."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^\[project\.scripts\]\nminijif = "([\w.:]+)"$', text, re.MULTILINE)
    assert match, "pyproject.toml declares no minijif script"
    return match[1]


def test_console_script_is_the_hard_exit():
    value = declared_console_script()
    assert importlib.metadata.EntryPoint("minijif", value, "console_scripts").load() is cli.run
    # the wrapper an installer writes for the entry, run on the working tree
    module, _, function = value.partition(":")
    wrapper = f"import sys\nfrom {module} import {function}\nsys.exit({function}())\n"
    proc = subprocess.run([sys.executable, "-c", wrapper, "check", LEAK], capture_output=True,
                          env=cli_env(), timeout=120)
    plain = cli_process("check", LEAK)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, plain.stdout, plain.stderr)
    assert b"E-FLOW" in proc.stdout


def test_console_script_installed():
    exe = shutil.which("minijif")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "check", str(CORPUS_DIR / "booking_ok.mjif")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    script = subprocess.run([exe, "check", LEAK], capture_output=True)
    plain = cli_process("check", LEAK)
    assert script.returncode == plain.returncode == 1
    assert script.stdout == plain.stdout


def cli_import_closure(*argv: str) -> list[str]:
    """Modules a fresh interpreter has loaded after ``import minijif.cli``,
    and after ``main(ARGV)`` when ARGV is given."""
    script = ("import sys, minijif.cli\n"
              + (f"minijif.cli.main({list(argv)!r})\n" if argv else "")
              + "print(*sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()  # after the output of main


def test_package_is_the_cli_import_closure():
    # the package ships what `minijif` runs and nothing more
    package = REPO_ROOT / "src" / "minijif"
    assert sorted(m for m in cli_import_closure() if m.startswith("minijif.")) == sorted(
        f"minijif.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")


def test_cli_import_closure_leaves_out_dataclasses_and_inspect():
    # each is milliseconds of start-up that every `minijif` run would pay
    assert {"dataclasses", "inspect", "json"}.isdisjoint(cli_import_closure())


def test_cli_import_leaves_out_typing():
    # without `site`, which may import typing or pathlib itself first (through a .pth
    # file): type aliases are runtime `A | B` unions, argparse is imported only for a
    # command line other than the common check, and pathlib only by `corpus`; each
    # would cost every run milliseconds
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import minijif.cli, sys; print(*sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert {"typing", "argparse", "pathlib"}.isdisjoint(proc.stdout.split())


def test_a_check_imports_no_argparse():
    # `main` reads the common check itself: argparse and its gettext are milliseconds
    modules = cli_import_closure("check", "--json", LEAK)
    assert "minijif.diagnostics" in modules
    assert {"argparse", "gettext"}.isdisjoint(modules)


def argparse_reading(argv: list[str]) -> "dict | None":
    """``vars`` of argparse's namespace for ARGV; None where argparse exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_arg_parser().parse_args(argv))
        except SystemExit:
            return None


ARGV_WORDS = ["check", "query", "--json", "--js", "--", "-", "", "--max-errors", "3", "-h",
              "a.mjif", "b"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ARGV_WORDS), max_size=6), st.booleans())
def test_the_check_reader_agrees_with_argparse(words, after_check):
    argv = ["check", *words] if after_check else words
    args = cli._read_check_argv(argv)
    if args is not None:
        assert vars(args) == argparse_reading(argv)


@pytest.mark.parametrize("argv, read", [
    (["check", "a"], True),
    (["check", "a", "b"], True),
    (["check", "--json", "a", "b"], True),
    (["check", "a", "b", "--json"], True),
    (["check", ""], True),
    (["check", "check"], True),
    (["check"], False),
    (["check", "--json"], False),
    (["check", "a", "--json", "b"], False),  # argparse rejects it
    (["check", "--json", "a", "--json"], False),
    (["check", "--js", "a"], False),
    (["check", "--", "a"], False),
    (["check", "-"], False),
    (["check", "--no-trust-main", "a"], False),
    (["check", "-h"], False),
    (["query", "join", "{A->*}", "{B->*}"], False),
    (["corpus", "a"], False),
    ([], False),
], ids=repr)
def test_the_check_reader_takes_only_the_common_check(argv, read):
    args = cli._read_check_argv(argv)
    assert (args is not None) == read
    if read:
        assert vars(args) == argparse_reading(argv)


def test_an_interleaved_json_is_argparse_usage_error(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal width
    code, out, err = _run_main(["check", "a", "--json", "b"])
    assert (code, out) == (2, "")
    assert err == ("usage: minijif [-h] {check,query,corpus} ...\n"
                   "minijif: error: unrecognized arguments: b\n")


def test_a_json_check_imports_no_json():
    # render_json writes the layout itself: importing json would cost every run milliseconds
    modules = cli_import_closure("check", "--json", LEAK)
    assert "minijif.diagnostics" in modules and "json" not in modules


def test_sources_parse_under_the_oldest_supported_grammar():
    # requires-python is ">=3.10"; this checks the grammar only, not library APIs
    paths = sorted(p for d in ("src", "tests", "bench") for p in (REPO_ROOT / d).rglob("*.py"))
    assert paths
    for path in paths:
        pyast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
