import ast as pyast
import gc
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minijif.checker import check_program
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


@settings(max_examples=400, deadline=None)
@given(_PROGRAMS)
def test_check_never_crashes(source):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.mjif"
        path.write_text(source, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check", str(path)])
    assert code in (0, 1, 2)
    assert "internal error" not in err.getvalue()
    # exit 2 always says why on stderr; 0 and 1 never write there
    assert (code == 2) == (err.getvalue() != "")
    assert (code == 1) == (out.getvalue() != "")


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
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["corpus", tmp])
    assert code in (0, 1, 2)
    assert "internal error" not in err.getvalue()
    # the sidecar is readable, so exit 2 is a usage error, said on stderr
    assert (code == 2) == (err.getvalue() != "")


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
        # render_json is left out: the stdlib's indented encoder leaves a
        # constant few objects per call, and a run calls it once
        sources = [(str(path), path.read_text()) for path in corpus_files()]
        was = gc.isenabled()
        gc.disable()
        try:
            for path, text in sources:  # warm-up: label caches and lazy imports
                check_program(parse_program(text, file=path))
            gc.collect()
            for path, text in sources:
                check_program(parse_program(text, file=path))
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


def test_console_script_installed():
    exe = shutil.which("minijif")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "check", str(CORPUS_DIR / "booking_ok.mjif")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


def cli_import_closure() -> list[str]:
    """Modules a fresh interpreter has loaded after ``import minijif.cli``."""
    script = "import sys, minijif.cli\nprint(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_is_the_cli_import_closure():
    # the package ships what `minijif` runs and nothing more
    package = REPO_ROOT / "src" / "minijif"
    assert sorted(m for m in cli_import_closure() if m.startswith("minijif.")) == sorted(
        f"minijif.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")


def test_cli_import_closure_leaves_out_dataclasses_and_inspect():
    # each is milliseconds of start-up that every `minijif` run would pay
    assert {"dataclasses", "inspect", "json"}.isdisjoint(cli_import_closure())


def test_sources_parse_under_the_oldest_supported_grammar():
    # requires-python is ">=3.10"; this checks the grammar only, not library APIs
    paths = sorted(p for d in ("src", "tests", "bench") for p in (REPO_ROOT / d).rglob("*.py"))
    assert paths
    for path in paths:
        pyast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
