import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minijif.cli import main
from minijif.lexer import KEYWORDS, SYMBOLS
from minijif.parser import MAX_NESTING, parse_program
from minijif.pretty import pretty_print
from minijif import syntax as ast
from conftest import CORPUS_DIR, bench_gen, corpus_files

NOT_UTF8 = b"\xff\xfe"


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
        assert out.count("E-AUTH-CLAIM") == 3

    def test_max_errors(self, capsys):
        code, out, _ = run_cli(
            "check", "--no-trust-main", "--max-errors", "1",
            str(CORPUS_DIR / "booking_ok.mjif"), capsys=capsys,
        )
        assert code == 1
        assert out.count("E-AUTH-CLAIM") == 1
        assert "2 more error(s) suppressed" in out

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
        assert out == "... 3 more error(s) suppressed\n"

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

    def test_hierarchy_endpoint_must_be_declared_by_program(self, tmp_path, capsys):
        src = tmp_path / "tiny.mjif"
        src.write_text("principal Alice;\n")
        trust = tmp_path / "trust.hier"
        trust.write_text("principal Ghost\nprincipal Alice\nactsfor Ghost >= Alice\n")
        code, _, err = run_cli("check", "--hierarchy", str(trust), str(src), capsys=capsys)
        assert code == 2
        assert "Ghost" in err

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
        assert ast.ast_equal(parse_program(pretty_print(program)), program)

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

    def test_missing_directory_exits_two(self, capsys):
        code, _, err = run_cli("corpus", "does/not/exist", capsys=capsys)
        assert code == 2


def test_console_script_installed():
    exe = shutil.which("minijif")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "check", str(CORPUS_DIR / "booking_ok.mjif")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
