import json
import shutil
import subprocess
import sys

import pytest

from minijif.cli import main
from conftest import CORPUS_DIR, corpus_files

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

    def test_internal_error_is_one_line_and_exits_two(self, tmp_path, capsys):
        # 400 nested ifs exhaust the recursive-descent parser's stack
        depth = 400
        body = "if (true) {\n" * depth + "}\n" * depth
        deep = tmp_path / "deep.mjif"
        deep.write_text(f"class C {{\n void m{{}}() {{\n{body} }}\n}}\n")
        code, out, err = run_cli("check", str(deep), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("internal error: RecursionError") and err.count("\n") == 1

    def test_multiple_files_sorted_output(self, capsys):
        paths = [str(CORPUS_DIR / "undefined_names.mjif"), str(CORPUS_DIR / "arity.mjif")]
        code, out, _ = run_cli("check", *paths, capsys=capsys)
        assert code == 1
        assert out.index("arity.mjif") < out.index("undefined_names.mjif")


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
