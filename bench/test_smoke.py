"""Tiny-size smoke test of the benchmark: output schema and expectation comparison.

Run from the repository root: ``python3 -m pytest bench/test_smoke.py``.
It has no timing bounds.
"""

from __future__ import annotations

import functools
import json
import random

import pytest

import gen
import run

TINY = {
    "wide_principals": {"principals": 16, "flows": 20, "per_method": 10},
    "deep_nesting": {"depth": 6, "methods": 1},
    "large_source": {"classes": 2, "methods": 2},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    for name, sizes in TINY.items():
        monkeypatch.setitem(gen.WORKLOADS, name, functools.partial(gen.WORKLOADS[name], **sizes))


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(gen.WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_result_schema(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_judge_flags_each_kind_of_failure(tmp_path):
    source, expected = gen.wide_principals(random.Random(1), **TINY["wide_principals"])
    file = tmp_path / "w.mjif"
    file.write_text(source, encoding="utf-8")
    p = run.spawn(["-m", "minijif.cli", "check", "--json", str(file)], tmp_path, run.child_env())
    assert expected
    assert run.judge(p.rc, p.out, p.err, expected) is None
    assert run.judge(p.rc, p.out, p.err, expected[1:]).startswith("diagnostics differ")
    assert run.judge(0, p.out, p.err, expected).startswith("exit code")
    assert run.judge(p.rc, p.out, "Traceback (most recent call last):\n", expected).startswith("wrote")
    assert run.judge(p.rc, p.out[:-3], "", expected).startswith("unreadable JSON")
    assert run.judge(0, "[]\n", "", []) is None


def test_sidecar_round_trip(tmp_path):
    _, expected = gen.generate("deep_nesting", 7)
    path = tmp_path / "d.expect"
    path.write_text(gen.expect_text(expected), encoding="utf-8")
    assert run.read_expect(path) == expected


def test_without_a_working_tree_no_result_is_printed(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "large_source", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
