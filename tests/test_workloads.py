"""The benchmark's workloads, checked in process at seed 1.

Each generator states the diagnostics its program must produce, from how the
program was built. A front-end or checker change that breaks one of them
would make every benchmark check fail; this catches it in the test suite.
"""

import json

import pytest

from minijif.cli import main
from conftest import bench_gen

gen = bench_gen()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_workload_verdict_matches_generator(workload, tmp_path, capsys):
    source, expected = gen.generate(workload, 1)
    path = tmp_path / f"{workload}.mjif"
    path.write_text(source, encoding="utf-8")
    code = main(["check", "--json", str(path)])
    out, err = capsys.readouterr()
    assert err == ""
    assert code == (1 if expected else 0)
    actual = sorted((d["code"], d["span"]["start"][0]) for d in json.loads(out))
    assert actual == expected
