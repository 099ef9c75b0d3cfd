"""The benchmark's workloads, checked in process at seed 1.

Each generator states the diagnostics its program must produce, from how the
program was built. A front-end or checker change that breaks one of them
would make every benchmark check fail; this catches it in the test suite.
The whole ``--json`` output is pinned too, by its sha256 with the file name
normalised, so a refactor that changes one byte of it fails here.  Update a
digest only together with a CHANGES.md line that says why the output changed.
"""

import hashlib
import json

import pytest

from minijif.cli import main
from minijif.labels import JoinNode
from minijif.parser import parse_label
from conftest import bench_gen

gen = bench_gen()

OUTPUT_SHA256 = {
    "deep_nesting": "d8014158bccb9f59e5a67cc25fb7df5b354c2f57899d73ca6b899301425d5634",
    "large_source": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "wide_principals": "f9db662973a52c100e37c35ef0cf46d60393d8b03f6cc50d924f0bf6aa611ef5",
}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_workload_verdict_matches_generator(workload, tmp_path, capsys):
    source, expected = gen.generate(workload, 1)
    path = tmp_path / f"{workload}.mjif"
    path.write_text(source, encoding="utf-8")
    code = main(["check", "--json", str(path)])
    out, err = capsys.readouterr()
    assert err == ""
    assert code == (1 if expected else 0)
    diagnostics = json.loads(out)
    actual = sorted((d["code"], d["span"]["start"][0]) for d in diagnostics)
    assert actual == expected
    normalised = out.replace(json.dumps(str(path)), json.dumps(path.name))
    assert hashlib.sha256(normalised.encode()).hexdigest() == OUTPUT_SHA256[workload]
    # a label the checker computes lists each `;` component once
    for text in {d[k] for d in diagnostics for k in ("from", "to") if d[k] is not None}:
        parts, label = [], parse_label(text)
        while isinstance(label, JoinNode):
            parts.append(label.right)
            label = label.left
        parts.append(label)
        assert len(set(parts)) == len(parts), text
