"""Time-to-verdict benchmark for the MiniJif checker.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload is generated from the seed into ``bench/_work`` (removed at
exit) together with its ``.expect`` sidecar. The working tree's checker
(``src`` on PYTHONPATH) is then run as a black box:

- ``--trace 0``: end-to-end metrics. ``setup_s`` is the median wall time of
  a fresh interpreter that only imports ``minijif.cli``. After one untimed
  warm-up, ``python -m minijif.cli check --json FILE`` runs in a fresh
  process, one at a time, until ``--seconds`` have passed; ``verdict_s`` is
  the median wall time from spawn to exit and ``peak_rss_mb`` the largest
  max-RSS any check process reported through ``wait4``.
- ``--trace 1``: per-layer metrics. Untraced and traced in-process runs of
  ``minijif.cli.main`` (``bench/trace_child.py``) alternate for
  ``--seconds``; the per-layer figures are medians over the traced runs and
  ``trace.overhead`` compares the two kinds.

Every check is judged against the generator's expectations: exit code 0 for
a clean file and 1 otherwise, nothing on stderr, JSON that parses, and the
sorted ``(code, start line)`` list equal to the sidecar's. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60
# wall time of bench/calibrate.py on a quiet host (x86-64 VM, Python 3.11);
# scaled times read as seconds on a host running Python at that speed
REFERENCE_S = 0.25
# calibrate.py kernel per workload: wide_principals spends nearly all its time
# in acts_for-style calls, which the host slows unlike the mixed lexer, hash
# and text work of the other two (on a shared 2-vCPU VM, with the mix its
# ten-seed spread was 10 %)
CALIBRATION = {"wide_principals": "acts", "deep_nesting": "mix", "large_source": "mix"}
ACTS = "PrincipalHierarchy.acts_for"
JOINS = ("checker.join", "checker.join_all")
CHECKER_CHILDREN = ("checker.flows_to", *JOINS, "checker.label_to_text", ACTS)

# per-layer metric -> (unit, hooks it is computed from); a metric whose hook
# did not resolve in the traced child is reported as missing
PER_LAYER = {
    "cli.import_s": ("s", ()),
    "cli.main_s": ("s", ()),
    "lexer.tokenize_s": ("s", ("parser.tokenize",)),
    "lexer.tokens": ("count", ("parser.tokenize",)),
    "parser.self_s": ("s", ("cli.parse_program", "parser.tokenize")),
    "parser.nodes": ("count", ("cli.parse_program",)),
    "principals.acts_for_s": ("s", (ACTS,)),
    "principals.acts_for_calls": ("count", (ACTS,)),
    "principals.hierarchies": ("count", (ACTS,)),
    "labels.flows_to_s": ("s", ("checker.flows_to", ACTS)),
    "labels.flows_to_calls": ("count", ("checker.flows_to",)),
    "labels.interpret_hit_ratio": ("ratio", ("labels.interpret_label.cache_info",)),
    "labels.join_s": ("s", JOINS),
    "labels.join_calls": ("count", JOINS),
    "labels.max_join_components": ("count", (*JOINS, "labels.JoinNode")),
    "labels.to_text_s": ("s", ("checker.label_to_text",)),
    "labels.to_text_chars": ("chars", ("checker.label_to_text",)),
    "checker.self_s": ("s", ("cli.check_program", *CHECKER_CHILDREN)),
    "checker.diagnostics": ("count", ("cli.check_program",)),
    "diagnostics.render_s": ("s", ("cli.render_json",)),
    "diagnostics.output_bytes": ("bytes", ("cli.render_json",)),
    "trace.overhead": ("ratio", ()),
    "trace.dominant_share": ("ratio", ()),
}

# the layer(s) each workload is built to put in charge, and the time they
# should hold most of: the checker's span or the whole in-process run
DOMINANT = {
    "wide_principals": (("principals.acts_for_s", "labels.flows_to_s", "labels.join_s",
                         "labels.to_text_s"), "checker"),
    "deep_nesting": (("labels.flows_to_s", "labels.join_s", "labels.to_text_s"), "checker"),
    "large_source": (("lexer.tokenize_s", "parser.self_s"), "in-process"),
}


@dataclass
class Proc:
    rc: "int | None"  # None when killed on timeout
    wall_s: float
    maxrss_mb: float
    out: str
    err: str


def child_env() -> dict[str, str]:
    """A fixed environment, so that no inherited PYTHON* variable (such as
    PYTHONDONTWRITEBYTECODE, which would stop the warm-up from writing
    ``__pycache__``) changes what is measured."""
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0"}


def spawn(args: list[str], work: Path, env: dict[str, str]) -> Proc:
    """Run ``python ARGS`` to completion; wall time is spawn to exit."""
    out_path, err_path = work / "child.out", work / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        if not exited:  # not yet reaped, so the pid is still this child's
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    rc = os.waitstatus_to_exitcode(status) if exited else None
    return Proc(rc, wall, usage.ru_maxrss / 1024,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))


def read_expect(path: Path) -> list[tuple[str, int]]:
    """Parse a corpus ``.expect`` sidecar: ``<code> <line>`` per line, ``#`` comments."""
    expected = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            code, lineno = line.split()
            expected.append((code, int(lineno)))
    return sorted(expected)


def judge(rc: "int | None", out: str, err: str, expected: list[tuple[str, int]]) -> "str | None":
    """Why a check's outcome is wrong, or None when it is right."""
    want_rc = 1 if expected else 0
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if err or "Traceback" in out:
        return "wrote to stderr: " + (err or out).strip().splitlines()[-1][:200]
    try:
        actual = sorted((d["code"], d["span"]["start"][0]) for d in json.loads(out))
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        return f"unreadable JSON output: {exc!r}"
    if actual != expected:
        missing = sorted(set(expected) - set(actual))[:3]
        extra = sorted(set(actual) - set(expected))[:3]
        return f"diagnostics differ: missing {missing}, unexpected {extra}"
    return None


class Tally:
    """Checks attempted and failed; the first few failure reasons are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: "str | None") -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def tail_note(samples: list[float]) -> str:
    """The highest of p90/p99 with at least ten samples beyond it, if any."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=100)[p - 1]
            return f"p{p} {q:.4f} s"
    return "no tail percentile (fewer than 10 samples beyond p90)"


def calibration(workload: str, work: Path, env) -> float:
    p = spawn([str(BENCH / "calibrate.py"), CALIBRATION[workload]], work, env)
    if p.rc != 0:
        raise RuntimeError(f"calibration failed: {p.err[-200:]}")
    return p.wall_s


def end_to_end(workload: str, file: Path, expected, seconds: float, work: Path, env,
               tally: Tally) -> dict:
    """Cold check and import-only processes, each scaled by the host's current speed.

    The sequence is K C S K C S K ..., where K is a calibration run, C a
    check and S an import-only process; C and S are scaled by
    ``REFERENCE_S`` over the mean of the K on either side of them.
    """
    check = ["-m", "minijif.cli", "check", "--json", str(file)]
    setup = ["-c", "import minijif.cli"]
    raw_checks, verdicts, setups, peak = [], [], [], 0.0
    before = calibration(workload, work, env)
    deadline = time.perf_counter() + seconds
    while not verdicts or time.perf_counter() < deadline:
        c = spawn(check, work, env)
        tally.record(judge(c.rc, c.out, c.err, expected))
        peak = max(peak, c.maxrss_mb)
        s = spawn(setup, work, env)
        if s.rc != 0 or s.err:
            tally.record(f"import-only process failed: {s.err[-200:]}")
        after = calibration(workload, work, env)
        scale = REFERENCE_S / ((before + after) / 2)
        before = after
        raw_checks.append(c.wall_s)
        verdicts.append(c.wall_s * scale)
        setups.append(s.wall_s * scale)
    verdict, setup_s = statistics.median(verdicts), statistics.median(setups)
    print(f"verdict_s: median {verdict:.4f} s (scaled) over {len(verdicts)} cold processes; "
          f"unscaled median {statistics.median(raw_checks):.4f} s; {tail_note(verdicts)}")
    print(f"setup_s: median {setup_s:.4f} s (scaled) over {len(setups)} import-only processes")
    return {
        "verdict_s": (verdict, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def layer_values(run: dict) -> dict[str, float]:
    """Per-layer self times and counts of one traced run."""
    spans = run["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans[1:]:
        covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    acts_s = acts_n = hidden = 0
    for i, (name, start, end, _, folded_s, folded_n, hidden_s) in enumerate(spans):
        acts_s += folded_s
        acts_n += folded_n
        hidden += hidden_s
        if i:
            self_s[name] += (end - start) - covered[i] - folded_s - hidden_s
            # the tracer's own bookkeeping is no layer's time
            inclusive[name] += end - start - hidden_s
            calls[name] += 1
    c = run["counts"]
    hits, misses = c.get("interpret_hits", 0), c.get("interpret_misses", 0)
    v = {
        "lexer.tokenize_s": self_s["parser.tokenize"],
        "lexer.tokens": c.get("tokens", 0),
        "parser.self_s": self_s["cli.parse_program"],
        "parser.nodes": c.get("nodes", 0),
        "principals.acts_for_s": acts_s,
        "principals.acts_for_calls": acts_n,
        "principals.hierarchies": c.get("hierarchies", 0),
        "labels.flows_to_s": self_s["checker.flows_to"],
        "labels.flows_to_calls": calls["checker.flows_to"],
        "labels.interpret_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "labels.join_s": sum(self_s[n] for n in JOINS),
        "labels.join_calls": sum(calls[n] for n in JOINS),
        "labels.max_join_components": c.get("max_join_components", 0),
        "labels.to_text_s": self_s["checker.label_to_text"],
        "labels.to_text_chars": c.get("to_text_chars", 0),
        "checker.self_s": self_s["cli.check_program"],
        "checker.diagnostics": c.get("diagnostics", 0),
        "diagnostics.render_s": self_s["cli.render_json"],
        "diagnostics.output_bytes": c.get("output_bytes", 0),
    }
    missing = set(run["missing"])
    v = {k: x for k, x in v.items() if not missing.intersection(PER_LAYER[k][1])}
    v["_checker_total_s"] = inclusive["cli.check_program"]
    v["_in_process_s"] = run["main_s"] - hidden
    return v


def dominant_shares(workload: str, v: dict[str, float]) -> "tuple[float, float] | None":
    """Share of the workload's base time, and of in-process time, held by its
    dominant layers; None when one of them is missing."""
    names, base = DOMINANT[workload]
    if any(n not in v for n in names) or not v["_checker_total_s"] or not v["_in_process_s"]:
        return None
    held = sum(v[n] for n in names)
    total = v["_checker_total_s"] if base == "checker" else v["_in_process_s"]
    return held / total, held / v["_in_process_s"]


def per_layer(workload: str, file: Path, expected, seconds: float, work: Path, env,
              tally: Tally) -> dict:
    result_path = work / "trace.json"
    runs: dict[str, list[dict]] = {"plain": [], "traced": []}
    deadline = time.perf_counter() + seconds
    while not runs["traced"] or time.perf_counter() < deadline:
        order = ("plain", "traced") if len(runs["traced"]) % 2 == 0 else ("traced", "plain")
        for mode in order:
            result_path.unlink(missing_ok=True)
            p = spawn([str(BENCH / "trace_child.py"), mode, str(file), str(result_path)],
                      work, env)
            if p.rc != 0:
                tally.record(f"{mode} child exited {p.rc}: {p.err[-200:]}")
                continue
            run = json.loads(result_path.read_text(encoding="utf-8"))
            tally.record(judge(run["rc"], run["out"], run["err"], expected))
            runs[mode].append(run)
    if not runs["plain"] or not runs["traced"]:
        return {}
    traced = [layer_values(r) for r in runs["traced"]]
    in_process_shares = []
    for v in traced:
        shares = dominant_shares(workload, v)
        if shares is not None:
            v["trace.dominant_share"] = shares[0]
            in_process_shares.append(shares[1])
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        values = [v[name] for v in traced if name in v]
        if values:
            metrics[name] = (statistics.median(values), unit)
    every = runs["plain"] + runs["traced"]
    metrics["cli.import_s"] = (statistics.median(r["import_s"] for r in every), "s")
    plain_s = statistics.median(r["main_s"] for r in runs["plain"])
    metrics["cli.main_s"] = (plain_s, "s")
    traced_s = statistics.median(r["main_s"] for r in runs["traced"])
    metrics["trace.overhead"] = (traced_s / plain_s - 1, "ratio")

    missing = [n for n in PER_LAYER if n not in metrics]
    print(f"traced run: {len(runs['traced'])} traced and {len(runs['plain'])} untraced "
          f"in-process checks; tracing overhead {metrics['trace.overhead'][0]:+.1%} "
          f"({traced_s:.4f} s traced vs {plain_s:.4f} s untraced)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for name in missing:
        print(f"  {name:28s} {'missing':>14s} (its entry point has gone)")
    names, base = DOMINANT[workload]
    if in_process_shares:
        line = (f"dominant layers ({' + '.join(names)}) hold "
                f"{metrics['trace.dominant_share'][0]:.1%} of {base} time")
        if base != "in-process":
            line += f", {statistics.median(in_process_shares):.1%} of in-process time"
        print(line)
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = BENCH / "_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        source, expected = gen.generate(workload, seed)
        file = work / f"{workload}.mjif"
        file.write_text(source, encoding="utf-8")
        file.with_suffix(".expect").write_text(gen.expect_text(expected), encoding="utf-8")
        expected = read_expect(file.with_suffix(".expect"))
        env = child_env()
        tally = Tally()
        # untimed warm-up: compiles __pycache__ and proves the working tree is what runs
        probe = spawn(["-c", "import minijif.cli as m; print(m.__file__)"], work, env)
        if probe.rc != 0 or not Path(probe.out.strip()).resolve().is_relative_to(SRC):
            tally.record(f"minijif.cli does not import from {SRC}: {probe.err[-200:]}")
        warm = spawn(["-m", "minijif.cli", "check", "--json", str(file)], work, env)
        tally.record(judge(warm.rc, warm.out, warm.err, expected))
        print(f"{workload} seed {seed}: {source.count(chr(10))} lines, "
              f"{len(expected)} expected diagnostics")
        if trace:
            metrics = per_layer(workload, file, expected, seconds, work, env, tally)
        else:
            metrics = end_to_end(workload, file, expected, seconds, work, env, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()
    print(f"failed_ratio: {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f} ratio")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "minijif" / "cli.py").is_file():
        print(f"error: no MiniJif working tree at {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
