"""One in-process ``minijif check --json FILE`` run, optionally traced.

Usage: python bench/trace_child.py plain|traced FILE RESULT_JSON
(with the working tree's ``src`` on PYTHONPATH).

In ``traced`` mode, wrappers are installed on the names one module looks up
in another, so each span marks a layer boundary: ``parser.tokenize``, the
label operations ``checker`` imports, ``PrincipalHierarchy.acts_for`` and the
three calls ``cli`` makes. Spans (name, start, end, parent) are kept in memory
and written to RESULT_JSON at exit. ``acts_for`` is a leaf called about a
million times per check on the widest workload, so its calls are folded into
the enclosing span as a count and a total instead of one span each. A hook
whose target has gone (after a refactor) is skipped and listed as missing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import sys
import time
import traceback

clock = time.perf_counter

# span record fields
NAME, START, END, PARENT, FOLDED_S, FOLDED_N, HIDDEN_S = range(7)

# (module, attribute path, span name); the span name is what the benchmark reads
SPAN_HOOKS = (
    ("minijif.parser", "tokenize", "parser.tokenize"),
    ("minijif.checker", "flows_to", "checker.flows_to"),
    ("minijif.checker", "join", "checker.join"),
    ("minijif.checker", "join_all", "checker.join_all"),
    ("minijif.checker", "label_to_text", "checker.label_to_text"),
    ("minijif.cli", "parse_program", "cli.parse_program"),
    ("minijif.cli", "check_program", "cli.check_program"),
    ("minijif.cli", "render_json", "cli.render_json"),
)
# acts_for is folded into its caller's span; its hook name is its attribute path
FOLDED_HOOK = ("minijif.principals", "PrincipalHierarchy.acts_for")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.root = ["<root>", 0.0, 0.0, -1, 0.0, 0, 0.0]
        self.stack: list[list] = [self.root]
        self.installed: list[str] = []
        self.counts: dict[str, float] = {}
        self.hierarchies: set[int] = set()  # ids of the hierarchies acts_for ran on

    def span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            rec = [name, 0.0, 0.0, parent, 0.0, 0, 0.0]
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(return_value)
                # bookkeeping after the span ended is not the parent's work
                parent[HIDDEN_S] += clock() - rec[END]
            return return_value

        return wrapper

    def folded(self, fn):
        stack, seen = self.stack, self.hierarchies

        @functools.wraps(fn)
        def wrapper(self_, *args):
            t0 = clock()
            return_value = fn(self_, *args)
            rec = stack[-1]
            rec[FOLDED_S] += clock() - t0
            rec[FOLDED_N] += 1
            seen.add(id(self_))
            return return_value

        return wrapper

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value), or None when gone."""
    obj = sys.modules.get(module)
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part, None)
    if obj is None or not hasattr(obj, attr):
        return None
    return obj, attr, getattr(obj, attr)


def _count_nodes(tree) -> int:
    """Dataclass instances reachable from the parse result, tuples and lists included."""
    n, todo = 0, [tree]
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list)):
            todo.extend(x)
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            n += 1
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return n


def _component_counter(labels):
    """Number of ``;`` components of a label, memoized per label object."""
    join_node = getattr(labels, "JoinNode", None)
    empty = getattr(labels, "EmptyLabel", None)
    if join_node is None or empty is None:
        return None
    memo: dict[int, tuple[object, int]] = {}  # keeps labels alive, so ids stay unique

    def components(label) -> int:
        total, todo = 0, [label]
        while todo:
            x = todo.pop()
            hit = memo.get(id(x))
            if hit is not None and hit[0] is x:
                total += hit[1]
            elif type(x) is join_node:
                todo += (x.left, x.right)
            elif type(x) is not empty:
                total += 1
        memo[id(label)] = (label, total)
        return total

    return components


def install(tracer: Tracer) -> list[str]:
    """Install every hook that still resolves; returns the names that did not."""
    import minijif.labels as labels

    components = _component_counter(labels)
    if components is None:
        missing = ["labels.JoinNode"]
        on_join = None
    else:
        missing = []

        def on_join(label):
            tracer.maximum("max_join_components", components(label))

    on_result = {
        "parser.tokenize": lambda toks: tracer.add("tokens", len(toks)),
        "cli.parse_program": lambda prog: tracer.add("nodes", _count_nodes(prog)),
        "checker.join": on_join,
        "checker.join_all": on_join,
        "checker.label_to_text": lambda text: tracer.add("to_text_chars", len(text)),
        "cli.check_program": lambda diags: tracer.add("diagnostics", len(diags)),
        "cli.render_json": lambda text: tracer.add("output_bytes", len(text.encode())),
    }
    for module, path, name in SPAN_HOOKS:
        found = _resolve(module, path)
        if found is None:
            missing.append(name)
            continue
        owner, attr, fn = found
        setattr(owner, attr, tracer.span(name, fn, on_result.get(name)))
        tracer.installed.append(name)
    found = _resolve(*FOLDED_HOOK)
    if found is None:
        missing.append(FOLDED_HOOK[1])
    else:
        owner, attr, fn = found
        setattr(owner, attr, tracer.folded(fn))
        tracer.installed.append(FOLDED_HOOK[1])
    return missing


def main(argv: list[str]) -> int:
    mode, file, result_path = argv
    t0 = clock()
    import minijif.cli as cli

    import_s = clock() - t0
    tracer = Tracer()
    missing = install(tracer) if mode == "traced" else []
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["check", "--json", file])
    except Exception:  # a crash is a result to report, not a reason to lose it
        rc = None
        err.write(traceback.format_exc())
    main_s = clock() - t0
    import minijif.labels as labels

    cache_info = getattr(getattr(labels, "interpret_label", None), "cache_info", None)
    if mode == "traced":
        if cache_info is None:
            missing.append("labels.interpret_label.cache_info")
        else:
            info = cache_info()
            tracer.counts["interpret_hits"] = info.hits
            tracer.counts["interpret_misses"] = info.misses
        if FOLDED_HOOK[1] in tracer.installed:
            tracer.counts["hierarchies"] = len(tracer.hierarchies)
    spans = [tracer.root] + tracer.spans
    index = {id(rec): i for i, rec in enumerate(spans)}
    result = {
        "rc": rc,
        "out": out.getvalue(),
        "err": err.getvalue(),
        "module": cli.__file__,
        "import_s": import_s,
        "main_s": main_s,
        "installed": tracer.installed,
        "missing": missing,
        "counts": tracer.counts,
        # (name, start, end, parent index, folded seconds, folded calls, hidden seconds)
        "spans": [[r[NAME], r[START], r[END], index.get(id(r[PARENT]), -1), r[FOLDED_S],
                   r[FOLDED_N], r[HIDDEN_S]] for r in spans],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
