"""Seeded MiniJif program generators for the time-to-verdict benchmark.

Each generator returns ``(source, expected)``. ``expected`` is the sorted list
of ``(code, line)`` pairs the checker must report, derived from how the
program was built (which flows were planted to fail and on which line they
were written), never from running the checker. The structure of a program is
fixed by its sizes; the seed only picks names, policies and constants, so
programs from different seeds cost about the same to check.
"""

from __future__ import annotations

import random


class _Writer:
    """Source lines plus the expected diagnostics, keyed by 1-based line."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.expected: list[tuple[str, int]] = []

    def emit(self, text: str, expect: "str | None" = None) -> None:
        self.lines.append(text)
        if expect is not None:
            self.expected.append((expect, len(self.lines)))

    def result(self) -> tuple[str, list[tuple[str, int]]]:
        return "\n".join(self.lines) + "\n", sorted(self.expected)


# ------------------------------------------------------------ wide_principals

def _ancestors(i: int) -> set[int]:
    """Heap-tree ancestors of principal ``i``, itself included.

    With ``actsfor P{i} >= P{2i+1}`` and ``actsfor P{i} >= P{2i+2}``, exactly
    these principals (and top) act for ``P{i}``.
    """
    out = {i}
    while i > 0:
        i = (i - 1) // 2
        out.add(i)
    return out


def _readers(owner: int, readers: list[int]) -> set[int]:
    """Named principals allowed to read under ``{P<owner> -> readers}``."""
    out = _ancestors(owner)
    for r in readers:
        out |= _ancestors(r)
    return out


def _policy(owner: int, readers: list[int]) -> str:
    return f"P{owner}->" + ",".join(f"P{r}" for r in readers)


def wide_principals(rng: random.Random, principals: int = 128, flows: int = 1000,
                    per_method: int = 50, readers: int = 4) -> tuple[str, list]:
    """Flows between single-policy labels over a binary acts-for tree.

    A destination drawn only from the source's reader set (which is closed
    under acts-for) can only shrink that set, so the flow is accepted. One
    flow in every ten puts in a principal outside the source's reader set,
    which widens the destination's readers: an ``E-FLOW`` on that line.
    """
    w = _Writer()
    w.emit("// wide_principals: flows between labels over a binary acts-for tree")
    for i in range(principals):
        w.emit(f"principal P{i};")
    for i in range(1, principals):
        w.emit(f"actsfor P{(i - 1) // 2} >= P{i};")
    w.emit("class Flows {")
    planted = {g + rng.randrange(10) for g in range(0, flows, 10)}
    for k in range(flows):
        if k % per_method == 0:
            if k:
                w.emit("    }")
            w.emit(f"    void m{k // per_method}{{}}() {{")
        owner = rng.randrange(principals)
        src = rng.sample(range(principals), readers)
        allowed = sorted(_readers(owner, src))
        dst_owner = rng.choice(allowed)
        dst = [rng.choice(allowed) for _ in range(readers)]
        if k in planted:
            outside = sorted(set(range(principals)) - set(allowed))
            dst[rng.randrange(readers)] = rng.choice(outside)
        w.emit(f"        int{{{_policy(owner, src)}}} a{k} = {k};")
        w.emit(f"        int{{{_policy(dst_owner, dst)}}} b{k} = a{k};",
               "E-FLOW" if k in planted else None)
    if flows:
        w.emit("    }")
    w.emit("}")
    return w.result()


# --------------------------------------------------------------- deep_nesting

_DEEP_PRINCIPALS = ("A", "B", "C", "D")


def deep_nesting(rng: random.Random, depth: int = 120, methods: int = 8,
                 pool: int = 6) -> tuple[str, list]:
    """Methods whose branches nest ``depth`` deep.

    Each condition reads one confidentiality-labelled and one
    integrity-labelled local, so the pc gains two join components per level.
    Every even level assigns a literal to a ``{}`` local: the value is public
    but the pc is not, so each of those lines is an ``E-FLOW-IMPLICIT``.
    """
    w = _Writer()
    w.emit("// deep_nesting: branch conditions accumulate in the pc")
    for p in _DEEP_PRINCIPALS:
        w.emit(f"principal {p};")
    w.emit("class Deep {")
    for m in range(methods):
        w.emit(f"    void m{m}{{}}() {{")
        w.emit("        int{} p = 0;")
        for i in range(pool):
            o, r = rng.sample(_DEEP_PRINCIPALS, 2)
            w.emit(f"        int{{{o}->{r}}} s{i} = {i};")
            o, r = rng.sample(_DEEP_PRINCIPALS, 2)
            w.emit(f"        int{{{o}<-{r}}} t{i} = {i};")
        for level in range(1, depth + 1):
            pad = " " * (level + 7)
            w.emit(f"{pad}if (s{rng.randrange(pool)} + t{rng.randrange(pool)} > {level}) {{")
            if level % 2 == 0:
                w.emit(f"{pad} p = {level};", "E-FLOW-IMPLICIT")
        for level in range(depth, 0, -1):
            w.emit(" " * (level + 7) + "}")
        w.emit("    }")
    w.emit("}")
    return w.result()


# --------------------------------------------------------------- large_source

def large_source(rng: random.Random, classes: int = 10, methods: int = 25,
                 principals: int = 4) -> tuple[str, list]:
    """Generic classes whose methods call into each other; every flow is legal.

    Values written to ``{}`` targets are built only from literals, ``{}``
    parameters and ``{}`` locals; ``{O->*}`` values go only to ``{O->*}``
    targets. Branch conditions are ``{}``, so the pc stays ``{}`` (nesting is
    at most one), and call receivers and ``new`` results are ``{}``.
    """
    w = _Writer()
    w.emit("// large_source: generic classes with cross-class calls, no diagnostics")
    for i in range(principals):
        w.emit(f"principal P{i};")
    for c in range(classes):
        w.emit(f"class C{c}[principal O] {{")
        w.emit("    int{O->*} f0;")
        w.emit("    int{O->*} f1;")
        w.emit("    int{} g;")
        for m in range(methods):
            k = [rng.randrange(1, 50) for _ in range(8)]
            op1, op2 = rng.choice("+-*"), rng.choice("+-*")
            cmp = rng.choice(("<", "<=", ">", ">="))
            j, j2 = rng.randrange(classes), rng.randrange(classes)
            l, l2 = rng.randrange(methods), rng.randrange(methods)
            p = rng.randrange(principals)
            w.emit("")
            w.emit(f"    int{{O->*}} m{m}{{}}(int{{}} x, int{{}} y) {{")
            w.emit(f"        int{{O->*}} a = x {op1} f0 * {k[0]};")
            w.emit(f"        int{{}} b = y {op2} {k[1]};")
            w.emit("        int{} i = 0;")
            w.emit(f"        while (i < {k[2]}) {{")
            w.emit(f"            b = b + i * {k[3]};")
            w.emit("            i = i + 1;")
            w.emit("        }")
            w.emit(f"        if (b {cmp} {k[4]}) {{")
            w.emit("            a = a + b;")
            w.emit("            f1 = a;")
            w.emit("        } else {")
            w.emit(f"            g = b - {k[5]};")
            w.emit("        }")
            w.emit(f"        C{j}[O]{{}} o = new C{j}[O](x, {k[6]}, b);")
            w.emit(f"        int{{O->*}} r = o.m{l}(b, {k[7]});")
            w.emit(f"        C{j2}[P{p}]{{}} q = new C{j2}[P{p}](1, 2, 3);")
            w.emit(f"        int{{P{p}->*}} z = q.m{l2}(i, b);")
            w.emit(f'        String{{}} s = concat("m{m}", "c{c}");')
            w.emit("        int{} n = length(s) + b;")
            w.emit("        return a + r;")
            w.emit("    }")
        w.emit("}")
    return w.result()


WORKLOADS = {
    "wide_principals": wide_principals,
    "deep_nesting": deep_nesting,
    "large_source": large_source,
}


def generate(workload: str, seed: int) -> tuple[str, list[tuple[str, int]]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def expect_text(expected: list[tuple[str, int]]) -> str:
    """The corpus ``.expect`` sidecar format: one ``<code> <line>`` per line."""
    return "".join(f"{code} {line}\n" for code, line in expected)
