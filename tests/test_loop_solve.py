"""A loop walked once at a pc variable gives what walking it to a fixpoint gives.

``Checker`` walks each ``while`` once, at a label variable that stands for the
loop's pc, and solves the variable at the loop's end; ``RewalkingChecker``
walks the loop again until a pass leaves the pc unchanged.  On generated
programs with nested loops and branches, early returns inside them, locals
declared in loop bodies, ``&&``/``||`` over calls that write a field, random
delegations and written labels that repeat a component, both must print the
same ``--json`` output, under default trust and under ``--no-trust-main``.
"""

from __future__ import annotations

import random
import time

from minijif import syntax as ast
from minijif.checker import Checker, TrustConfig, check_program
from minijif.diagnostics import render_json
from minijif.parser import parse_program

from oracles import RewalkingChecker

LABELS = ("{}", "{}", "{A->*}", "{B->*}", "{A->B}", "{C->*; A->*}", "{A->A; A->A}",
          "{B->*; A->*; B->*}", "{A<-*}", "{A<-A; A<-A}", "{A->B meet B->*}", "{C->A; C->A; B->*}")
DELEGATIONS = ("A >= B", "B >= A", "C >= A", "B >= C")


class _LoopGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names = 0
        self.budget = 0

    def label(self) -> str:
        return self.rng.choice(LABELS)

    def fresh(self) -> str:
        self.names += 1
        return f"x{self.names}"

    def int_expr(self, ints: list[str]) -> str:
        roll = self.rng.random()
        if roll < 0.25:
            return str(self.rng.randint(0, 9))
        if roll < 0.35:
            return "c.n"
        if roll < 0.38:
            return f"declassify({self.rng.choice(ints)}, {self.label()} to {self.label()})"
        if roll < 0.45:
            return f"{self.rng.choice(ints)} + {self.int_expr(ints)}"
        return self.rng.choice(ints)

    def bool_expr(self, ints: list[str]) -> str:
        base = f"{self.int_expr(ints)} {self.rng.choice(['<', '>', '=='])} {self.int_expr(ints)}"
        if self.rng.random() < 0.3:
            right = "c.bump()" if self.rng.random() < 0.6 else self.bool_expr(ints)
            return f"{base} {self.rng.choice(['&&', '||'])} {right}"
        return base

    def stmts(self, ints: list[str], depth: int, value: bool, lines: list[str]) -> None:
        ints = list(ints)
        for _ in range(self.rng.randint(1, 3)):
            if self.budget <= 0:
                return
            self.budget -= 1
            roll = self.rng.random()
            if depth and roll < 0.12:
                lines.append(f"return {self.int_expr(ints)};" if value else "return;")
                return
            if roll < 0.3:
                name, label = self.fresh(), self.label() if self.rng.random() < 0.5 else ""
                lines.append(f"int{label} {name} = {self.int_expr(ints)};")
                ints.append(name)
            elif roll < 0.45:
                target = self.rng.choice(ints[1:] + ["c.n"])
                lines.append(f"{target} = {self.int_expr(ints)};")
            elif roll < 0.55:
                lines.append(f"boolean b{self.fresh()} = {self.bool_expr(ints)};")
            elif roll < 0.62:
                lines.append("c.bump();")
            elif roll < 0.78:
                lines.append(f"if ({self.bool_expr(ints)}) {{")
                self.stmts(ints, depth + 1, value, lines)
                if self.rng.random() < 0.3:
                    lines.append("} else {")
                    self.stmts(ints, depth + 1, value, lines)
                lines.append("}")
            else:
                lines.append(f"while ({self.bool_expr(ints)}) {{")
                self.stmts(ints, depth + 1, value, lines)
                lines.append("}")

    def method(self, header: str, value: bool) -> list[str]:
        self.budget = self.rng.randint(4, 14)
        lines = [header, f"Cell{{}} c = new Cell(0);"]
        self.stmts(["p"], 0, value, lines)
        if value:
            lines.append("return p;")
        return lines + ["}"]


def generate_loop_program(rng: random.Random) -> str:
    gen = _LoopGen(rng)
    lines = ["principal A;", "principal B;", "principal C;"]
    lines += [f"actsfor {d};" for d in DELEGATIONS if rng.random() < 0.2]
    lines += [f"class Cell {{ int{gen.label()} n;",
              f"boolean{{}} bump{gen.label()}() {{ n = n + 1; return true; }} }}"]
    authority = rng.choice(["", " authority(A)"])
    claim = rng.choice(["", " where authority(A)"])
    end = rng.choice(["", f" : {gen.label()}"])
    lines.append(f"class Main{authority} {{")
    lines += gen.method(f"void main{gen.label()}(int{gen.label()} p){end}{claim} {{", False)
    lines += gen.method(f"int{gen.label()} f{gen.label()}(int{gen.label()} p) {{", True)
    return "\n".join(lines + ["}", ""])


def test_walking_a_loop_once_matches_the_rewalking_fixpoint(monkeypatch):
    # count the loops that the re-walking rule checks, so that the comparison
    # cannot pass by running the one-walk rule on both sides
    rewalk, rewalked = RewalkingChecker.check_branch, 0

    def counting(self, ctx, s):
        nonlocal rewalked
        rewalked += isinstance(s, ast.While)
        rewalk(self, ctx, s)

    monkeypatch.setattr(RewalkingChecker, "check_branch", counting)
    rng, began = random.Random(2101), time.perf_counter()
    loops = 0
    for _ in range(2000):
        source = generate_loop_program(rng)
        loops += source.count("while (")
        program = parse_program(source, "gen.mjif")
        for trust in (TrustConfig(), TrustConfig(grant_main_authority=False)):
            expected = render_json(RewalkingChecker(program, trust).run())
            assert render_json(Checker(program, trust).run()) == expected, source
    assert loops > 2000
    assert rewalked >= 2 * loops  # every loop, under both trust settings
    assert time.perf_counter() - began < 15


def test_loop_records_are_tested_after_the_solve(decided):
    # in a loop body the pc is the loop's variable, so both initializers are
    # recorded; once solved, the pc of the first is {A->*}, which fails, and
    # the pc of the second is {}, which every hierarchy passes
    src = (
        "principal A;\n"
        "class Main {\n"
        "    void main{}() where authority(A) {\n"
        "        int{A->*} s = 17;\n"
        "        int{} p = 0;\n"
        "        while (s > 8) { int{} x = 1; }\n"
        "        while (p > 8) { int{} y = 1; }\n"
        "    }\n"
        "}\n"
    )
    found = [(d.code, d.span.start) for d in check_program(parse_program(src))]
    assert found == [("E-FLOW-IMPLICIT", (6, 25))]
    assert [span.start for *_, span, _ in decided] == [(6, 25)]
