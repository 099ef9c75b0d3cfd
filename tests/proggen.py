"""Random class-free MiniJif programs for differential noninterference testing.

Each program declares a secret input ``s`` (label ``{A->*}``), a public
observable ``p`` (label ``{}``), and a soup of temporaries, branches, bounded
loops and early returns from nested blocks that may or may not mix them.  The
checker decides which programs are safe; the harness then runs accepted
programs under two secret inputs and requires identical public results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from minijif.checker import check_program
from minijif.parser import parse_program

from interp import FuelExhausted, evaluate_program

SECRET_INPUTS = (0, 17)


@dataclass
class _Gen:
    rng: random.Random
    temp_count: int = 0
    budget: int = 12

    def fresh(self, prefix: str) -> str:
        self.temp_count += 1
        return f"{prefix}{self.temp_count}"

    def int_expr(self, scope: list[str], depth: int) -> str:
        roll = self.rng.random()
        if depth <= 0 or roll < 0.45:
            if self.rng.random() < 0.45:
                return str(self.rng.randint(0, 9))
            return self.rng.choice(scope)
        op = self.rng.choice(["+", "-", "*", "+"])
        return f"({self.int_expr(scope, depth - 1)} {op} {self.int_expr(scope, depth - 1)})"

    def bool_expr(self, scope: list[str], depth: int = 1) -> str:
        cmp = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
        base = f"{self.int_expr(scope, 1)} {cmp} {self.int_expr(scope, 1)}"
        if depth > 0 and self.rng.random() < 0.2:
            gate = self.rng.choice(["&&", "||"])
            return f"{base} {gate} {self.bool_expr(scope, depth - 1)}"
        return base

    def stmts(self, scope: list[str], assignable: list[str], indent: int,
              lines: list[str]) -> None:
        pad = "    " * indent
        for _ in range(self.rng.randint(1, 3)):
            if self.budget <= 0:
                return
            self.budget -= 1
            if indent > 2 and self.rng.random() < 0.2:
                # an early exit ends its nested block; what follows the branch
                # must not run at a public pc
                lines.append(f"{pad}return;")
                return
            roll = self.rng.random()
            if roll < 0.35:
                lines.append(f"{pad}{self.rng.choice(assignable)} = {self.int_expr(scope, 2)};")
            elif roll < 0.55:
                name = self.fresh("t")
                label = "{A->*}" if self.rng.random() < 0.25 else ""
                lines.append(f"{pad}int{label} {name} = {self.int_expr(scope, 2)};")
                scope.append(name)
                assignable.append(name)
            elif roll < 0.8:
                lines.append(f"{pad}if ({self.bool_expr(scope)}) {{")
                self.stmts(list(scope), list(assignable), indent + 1, lines)
                if self.rng.random() < 0.4:
                    lines.append(f"{pad}}} else {{")
                    self.stmts(list(scope), list(assignable), indent + 1, lines)
                lines.append(f"{pad}}}")
            else:
                counter = self.fresh("c")
                bound = self.rng.randint(1, 4)
                lines.append(f"{pad}int {counter} = 0;")
                lines.append(f"{pad}while ({counter} < {bound}) {{")
                lines.append(f"{pad}    {counter} = {counter} + 1;")
                self.stmts(list(scope) + [counter], list(assignable), indent + 1, lines)
                lines.append(f"{pad}}}")


def generate_program(rng: random.Random) -> str:
    gen = _Gen(rng)
    lines = [
        "principal A;",
        "",
        "class Main {",
        "    void main{}() {",
        "        int{A->*} s;",
        "        int{} p;",
    ]
    gen.stmts(["s", "p"], ["s", "p"], 2, lines)
    lines += ["    }", "}", ""]
    return "\n".join(lines)


@dataclass
class DifferentialStats:
    accepted: int = 0
    rejected: int = 0
    diverged: int = 0
    violations: list[str] = field(default_factory=list)


def run_differential(count: int, seed: int = 2024) -> DifferentialStats:
    """Generate `count` programs; every checker-accepted one must produce an
    identical public result under both secret inputs."""
    rng = random.Random(seed)
    stats = DifferentialStats()
    for _ in range(count):
        source = generate_program(rng)
        program = parse_program(source)
        if check_program(program):
            stats.rejected += 1
            continue
        stats.accepted += 1
        try:
            outs = [evaluate_program(program, {"s": v}) for v in SECRET_INPUTS]
        except FuelExhausted:
            stats.diverged += 1
            continue
        if outs[0]["p"] != outs[1]["p"]:
            stats.violations.append(source)
    return stats
