"""Fixed pure-Python work that measures how fast the host runs Python right now.

The benchmark runs this in a fresh process between timed checks and scales
each check's wall time by ``REFERENCE_S / (mean of the two neighbouring
calibration times)``. On a shared host the speed of the same code drifts by
tens of percent within a minute, and this script slows down with it. None of
the checker's code runs here, so a change to the checker cannot move it.

Usage: python bench/calibrate.py mix|acts

The kernels imitate what the checker spends its time on: a
character-at-a-time scanner (the lexer), method calls that compare frozen
dataclasses and probe sets (``acts_for``), and hashing and rendering deep
trees of frozen dataclasses (pc labels). ``mix`` runs the three in equal
parts; ``acts`` runs only the second.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


def scan(text: str) -> int:
    tokens, i, n = 0, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == " " or ch == "\n":
            i += 1
        elif "a" <= ch <= "z" or "A" <= ch <= "Z" or "0" <= ch <= "9":
            j = i
            while j < n and ("a" <= text[j] <= "z" or "A" <= text[j] <= "Z" or "0" <= text[j] <= "9"):
                j += 1
            tokens += 1
            i = j
        else:
            tokens += 1
            i += 1
    return tokens


@dataclass(frozen=True)
class Name:
    name: str


class Graph:
    def __init__(self, size: int) -> None:
        self.nodes = [Name(f"P{i}") for i in range(size)]
        self.reach = {}
        for i, p in enumerate(self.nodes):
            below, todo = set(), [i]
            while todo:
                k = todo.pop()
                below.add(self.nodes[k])
                todo += [c for c in (2 * k + 1, 2 * k + 2) if c < size]
            self.reach[p] = frozenset(below)

    def acts_for(self, p: Name, q: Name) -> bool:
        if p == q:
            return True
        reach = self.reach.get(p)
        return reach is not None and q in reach


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


def render(t) -> list[str]:
    return render(t.left) + render(t.right) if isinstance(t, Pair) else [str(t)]


def scan_kernel() -> int:
    return scan(" ".join(f"int{{P{i % 9}->P{i % 5}}} a{i} = b{i} + {i};\n" for i in range(9000)))


def acts_kernel(rounds: int) -> int:
    g, acc = Graph(128), 0
    readers = g.nodes[::29]
    for _ in range(rounds):
        for owner in g.nodes:
            acc += sum(g.acts_for(q, owner) or any(g.acts_for(q, r) for r in readers)
                       for q in g.nodes)
    return acc


def tree_kernel() -> int:
    acc = 0
    for _ in range(10):
        pc: object = 0
        for level in range(140):
            pc = Pair(pc, Pair(f"A->B{level % 4}", f"C<-D{level % 3}"))
            acc += hash(pc) & 1
            if level % 2:
                acc += len("; ".join(render(pc)))
    return acc


# each takes about 0.25 s on a quiet host
KERNELS = {
    "mix": lambda: scan_kernel() + acts_kernel(1) + tree_kernel(),
    "acts": lambda: acts_kernel(3),
}


if __name__ == "__main__":
    KERNELS[sys.argv[1]]()
