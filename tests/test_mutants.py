"""The mutant table of ``tests/mutants.py`` still applies to ``checker.py``.

Running the mutants takes a process per row (``python tests/run_mutants.py``);
this only checks that no row has gone stale: each source text occurs exactly
once, and each killing test still exists.  It also checks that every ``flow``
call that passes the pc has a row that drops it, so that no such rule lands
without one.
"""

import ast as pyast
from pathlib import Path

import pytest

import minijif.checker as checker_module
from minijif.checker import RULES
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(checker_module.__file__).read_text(encoding="utf-8")


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_to_one_place(mutant):
    assert SOURCE.count(mutant.source) == 1
    assert mutant.replacement != mutant.source


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_has_a_killing_test_or_an_argument(mutant):
    if mutant.test is None:
        assert mutant.argument
        return
    path, *_, name = mutant.test.split("::")
    name = name.split("[")[0]  # a parametrized test's id names its case
    assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8")


def test_every_flow_call_that_passes_the_pc_has_a_mutant():
    calls = [pyast.get_source_segment(SOURCE, node) for node in pyast.walk(pyast.parse(SOURCE))
             if isinstance(node, pyast.Call) and getattr(node.func, "id", None) == "flow"]
    carrying = [call for call in calls if "ctx.pc" in call]
    assert carrying
    for call in carrying:
        [row] = [m for m in MUTANTS if m.source in call]
        assert row.rule in RULES and f'"{row.rule}"' in call
        assert row.replacement == row.source.replace("ctx.pc", "EMPTY")
    assert all(m.rule is None or m.rule in RULES for m in MUTANTS)
