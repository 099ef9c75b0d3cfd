"""The mutant table of ``tests/mutants.py`` still applies to ``checker.py``.

Running the mutants takes a process per row (``python tests/run_mutants.py``);
this only checks that no row has gone stale: each source text occurs exactly
once, and each killing test still exists.
"""

from pathlib import Path

import pytest

import minijif.checker as checker_module
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(checker_module.__file__).read_text(encoding="utf-8")


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.rule)
def test_mutant_applies_to_one_place(mutant):
    assert SOURCE.count(mutant.source) == 1
    assert mutant.replacement != mutant.source


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.rule)
def test_mutant_has_a_killing_test_or_an_argument(mutant):
    if mutant.test is None:
        assert mutant.argument
        return
    path, *_, name = mutant.test.split("::")
    name = name.split("[")[0]  # a parametrized test's id names its case
    assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8")
