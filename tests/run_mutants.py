"""Run each mutant of ``tests/mutants.py`` against the test that should kill it.

Usage, from the repository root:  python tests/run_mutants.py

For each row, ``src`` is copied to a temporary directory, the row's
replacement is applied to ``minijif/checker.py`` there, and the row's killing
test is run against the copy with ``python -m pytest -x``.  The killing tests
are first run against an unmutated copy, where they must pass.  Prints one
line per row (killed, survived or equivalent) and exits 1 if a mutant
survives, 2 if the table does not apply or a killing test fails unmutated.
Tier-1 does not collect this file; it takes about two seconds a row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def run_tests(src: Path, tests: list[str]) -> bool:
    """Whether ``tests`` pass with ``src`` as the package's source tree."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", *tests]
    # no bytecode cache: a mutant of the same size, written in the same second
    # as the last one, would otherwise be read from the last one's cache
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    original = (ROOT / "src" / "minijif" / "checker.py").read_text(encoding="utf-8")
    for m in MUTANTS:
        if original.count(m.source) != 1:
            print(f"source text of {m.name!r} does not occur exactly once in checker.py")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        checker = src / "minijif" / "checker.py"
        if not run_tests(src, [m.test for m in MUTANTS if m.test is not None]):
            print("a killing test fails on the unmutated source")
            return 2
        survivors = 0
        print(f"{'row':<50} {'result':<10} test")
        for m in MUTANTS:
            if m.test is None:
                print(f"{m.name:<50} {'equivalent':<10} -")
                continue
            checker.write_text(original.replace(m.source, m.replacement), encoding="utf-8")
            killed = not run_tests(src, [m.test])
            survivors += not killed
            print(f"{m.name:<50} {'killed' if killed else 'SURVIVED':<10} {m.test}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
