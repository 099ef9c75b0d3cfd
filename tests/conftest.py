import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


def corpus_files() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.mjif"))


def bench_gen():
    """The benchmark's workload generators, ``bench/gen.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_gen", REPO_ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
