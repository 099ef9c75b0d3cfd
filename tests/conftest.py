import importlib.util
import random
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


# bytes a mutation writes: the lexer's own alphabet, plus a byte that
# never starts a UTF-8 character (it decodes to U+FFFD, a stray character)
MUTATION_BYTES = b'aZ_09 \t\r\n"\\/{}-<>=!&|;,.:*+()[]@#\x80'


def corpus_mutants(n: int, seed: str) -> list[str]:
    """``n`` corpus files, each with one to three bytes replaced, inserted or deleted."""
    rng = random.Random(seed)
    sources = [path.read_bytes() for path in corpus_files()]
    out = []
    for _ in range(n):
        data = bytearray(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            i, op = rng.randrange(len(data)), rng.randrange(3)
            if op == 0:
                data[i] = rng.choice(MUTATION_BYTES)
            elif op == 1:
                data.insert(i, rng.choice(MUTATION_BYTES))
            else:
                del data[i]
        out.append(data.decode("utf-8", errors="replace"))
    return out
