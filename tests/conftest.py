import importlib.util
import random
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


@pytest.fixture
def decided(monkeypatch) -> list:
    """Every record that ``checker.decide`` receives while the test runs."""
    from minijif import checker

    records, decide = [], checker.decide

    def recording(batch, hierarchy, authority):
        records.extend(batch)
        return decide(batch, hierarchy, authority)

    monkeypatch.setattr(checker, "decide", recording)
    return records


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


# the corpus files that mutants are drawn from, frozen so that adding a corpus
# file leaves every mutant, and so the digest pinned over them, as it is
MUTANT_SOURCES = (
    "arity.mjif", "authority_claim.mjif", "booking_bob_leak.mjif",
    "booking_no_authority.mjif", "booking_no_declassify.mjif", "booking_ok.mjif",
    "call_receiver_leak.mjif", "creator_authority.mjif", "declassify_from.mjif",
    "declassify_integrity.mjif", "delegation.mjif", "early_return_leak.mjif",
    "end_label.mjif", "implicit_flow.mjif", "label_variables.mjif",
    "loop_condition_leak.mjif", "loop_return_leak.mjif", "nested_loop_return_leak.mjif",
    "pc_mismatch.mjif", "secret_declaration.mjif", "short_circuit_leak.mjif",
    "type_errors.mjif", "undefined_names.mjif", "unknown_method.mjif",
)


def corpus_mutants(n: int, seed: str) -> list[str]:
    """``n`` files of ``MUTANT_SOURCES``, each with one to three bytes replaced, inserted or deleted."""
    rng = random.Random(seed)
    sources = [(CORPUS_DIR / name).read_bytes() for name in MUTANT_SOURCES]
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
