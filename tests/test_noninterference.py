"""Differential-execution harness checks (small scale; criterion 5 runs 1,000)."""

from minijif.checker import check_program
from minijif.parser import parse_program

from interp import evaluate_program
from oracles import ast_equal
from pretty import pretty_print
from proggen import SECRET_INPUTS, generate_program, run_differential
import pytest
import random

LEAKY = """principal A;

class Main {
    void main{}() {
        int{A->*} s;
        int{} p;
        if (s > 8) {
            p = 1;
        }
    }
}
"""

# the loop form of the early-return leak (corpus/loop_return_leak.mjif): the
# statements before the return run again only if it did not fire
LOOP_LEAKY = """principal A;

class Main {
    void main{}() {
        int{A->*} s;
        int{} p = 0;
        int c = 0;
        while (c < 3) {
            p = c;
            c = c + 1;
            if (s > 8) {
                return;
            }
        }
    }
}
"""

SAFE = """principal A;

class Main {
    void main{}() {
        int{A->*} s;
        int{} p;
        int{A->*} shadow = 0;
        if (s > 8) {
            shadow = 1;
        }
        p = p + 2;
    }
}
"""


@pytest.mark.parametrize("source", [LEAKY, LOOP_LEAKY], ids=["branch", "loop_return"])
def test_harness_detects_the_leak_the_checker_rejects(source):
    program = parse_program(source)
    assert check_program(program), "checker must reject the implicit flow"
    # and had it been accepted, the differential run would have caught it
    outs = [evaluate_program(program, {"s": v}) for v in (0, 17)]
    assert outs[0]["p"] != outs[1]["p"]


def test_accepted_program_is_noninterfering():
    program = parse_program(SAFE)
    assert check_program(program) == []
    outs = [evaluate_program(program, {"s": v}) for v in SECRET_INPUTS]
    assert outs[0]["p"] == outs[1]["p"] == 2
    assert outs[0]["shadow"] != outs[1]["shadow"]  # the secret side may differ


def test_generated_programs_parse_and_round_trip():
    rng = random.Random(31337)
    for _ in range(25):
        program = parse_program(generate_program(rng))
        assert ast_equal(program, parse_program(pretty_print(program)))


def test_small_differential_batch():
    stats = run_differential(150, seed=7)
    assert stats.violations == []
    assert stats.accepted and stats.rejected
