"""Hand-written mutants of ``src/minijif/checker.py``, each with the test that kills it.

A row names the flow rule it weakens, a source text that occurs exactly once
in ``checker.py``, the text that replaces it, and the tier-1 test that fails
under the replacement.  An equivalent mutant, which no test can kill because
it checks every program alike, has no test and says why instead.

``tests/test_mutants.py`` (tier-1) checks that each source text still occurs
exactly once and that each killing test still exists, so the table cannot go
stale silently.  ``python tests/run_mutants.py`` applies each row to a copy of
``src`` and runs its killing test there.

The first rows weaken the test each flow-record site makes before it records
a flow: the replacement drops the pc from the test, so the site drops a flow
that only the pc makes fail.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "rule source replacement test argument", defaults=(None,))

MUTANTS = (
    Mutant(
        "initializer record: the pc in its test",
        "source = init_label if pc is EMPTY else join(init_label, pc)",
        "source = init_label",
        "tests/test_checker.py::TestDeclarations::test_initializer_carries_the_pc",
    ),
    Mutant(
        "assignment record: the pc in its test",
        "source = value if pc is EMPTY else join(value, pc)",
        "source = value",
        "tests/test_checker.py::TestAssignments::test_implicit_flow_under_raised_pc",
    ),
    Mutant(
        "return record: the pc in its test",
        "if source is not EMPTY and source is not mi.return_label:",
        "if vlabel is not EMPTY and vlabel is not mi.return_label:",
        "tests/test_checker.py::TestReturn::test_returned_value_carries_the_pc",
    ),
    Mutant(
        "call pc record: the pc in its test",
        "if source is not EMPTY and source is not begin:",
        "if rlabel is not EMPTY and rlabel is not begin:",
        "tests/test_corpus.py::test_corpus_file_matches_sidecar[short_circuit_leak.mjif]",
    ),
    Mutant(
        "call argument record: the pc in its test",
        "if source is not EMPTY and source is not param:",
        "if alabel is not EMPTY and alabel is not param:",
        "tests/test_checker.py::TestCalls::test_argument_carries_the_pc",
    ),
    Mutant(
        "new field record: the pc in its test",
        "source = alabel if pc is EMPTY else join(alabel, pc)",
        "source = alabel",
        "tests/test_checker.py::TestCalls::test_constructor_argument_carries_the_pc",
    ),
    Mutant(
        "loop record after the solve: the pc in its test",
        "test = source if pc is None or pc is EMPTY else join(source, pc)",
        "test = source",
        "tests/test_loop_solve.py::test_loop_records_are_tested_after_the_solve",
    ),
    Mutant(
        "loop solve: the condition's label",
        "substitute_label(ctx.pc, {var: join(saved_pc, clabel)})",
        "substitute_label(ctx.pc, {var: saved_pc})",
        None,
        "The end pc that is solved already holds the condition's label: the body is "
        "walked at join(var, clabel), and the pc is only ever joined onto.  Mapping "
        "var to saved_pc or to join(saved_pc, clabel) then gives the same components "
        "in the same first-occurrence order, so the same interned label.",
    ),
)
