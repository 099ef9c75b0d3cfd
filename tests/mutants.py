"""Hand-written mutants of ``src/minijif/checker.py``, each with the test that kills it.

A row names the rule of ``checker.RULES`` it weakens (``None`` for code that
every rule shares), a name, a source text that occurs exactly once in
``checker.py``, the text that replaces it, and the tier-1 test that fails
under the replacement.  An equivalent mutant, which no test can kill because
it checks every program alike, has no test and says why instead.

``tests/test_mutants.py`` (tier-1) checks that each source text still occurs
exactly once, that each killing test still exists, and that every ``flow``
call that passes the pc has a row, so the table cannot go stale silently.
``python tests/run_mutants.py`` applies each row to a copy of ``src`` and
runs its killing test there.

The first rows drop the pc from one site's ``flow`` call, so the site
records a flow that only the pc makes fail as if the pc were ``{}``.  The
next three drop the rules that carry no pc: the authority a ``new`` needs,
and the two records of a ``declassify``.  The last rows weaken what every
rule shares: the test in ``flow``, and the loop's records made again once
its pc is solved.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "rule name source replacement test argument", defaults=(None,))

MUTANTS = (
    Mutant(
        "initializer", "initializer record: the pc in its test",
        'flow(ctx.records, "initializer", init_label, ctx.pc,',
        'flow(ctx.records, "initializer", init_label, EMPTY,',
        "tests/test_checker.py::TestDeclarations::test_initializer_carries_the_pc",
    ),
    Mutant(
        "assign", "assignment record: the pc in its test",
        '"assign-field", value, ctx.pc,',
        '"assign-field", value, EMPTY,',
        "tests/test_checker.py::TestAssignments::test_implicit_flow_under_raised_pc",
    ),
    Mutant(
        "return", "return record: the pc in its test",
        'flow(ctx.records, "return", vlabel, ctx.pc,',
        'flow(ctx.records, "return", vlabel, EMPTY,',
        "tests/test_checker.py::TestReturn::test_returned_value_carries_the_pc",
    ),
    Mutant(
        "pc-end", "end pc record: the pc",
        'flow(ctx.records, "pc-end", ctx.pc,',
        'flow(ctx.records, "pc-end", EMPTY,',
        "tests/test_checker.py::TestReturn::test_end_label_checked_at_return",
    ),
    Mutant(
        "call-pc", "call pc record: the pc in its test",
        'flow(ctx.records, "call-pc", ctx.pc,',
        'flow(ctx.records, "call-pc", EMPTY,',
        "tests/test_corpus.py::test_corpus_file_matches_sidecar[short_circuit_leak.mjif]",
    ),
    Mutant(
        "call-arg", "call argument record: the pc in its test",
        'flow(ctx.records, "call-arg", alabel, ctx.pc,',
        'flow(ctx.records, "call-arg", alabel, EMPTY,',
        "tests/test_checker.py::TestCalls::test_argument_carries_the_pc",
    ),
    Mutant(
        "new-field", "new field record: the pc in its test",
        'flow(ctx.records, "new-field", alabel, ctx.pc,',
        'flow(ctx.records, "new-field", alabel, EMPTY,',
        "tests/test_checker.py::TestCalls::test_constructor_argument_carries_the_pc",
    ),
    Mutant(
        "new-authority", "new authority record: dropped",
        "for p in inst.authority:",
        "for p in ():",
        "tests/test_corpus.py::test_corpus_file_matches_sidecar[creator_authority.mjif]",
    ),
    Mutant(
        "declassify-from", "declassify-from record: dropped",
        'flow(ctx.records, "declassify-from", elabel,',
        'flow(ctx.records, "declassify-from", EMPTY,',
        "tests/test_corpus.py::test_corpus_file_matches_sidecar[declassify_from.mjif]",
    ),
    Mutant(
        "declassify", "declassify record: dropped",
        'flow(ctx.records, "declassify", from_label,',
        'flow(ctx.records, "declassify", to_label,',
        "tests/test_corpus.py::test_corpus_file_matches_sidecar[booking_no_authority.mjif]",
    ),
    Mutant(
        None, "flow: the pc in its test",
        "source = value if pc is EMPTY else join(value, pc)",
        "source = value",
        "tests/test_checker.py::TestAssignments::test_implicit_flow_under_raised_pc",
    ),
    Mutant(
        None, "loop remake after the solve",
        "flow(ctx.records, rule, *map(solve, parts), span, *names)",
        "ctx.records.append((rule, *parts, span, names))",
        "tests/test_loop_solve.py::test_loop_records_are_tested_after_the_solve",
    ),
    Mutant(
        None, "loop solve: the condition's label",
        "substitute_label(ctx.pc, {var: join(saved_pc, clabel)})",
        "substitute_label(ctx.pc, {var: saved_pc})",
        None,
        "The end pc that is solved already holds the condition's label: the body is "
        "walked at join(var, clabel), and the pc is only ever joined onto.  Mapping "
        "var to saved_pc or to join(saved_pc, clabel) then gives the same components "
        "in the same first-occurrence order, so the same interned label.",
    ),
)
