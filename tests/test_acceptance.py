"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from minijif.checker import check_program
from minijif.cli import _read_expectations
from minijif.diagnostics import CATALOG
from minijif.labels import (
    ConfPolicy,
    EMPTY,
    IntegPolicy,
    JoinNode,
    interpret_label,
    flows_to,
    join,
    meet,
)
from minijif.parser import parse_program
from minijif.principals import BOTTOM, TOP

from conftest import corpus_files
from oracles import (
    actors,
    decoded,
    oracle_closure,
    SemOracle,
    all_edge_subsets,
    ast_equal,
    hierarchy_from_edges,
    random_hierarchy,
    random_label,
)
from pretty import pretty_print
from proggen import run_differential


@contextmanager
def criterion(num: int, name: str, budget: "float | None" = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL {name} ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {num} PASS {name} ({elapsed:.2f}s)")


# ---------------------------------------------------------------- criterion 1

DEMO_EXPECTATIONS = {
    "booking_ok.mjif": [],
    "booking_no_declassify.mjif": [("E-FLOW", 14)],
    "booking_bob_leak.mjif": [("E-FLOW", 27)],
    "booking_no_authority.mjif": [("E-DECL-AUTH", 15)],
}


def test_c1_demo_reproduction(corpus_dir):
    with criterion(1, "demo reproduction", budget=1.0):
        for name, expected in DEMO_EXPECTATIONS.items():
            path = corpus_dir / name
            program = parse_program(path.read_text(), file=name)
            actual = [(d.code, d.span.start[0]) for d in check_program(program)]
            assert actual == expected, f"{name}: {actual} != {expected}"


# ---------------------------------------------------------------- criterion 2

def _policy_family():
    """Every policy with owner and members drawn from three named principals."""
    prs = ["A", "B", "C"]
    member_sets = [
        tuple(ms)
        for k in (1, 2, 3)
        for ms in itertools.combinations(prs, k)
    ]
    conf = [ConfPolicy(o, ms) for o in prs for ms in member_sets]
    integ = [IntegPolicy(o, ms) for o in prs for ms in member_sets]
    return prs, conf, integ


def _combo_indices(n: int):
    return [()] + [(i,) for i in range(n)] + list(itertools.combinations(range(n), 2))


def _join_spine(policies):
    label = EMPTY
    for p in policies:
        label = p if label is EMPTY else JoinNode(label, p)
    return label


def _mask(index: dict, members) -> int:
    out = 0
    for p in members:
        out |= 1 << index[p]
    return out


def test_c2_lattice_laws_exhaustive():
    prs, conf, integ = _policy_family()
    conf_combos = _combo_indices(len(conf))
    edge_pool = [(prs[0], prs[1]), (prs[1], prs[2]), (prs[2], prs[0])]
    with criterion(2, "lattice laws (53,824 labels x 8 hierarchies)", budget=60.0):
        for k in range(len(edge_pool) + 1):
            for edges in itertools.combinations(edge_pool, k):
                _check_lattice_laws(prs, conf, integ, conf_combos, edges)


def _check_lattice_laws(prs, conf, integ, combos, edges):
    h = hierarchy_from_edges(list(prs), edges)
    universe = sorted(h.universe)
    index = {p: i for i, p in enumerate(universe)}
    full = (1 << len(universe)) - 1
    top_only = 1 << index[TOP]

    # oracle policy interpretations, independent of the production path
    oracle = SemOracle(h)
    conf_r = [_mask(index, oracle.policy_members(p.owner, p.readers)) for p in conf]
    integ_w = [_mask(index, oracle.policy_members(p.owner, p.writers)) for p in integ]

    def combo_and(masks, picks):
        out = full
        for i in picks:
            out &= masks[i]
        return out

    def combo_or(masks, picks):
        out = 0
        for i in picks:
            out |= masks[i]
        return out

    classes: dict[tuple[int, int], object] = {}
    for cc in combos:
        # a join of policies: readers intersect, writers union
        oracle_r = combo_and(conf_r, cc)
        conf_part = [conf[i] for i in cc]
        for ic in combos:
            if cc and ic:
                oracle_w = full  # a conf leaf admits every writer
            elif ic:
                oracle_w = combo_or(integ_w, ic)
            else:
                oracle_w = top_only if not cc else full
            label = _join_spine(conf_part + [integ[i] for i in ic])
            sem = interpret_label(label, h)
            got = (_mask(index, h.decode(sem.readers)), _mask(index, h.decode(sem.writers)))
            assert got == (oracle_r, oracle_w), f"sem mismatch for {label}"
            assert flows_to(label, label, h), f"not reflexive: {label}"
            classes.setdefault(got, label)

    reps = list(classes.items())
    n = len(reps)
    rvec = np.array([r for (r, _), _ in reps], dtype=np.int64)
    wvec = np.array([w for (_, w), _ in reps], dtype=np.int64)
    labels = [lab for _, lab in reps]

    # production order relation on the semantic quotient
    leq_prod = np.zeros((n, n), dtype=bool)
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            leq_prod[i, j] = flows_to(li, lj, h)
    # oracle relation: reader sets shrink, writer sets grow
    leq_oracle = ((rvec[:, None] & rvec[None, :]) == rvec[None, :]) & (
        (wvec[:, None] & wvec[None, :]) == wvec[:, None]
    )
    assert (leq_prod == leq_oracle).all(), "flow order disagrees with inclusion oracle"

    # antisymmetry up to equivalence: distinct classes are never mutually ordered
    assert ((leq_prod & leq_prod.T) == np.eye(n, dtype=bool)).all()

    # transitivity via boolean matrix product
    reach2 = (leq_prod.astype(np.int64) @ leq_prod.astype(np.int64)) > 0
    assert not (reach2 & ~leq_prod).any(), "flow order is not transitive"

    # join is the least upper bound, meet the greatest lower bound
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            sem = interpret_label(join(li, lj), h)
            got = (_mask(index, h.decode(sem.readers)), _mask(index, h.decode(sem.writers)))
            want = (int(rvec[i] & rvec[j]), int(wvec[i] | wvec[j]))
            assert got == want, f"join sem mismatch at ({i},{j})"
            upper = leq_oracle[i, :] & leq_oracle[j, :]
            lub_below = ((got[0] & rvec) == rvec) & ((got[1] & wvec) == got[1])
            assert not (upper & ~lub_below).any(), "join is not least"

            sem = interpret_label(meet(li, lj), h)
            got = (_mask(index, h.decode(sem.readers)), _mask(index, h.decode(sem.writers)))
            want = (int(rvec[i] | rvec[j]), int(wvec[i] & wvec[j]))
            assert got == want, f"meet sem mismatch at ({i},{j})"
            lower = leq_oracle[:, i] & leq_oracle[:, j]
            glb_above = ((got[0] & rvec) == got[0]) & ((got[1] & wvec) == wvec)
            assert not (lower & ~glb_above).any(), "meet is not greatest"


# ---------------------------------------------------------------- criterion 3

# (declared principals at least, at most; acyclic; hierarchies; label pairs in each)
C3_UNIVERSES = {
    "narrow": (0, 5, True, 10_000, 1),
    # 66-130 principals with top and bottom: masks wider than a machine word,
    # under cycles and, in some hierarchies, edges through * or _
    "wide": (64, 128, False, 30, 50),
}


@pytest.mark.parametrize("universe", C3_UNIVERSES)
def test_c3_randomized_flow_oracle(universe):
    least, most, acyclic, hierarchies, pairs = C3_UNIVERSES[universe]
    rng = random.Random(424242)
    cases = hierarchies * pairs
    verdicts, exotic = set(), 0
    with criterion(3, f"randomized flows_to oracle equivalence ({universe}, {cases} cases)"):
        for _ in range(hierarchies):
            h = random_hierarchy(rng, max_principals=most, acyclic=acyclic,
                                 min_principals=least)
            exotic += any(TOP in e or BOTTOM in e for e in h.delegations)
            pool = sorted(h.universe)
            oracle = SemOracle(h)
            for _ in range(pairs):
                l1, l2 = random_label(rng, pool), random_label(rng, pool)
                verdict = flows_to(l1, l2, h)
                assert verdict == oracle.flows(l1, l2)
                assert decoded(interpret_label(l1, h), h) == oracle.sem(l1)
                verdicts.add(verdict)
        assert verdicts == {True, False} and exotic > 0


# ---------------------------------------------------------------- criterion 4

def _acts_for_suite(h) -> dict:
    """Reflexivity, top/bottom laws, transitivity, oracle agreement, actors sets."""
    universe = h.universe
    rel = {(p, q): h.acts_for(p, q) for p in universe for q in universe}
    oracle_pairs = oracle_closure(h)
    for p in universe:
        assert rel[(p, p)]
        assert rel[(TOP, p)]
        assert rel[(p, BOTTOM)]
    for pq, got in rel.items():
        assert got == (pq in oracle_pairs)
    for q in universe:
        assert actors(h, q) == {p for p in universe if rel[(p, q)]}
    for p in universe:
        for q in universe:
            if not rel[(p, q)]:
                continue
            for r in universe:
                if rel[(q, r)]:
                    assert rel[(p, r)], f"transitivity broke at {p},{q},{r}"
    return rel


def test_c4_acts_for_properties():
    with criterion(4, "acts-for property suites (|declared| <= 4, exhaustive)"):
        for n in range(5):
            names = [f"P{i}" for i in range(n)]
            pool = [(p, q) for p in names for q in names if p != q]
            for h in all_edge_subsets(names):
                rel = _acts_for_suite(h)
                # monotonicity: every single-edge extension only grows the relation
                for edge in pool:
                    grown = h.delegate(edge)
                    assert grown.acts_for(*edge)
                    for pq, held in rel.items():
                        if held:
                            assert grown.acts_for(*pq)

        # the distinguished principals may appear as explicit endpoints
        rng = random.Random(99)
        for _ in range(300):
            h = random_hierarchy(rng, max_principals=4, allow_distinguished=True)
            _acts_for_suite(h)


# ---------------------------------------------------------------- criterion 5

def test_c5_differential_noninterference():
    count = 1_000
    with criterion(5, f"differential noninterference ({count} programs)", budget=120.0):
        stats = run_differential(count, seed=2024)
        assert stats.violations == [], f"{len(stats.violations)} noninterference violations"
        assert stats.accepted + stats.rejected == count
        # the harness is vacuous unless both verdicts actually occur
        assert stats.accepted >= 50, f"only {stats.accepted} programs accepted"
        assert stats.rejected >= 50, f"only {stats.rejected} programs rejected"


# ---------------------------------------------------------------- criterion 6

def test_c6_parser_round_trip():
    files = corpus_files()
    with criterion(6, f"parser round-trip on the corpus ({len(files)} files)"):
        assert files
        for path in files:
            program = parse_program(path.read_text(), file=str(path))
            reparsed = parse_program(pretty_print(program), file=str(path))
            assert ast_equal(program, reparsed), f"round-trip changed {path.name}"


# ---------------------------------------------------------------- criterion 7

def test_c7_diagnostic_catalog_coverage():
    files = corpus_files()
    with criterion(7, "diagnostic catalog coverage (13 codes)"):
        fired = set()
        for path in files:
            expected = _read_expectations(path.with_suffix(".expect"))
            program = parse_program(path.read_text(), file=str(path))
            actual = sorted((d.code, d.span.start[0]) for d in check_program(program))
            assert actual == expected, f"{path.name} drifted from its sidecar"
            fired |= {code for code, _ in expected}
        assert fired == CATALOG, f"missing codes: {sorted(CATALOG - fired)}"
