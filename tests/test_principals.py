import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from minijif.principals import (
    BOTTOM,
    HierarchyParseError,
    InvalidIdentifier,
    PrincipalHierarchy,
    TOP,
    UnknownPrincipal,
    parse_hierarchy,
    principal_from_token,
)
from oracles import all_edge_subsets, format_hierarchy, oracle_acts_for, random_hierarchy


ALICE, BOB, CAROL = "Alice", "Bob", "Carol"


def hier(*names: str) -> PrincipalHierarchy:
    return PrincipalHierarchy().declare(*names)


class TestDeclare:
    def test_single_insertion(self):
        assert hier("Alice").declared == {ALICE}

    def test_idempotent(self):
        h = hier("Alice")
        assert h.declare("Alice").declared == {ALICE}

    def test_set_union(self):
        assert hier("Alice", "Bob").declared == {ALICE, BOB}

    @pytest.mark.parametrize("bad", ["", "1x", "a b", "*", "_", "we-ird"])
    def test_invalid_identifier(self, bad):
        with pytest.raises(InvalidIdentifier):
            PrincipalHierarchy().declare(bad)


class TestDelegation:
    def test_superior_acts_for_inferior(self):
        h = hier("Alice", "Bob").delegate((ALICE, BOB))
        assert h.acts_for(ALICE, BOB)

    def test_idempotent(self):
        h = hier("Alice", "Bob").delegate((ALICE, BOB))
        assert h.delegate((ALICE, BOB)) == h

    def test_transitive_chain(self):
        h = hier("Alice", "Bob", "Carol")
        h = h.delegate((ALICE, BOB))
        h = h.delegate((BOB, CAROL))
        # frozen from the brute-force reachability oracle
        assert h.acts_for(ALICE, CAROL)

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownPrincipal):
            hier("Alice").delegate((ALICE, BOB))

    def test_top_bottom_endpoints_accepted(self):
        h = hier("Alice").delegate((TOP, ALICE))
        h = h.delegate((ALICE, BOTTOM))
        assert h.acts_for(ALICE, BOTTOM)


class TestActsFor:
    def test_top_acts_for_all(self):
        assert hier("Alice").acts_for(TOP, ALICE)

    def test_reflexive(self):
        assert hier("Alice").acts_for(ALICE, ALICE)

    def test_no_path(self):
        h = hier("Alice", "Bob").delegate((ALICE, BOB))
        assert not h.acts_for(BOB, ALICE)

    def test_total_on_undeclared(self):
        h = PrincipalHierarchy()
        ghost = "Ghost"
        assert h.acts_for(ghost, ghost)
        assert h.acts_for(TOP, ghost)
        assert h.acts_for(ghost, BOTTOM)
        assert not h.acts_for(ghost, "Other")
        assert h.actors(ghost) == {TOP}

    def test_delegating_to_top_grants_everything(self):
        # Alice >= * makes Alice act for everyone, transitively through top.
        h = hier("Alice", "Bob").delegate((ALICE, TOP))
        assert h.acts_for(ALICE, BOB)


class TestAllPrincipals:
    def test_empty(self):
        assert PrincipalHierarchy().universe == {TOP, BOTTOM}

    def test_single(self):
        assert hier("Alice").universe == {ALICE, TOP, BOTTOM}

    def test_cardinality(self):
        assert len(hier("Alice", "Bob", "Chuck").universe) == 5


class TestInvariants:
    def test_exhaustive_small_hierarchies(self):
        # reflexivity, top/bottom laws, and oracle agreement on every
        # hierarchy over two principals
        for h in all_edge_subsets(["A", "B"]):
            universe = h.universe
            for p in universe:
                assert h.acts_for(p, p)
                assert h.acts_for(TOP, p)
                assert h.acts_for(p, BOTTOM)
                for q in universe:
                    assert h.acts_for(p, q) == oracle_acts_for(h, p, q)

    def test_transitive_exhaustive(self):
        for h in all_edge_subsets(["A", "B", "C"],
                                  edge_pool=[("A", "B"),
                                             ("B", "C"),
                                             ("C", "A")]):
            universe = h.universe
            for p in universe:
                for q in universe:
                    if not h.acts_for(p, q):
                        continue
                    for r in universe:
                        if h.acts_for(q, r):
                            assert h.acts_for(p, r)

    def test_monotone_growth(self):
        rng = random.Random(7)
        for _ in range(50):
            h = random_hierarchy(rng, max_principals=4)
            universe = sorted(h.universe)
            pool = [p for p in universe]
            sup, inf = rng.choice(pool), rng.choice(pool)
            h2 = h.delegate((sup, inf))
            for p in universe:
                for q in universe:
                    if h.acts_for(p, q):
                        assert h2.acts_for(p, q)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_oracle_equivalence_random_graphs(self, pyrng):
        h = random_hierarchy(pyrng, max_principals=6)
        universe = h.universe
        for p in universe:
            for q in universe:
                assert h.acts_for(p, q) == oracle_acts_for(h, p, q)


class TestTextFormat:
    def test_round_trip(self):
        h = hier("Alice", "Bob").delegate((ALICE, BOB))
        assert parse_hierarchy(format_hierarchy(h)) == h

    def test_comments_and_blanks(self):
        h = parse_hierarchy("# staff\nprincipal Alice\n\nactsfor * >= Alice  # redundant\n")
        assert h.declared == {ALICE}
        assert (TOP, ALICE) in h.delegations

    def test_declaration_order_irrelevant(self):
        h = parse_hierarchy("actsfor Alice >= Bob\nprincipal Alice\nprincipal Bob\n")
        assert h.acts_for(ALICE, BOB)

    @pytest.mark.parametrize("text", ["principal\n", "actsfor A > B\n", "nonsense\n",
                                      "actsfor A >= B\n"])
    def test_malformed(self, text):
        with pytest.raises(HierarchyParseError):
            parse_hierarchy(text)

    @pytest.mark.parametrize("text, message", [
        ("principal A\nactsfor A >= B\nprincipal 9x\n", "line 3: invalid principal name: '9x'"),
        ("principal A\nactsfor A >= B\nactsfor C >= A\n", "line 2: undeclared principal: B"),
        ("principal A\nbogus\n", "line 2: cannot parse 'bogus'"),
    ])
    def test_errors_name_their_line(self, text, message):
        with pytest.raises(HierarchyParseError, match=f"^{re.escape(message)}$"):
            parse_hierarchy(text)

    def test_principal_tokens(self):
        assert principal_from_token("*") == TOP
        assert principal_from_token("_") == BOTTOM
        assert principal_from_token("Alice") == ALICE
        with pytest.raises(InvalidIdentifier):
            principal_from_token("9lives")


class TestInterning:
    def test_one_object_per_principal(self):
        # a principal is its name, a str compared by value: `written` is built
        # at run time, so it is a different object from the literal "Alice"
        written = "".join(["Al", "ice"])
        assert type(principal_from_token(written)) is str
        assert principal_from_token(written) == ALICE
        assert principal_from_token("*") == TOP == "*"
        assert principal_from_token("_") == BOTTOM == "_"
        h = parse_hierarchy("principal Alice\nprincipal Bob\nactsfor Alice >= Bob\n")
        assert h.declared == {ALICE, BOB} and h.delegations == {(ALICE, BOB)}
        ((sup, inf),) = h.delegations
        assert all(type(p) is str for p in (*h.declared, sup, inf))
        assert h.acts_for(written, BOB)

    def test_one_object_per_hierarchy(self):
        # equal hierarchies are one object, however and in whatever order they were built
        h = parse_hierarchy("actsfor Alice >= Bob\nprincipal Bob\nprincipal Alice\n")
        assert h is PrincipalHierarchy().declare(ALICE, BOB).delegate((ALICE, BOB))
        assert h is hier(BOB).declare(ALICE, BOB).delegate((ALICE, BOB), (ALICE, BOB))
        assert h.delegate((ALICE, BOB)) is h and h.declare(ALICE) is h
        assert h is not hier(ALICE, BOB)
