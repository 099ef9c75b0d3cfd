import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from minijif.principals import (
    BOTTOM,
    Bottom,
    HierarchyParseError,
    InvalidIdentifier,
    Named,
    PrincipalHierarchy,
    TOP,
    Top,
    UnknownPrincipal,
    acts_for,
    add_delegation,
    all_principals,
    declare_principal,
    format_hierarchy,
    parse_hierarchy,
    principal_from_token,
)
from oracles import all_edge_subsets, oracle_acts_for, random_hierarchy


ALICE, BOB, CAROL = Named("Alice"), Named("Bob"), Named("Carol")


def hier(*names: str) -> PrincipalHierarchy:
    h = PrincipalHierarchy()
    for n in names:
        h = declare_principal(h, n)
    return h


class TestDeclare:
    def test_single_insertion(self):
        assert hier("Alice").declared == {ALICE}

    def test_idempotent(self):
        h = hier("Alice")
        assert declare_principal(h, "Alice").declared == {ALICE}

    def test_set_union(self):
        assert hier("Alice", "Bob").declared == {ALICE, BOB}

    @pytest.mark.parametrize("bad", ["", "1x", "a b", "*", "_", "we-ird"])
    def test_invalid_identifier(self, bad):
        with pytest.raises(InvalidIdentifier):
            declare_principal(PrincipalHierarchy(), bad)


class TestDelegation:
    def test_superior_acts_for_inferior(self):
        h = add_delegation(hier("Alice", "Bob"), ALICE, BOB)
        assert acts_for(h, ALICE, BOB)

    def test_idempotent(self):
        h = add_delegation(hier("Alice", "Bob"), ALICE, BOB)
        assert add_delegation(h, ALICE, BOB) == h

    def test_transitive_chain(self):
        h = hier("Alice", "Bob", "Carol")
        h = add_delegation(h, ALICE, BOB)
        h = add_delegation(h, BOB, CAROL)
        # frozen from the brute-force reachability oracle
        assert acts_for(h, ALICE, CAROL)

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownPrincipal):
            add_delegation(hier("Alice"), ALICE, BOB)

    def test_top_bottom_endpoints_accepted(self):
        h = add_delegation(hier("Alice"), TOP, ALICE)
        h = add_delegation(h, ALICE, BOTTOM)
        assert acts_for(h, ALICE, BOTTOM)


class TestActsFor:
    def test_top_acts_for_all(self):
        assert acts_for(hier("Alice"), TOP, ALICE)

    def test_reflexive(self):
        assert acts_for(hier("Alice"), ALICE, ALICE)

    def test_no_path(self):
        h = add_delegation(hier("Alice", "Bob"), ALICE, BOB)
        assert not acts_for(h, BOB, ALICE)

    def test_total_on_undeclared(self):
        h = PrincipalHierarchy()
        ghost = Named("Ghost")
        assert acts_for(h, ghost, ghost)
        assert acts_for(h, TOP, ghost)
        assert acts_for(h, ghost, BOTTOM)
        assert not acts_for(h, ghost, Named("Other"))
        assert h.actors(ghost) == {TOP}

    def test_delegating_to_top_grants_everything(self):
        # Alice >= * makes Alice act for everyone, transitively through top.
        h = add_delegation(hier("Alice", "Bob"), ALICE, TOP)
        assert acts_for(h, ALICE, BOB)


class TestAllPrincipals:
    def test_empty(self):
        assert all_principals(PrincipalHierarchy()) == {TOP, BOTTOM}

    def test_single(self):
        assert all_principals(hier("Alice")) == {ALICE, TOP, BOTTOM}

    def test_cardinality(self):
        assert len(all_principals(hier("Alice", "Bob", "Chuck"))) == 5


class TestInvariants:
    def test_exhaustive_small_hierarchies(self):
        # reflexivity, top/bottom laws, and oracle agreement on every
        # hierarchy over two principals
        for h in all_edge_subsets(["A", "B"]):
            universe = all_principals(h)
            for p in universe:
                assert acts_for(h, p, p)
                assert acts_for(h, TOP, p)
                assert acts_for(h, p, BOTTOM)
                for q in universe:
                    assert acts_for(h, p, q) == oracle_acts_for(h, p, q)

    def test_transitive_exhaustive(self):
        for h in all_edge_subsets(["A", "B", "C"],
                                  edge_pool=[(Named("A"), Named("B")),
                                             (Named("B"), Named("C")),
                                             (Named("C"), Named("A"))]):
            universe = all_principals(h)
            for p in universe:
                for q in universe:
                    if not acts_for(h, p, q):
                        continue
                    for r in universe:
                        if acts_for(h, q, r):
                            assert acts_for(h, p, r)

    def test_monotone_growth(self):
        rng = random.Random(7)
        for _ in range(50):
            h = random_hierarchy(rng, max_principals=4)
            universe = sorted(all_principals(h), key=str)
            pool = [p for p in universe]
            sup, inf = rng.choice(pool), rng.choice(pool)
            h2 = add_delegation(h, sup, inf)
            for p in universe:
                for q in universe:
                    if acts_for(h, p, q):
                        assert acts_for(h2, p, q)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_oracle_equivalence_random_graphs(self, pyrng):
        h = random_hierarchy(pyrng, max_principals=6)
        universe = all_principals(h)
        for p in universe:
            for q in universe:
                assert acts_for(h, p, q) == oracle_acts_for(h, p, q)


class TestTextFormat:
    def test_round_trip(self):
        h = add_delegation(hier("Alice", "Bob"), ALICE, BOB)
        assert parse_hierarchy(format_hierarchy(h)) == h

    def test_comments_and_blanks(self):
        h = parse_hierarchy("# staff\nprincipal Alice\n\nactsfor * >= Alice  # redundant\n")
        assert h.declared == {ALICE}
        assert (TOP, ALICE) in h.delegations

    def test_declaration_order_irrelevant(self):
        h = parse_hierarchy("actsfor Alice >= Bob\nprincipal Alice\nprincipal Bob\n")
        assert acts_for(h, ALICE, BOB)

    @pytest.mark.parametrize("text", ["principal\n", "actsfor A > B\n", "nonsense\n",
                                      "actsfor A >= B\n"])
    def test_malformed(self, text):
        with pytest.raises(HierarchyParseError):
            parse_hierarchy(text)

    def test_principal_tokens(self):
        assert principal_from_token("*") == TOP
        assert principal_from_token("_") == BOTTOM
        assert principal_from_token("Alice") == ALICE
        with pytest.raises(InvalidIdentifier):
            principal_from_token("9lives")


class TestInterning:
    def test_one_object_per_principal(self):
        assert Named("Alice") is ALICE
        assert principal_from_token("Alice") is ALICE
        assert principal_from_token("*") is TOP and Top() is TOP
        assert principal_from_token("_") is BOTTOM and Bottom() is BOTTOM
        assert parse_hierarchy("principal Alice\n").declared == {ALICE}

    def test_named_hashes_by_its_name(self):
        assert hash(ALICE) == hash("Alice")
        assert ALICE != "Alice"

    @pytest.mark.parametrize("p", [ALICE, TOP, BOTTOM], ids=str)
    def test_copies_and_pickles_are_the_same_object(self, p):
        assert copy.copy(p) is p and copy.deepcopy(p) is p
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(p, protocol)) is p

    def test_name_cannot_be_set(self):
        with pytest.raises(AttributeError):
            ALICE.name = "Bob"
        assert str(ALICE) == "Alice"
