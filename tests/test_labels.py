import random

import pytest
from hypothesis import given, settings, strategies as st

from minijif.labels import (
    ConfPolicy,
    EMPTY,
    IntegPolicy,
    JoinNode,
    LabelVar,
    MeetNode,
    SemLabel,
    conf_owners,
    equivalent,
    flows_to,
    interpret_conf,
    interpret_integ,
    interpret_label,
    join,
    join_all,
    label_to_text,
    leaves,
    meet,
)
from minijif.principals import BOTTOM, Named, TOP
from oracles import (
    SemOracle,
    hierarchy_from_edges,
    oracle_sem,
    random_hierarchy,
    random_label,
    random_policy,
)

ALICE, BOB, CHUCK = Named("Alice"), Named("Bob"), Named("Chuck")
OWNER, OPERATOR = Named("Owner"), Named("Operator")


def conf(owner, *readers):
    return ConfPolicy(owner, readers)


def integ(owner, *writers):
    return IntegPolicy(owner, writers)


class TestPolicyInterpretation:
    def test_bottom_reader_means_everyone(self):
        # {Alice->_}: everyone can read
        h = hierarchy_from_edges(["Alice", "Bob"], [])
        assert interpret_conf(conf(ALICE, BOTTOM), h) == h.all_principals()

    def test_owner_only(self):
        # frozen from the enumeration oracle
        h = hierarchy_from_edges(["Owner", "Operator"], [])
        assert interpret_conf(conf(OWNER, TOP), h) == {OWNER, TOP}

    def test_delegated_reader(self):
        h = hierarchy_from_edges(["Alice", "Bob", "Carol"], [(Named("Carol"), BOB)])
        assert interpret_conf(conf(ALICE, BOB), h) == {ALICE, BOB, Named("Carol"), TOP}

    def test_integ_owner_only(self):
        # {Alice<-*}: only Alice can write
        h = hierarchy_from_edges(["Alice", "Bob"], [])
        assert interpret_integ(integ(ALICE, TOP), h) == {ALICE, TOP}

    def test_integ_listed_writer(self):
        h = hierarchy_from_edges(["Charles", "Bob"], [])
        assert interpret_integ(integ(Named("Charles"), BOB), h) == {Named("Charles"), BOB, TOP}

    def test_integ_bottom_writer_means_everyone(self):
        h = hierarchy_from_edges(["Alice", "Bob", "Chuck"], [])
        assert interpret_integ(integ(ALICE, BOTTOM), h) == h.all_principals()

    def test_policies_need_members(self):
        with pytest.raises(ValueError):
            ConfPolicy(ALICE, ())
        with pytest.raises(ValueError):
            IntegPolicy(ALICE, ())


class TestLabelInterpretation:
    def setup_method(self):
        self.h = hierarchy_from_edges(["Alice", "Bob", "Chuck"], [])

    def test_conjunction_readers(self):
        # {Chuck->*; Alice->Chuck}: frozen from the intersection oracle
        lab = JoinNode(conf(CHUCK, TOP), conf(ALICE, CHUCK))
        assert interpret_label(lab, self.h).readers == {CHUCK, TOP}

    def test_meet_readers(self):
        # {Alice->Chuck meet Bob->Chuck meet Chuck->*}: union oracle
        lab = MeetNode(MeetNode(conf(ALICE, CHUCK), conf(BOB, CHUCK)), conf(CHUCK, TOP))
        assert interpret_label(lab, self.h).readers == {ALICE, BOB, CHUCK, TOP}

    def test_empty_is_public_trusted(self):
        sem = interpret_label(EMPTY, self.h)
        assert sem == SemLabel(self.h.all_principals(), frozenset({TOP}))

    def test_empty_writers_stay_top_when_everyone_acts_for_top(self):
        # under _ >= * every principal acts for top, yet {} admits top alone as writer
        h = hierarchy_from_edges(["Alice"], [(BOTTOM, TOP)])
        assert h.actors(TOP) == h.all_principals()
        assert interpret_label(EMPTY, h).writers == {TOP}

    def test_conf_leaf_is_writer_unrestricted(self):
        sem = interpret_label(conf(ALICE, TOP), self.h)
        assert sem.writers == self.h.all_principals()

    def test_integ_leaf_is_reader_unrestricted(self):
        sem = interpret_label(integ(ALICE, TOP), self.h)
        assert sem.readers == self.h.all_principals()
        assert sem.writers == {ALICE, TOP}

    def test_pair_form_keeps_reader_restriction(self):
        # {Alice->_; Alice<-*} reads as a join of both components
        lab = JoinNode(conf(ALICE, BOTTOM), integ(ALICE, TOP))
        sem = interpret_label(lab, self.h)
        assert sem.readers == self.h.all_principals()

    def test_label_var_has_no_meaning(self):
        with pytest.raises(ValueError):
            interpret_label(LabelVar("L"), self.h)

    def test_top_always_member(self):
        rng = random.Random(11)
        for _ in range(200):
            h = random_hierarchy(rng)
            pool = sorted(h.all_principals(), key=str)
            sem = interpret_label(random_label(rng, pool), h)
            assert TOP in sem.readers
            assert TOP in sem.writers


class TestFlowOrder:
    def setup_method(self):
        self.h = hierarchy_from_edges(["Owner", "Operator"], [])

    def test_secret_does_not_flow_to_weaker(self):
        assert not flows_to(conf(OWNER, TOP), conf(OWNER, OPERATOR), self.h)

    def test_weaker_flows_to_secret(self):
        # {Owner,Top} is a subset of {Owner,Operator,Top}
        assert flows_to(conf(OWNER, OPERATOR), conf(OWNER, TOP), self.h)

    def test_reflexive(self):
        rng = random.Random(3)
        for _ in range(100):
            h = random_hierarchy(rng)
            pool = sorted(h.all_principals(), key=str)
            lab = random_label(rng, pool)
            assert flows_to(lab, lab, h)

    def test_public_trusted_is_bottom(self):
        rng = random.Random(5)
        for _ in range(200):
            h = random_hierarchy(rng)
            pool = sorted(h.all_principals(), key=str)
            assert flows_to(EMPTY, random_label(rng, pool), h)


class TestJoinMeet:
    def test_join_pretty_prints_like_the_source(self):
        lab = join(conf(CHUCK, TOP), conf(ALICE, CHUCK))
        assert label_to_text(lab) == "{Chuck->*; Alice->Chuck}"

    def test_join_with_empty_is_identity(self):
        h = hierarchy_from_edges(["Alice"], [])
        lab = conf(ALICE, TOP)
        assert join(lab, EMPTY) == lab
        assert join(EMPTY, lab) == lab
        assert equivalent(join(lab, EMPTY), lab, h)

    def test_meet_idempotent(self):
        h = hierarchy_from_edges(["Alice"], [])
        lab = conf(ALICE, TOP)
        assert meet(lab, lab) == lab
        assert equivalent(meet(lab, lab), lab, h)

    def test_join_keeps_distinct_operands_syntactic(self):
        a, b = conf(ALICE, TOP), conf(BOB, TOP)
        assert join(a, b) == JoinNode(a, b)
        assert meet(a, b) == MeetNode(a, b)

    def test_join_all(self):
        assert join_all([]) == EMPTY
        a = conf(ALICE, TOP)
        assert join_all([EMPTY, a, a]) == a

    def test_join_is_lub_and_meet_is_glb(self):
        rng = random.Random(13)
        for _ in range(300):
            h = random_hierarchy(rng, max_principals=4)
            pool = sorted(h.all_principals(), key=str)
            a, b = random_label(rng, pool, 2), random_label(rng, pool, 2)
            oracle = SemOracle(h)
            ra, wa = oracle.sem(a)
            rb, wb = oracle.sem(b)
            sem_join = interpret_label(join(a, b), h)
            assert (sem_join.readers, sem_join.writers) == (ra & rb, wa | wb)
            sem_meet = interpret_label(meet(a, b), h)
            assert (sem_meet.readers, sem_meet.writers) == (ra | rb, wa & wb)


def join_parts(label):
    """``;`` components of a label tree, left to right, repeats kept."""
    if isinstance(label, JoinNode):
        return join_parts(label.left) + join_parts(label.right)
    return [] if label == EMPTY else [label]


class TestJoinNormalForm:
    """A join is the union of two sets of components: a repeat is dropped."""

    def operands(self, rng):
        h = random_hierarchy(rng, max_principals=2)
        pool = sorted(h.all_principals(), key=str)
        a, b = random_label(rng, pool, 2), random_label(rng, pool, 2)
        if rng.random() < 0.5:  # make the operands share a component
            b = JoinNode(b, rng.choice(join_parts(a) or [EMPTY]))
        return h, a, b

    def test_join_means_the_join_node(self):
        rng = random.Random(29)
        for _ in range(300):
            h, a, b = self.operands(rng)
            oracle = SemOracle(h)
            assert oracle.sem(join(a, b)) == oracle.sem(JoinNode(a, b))

    def test_join_text_drops_repeated_components(self):
        rng = random.Random(31)
        for _ in range(300):
            _, a, b = self.operands(rng)
            parts = join_parts(a)
            if a == EMPTY or len(set(parts)) < len(parts):
                continue
            kept = dict.fromkeys(join_parts(JoinNode(a, b)))
            expected = "{" + "; ".join(label_to_text(p)[1:-1] for p in kept) + "}"
            assert label_to_text(join(a, b)) == expected

    def test_join_with_a_contained_label_is_the_same_object(self):
        rng = random.Random(37)
        for _ in range(300):
            _, a, b = self.operands(rng)
            ab = join(a, b)
            assert join(ab, b) is ab

    def test_join_all_lists_each_component_once(self):
        rng = random.Random(41)
        for _ in range(200):
            pool = [ALICE, BOB, TOP]
            policies = [random_policy(rng, pool) for _ in range(3)]
            items = policies + [join(policies[0], policies[1])]
            labels = rng.choices(items, k=8)
            parts = join_parts(join_all(labels))
            assert parts == list(dict.fromkeys(p for l in labels for p in join_parts(l)))


class TestLeaves:
    def test_leaves_left_to_right_through_joins_and_meets(self):
        var = LabelVar("L")
        lab = JoinNode(MeetNode(conf(BOB, TOP), integ(ALICE, TOP)), JoinNode(EMPTY, var))
        assert list(leaves(lab)) == [conf(BOB, TOP), integ(ALICE, TOP), var]

    def test_conf_owners_first_occurrence_order(self):
        lab = join_all([conf(BOB, TOP), integ(CHUCK, TOP),
                        meet(conf(ALICE, TOP), conf(BOB, ALICE)), conf(CHUCK, BOB)])
        assert conf_owners(lab) == [BOB, ALICE, CHUCK]
        assert conf_owners(EMPTY) == []


class TestEquivalence:
    def test_reflexive(self):
        h = hierarchy_from_edges(["Alice"], [])
        lab = conf(ALICE, TOP)
        assert equivalent(lab, lab, h)

    def test_duplicate_reader_irrelevant(self):
        h = hierarchy_from_edges(["Alice", "Bob"], [])
        assert equivalent(conf(ALICE, BOB), ConfPolicy(ALICE, (BOB, BOB)), h)

    def test_different_owners_not_equivalent(self):
        h = hierarchy_from_edges(["Alice", "Bob"], [])
        assert not equivalent(conf(ALICE, TOP), conf(BOB, TOP), h)


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_interpret_matches_enumeration(self, pyrng):
        h = random_hierarchy(pyrng, max_principals=4)
        pool = sorted(h.all_principals(), key=str)
        lab = random_label(pyrng, pool)
        sem = interpret_label(lab, h)
        assert (sem.readers, sem.writers) == oracle_sem(lab, h)

    def test_hierarchy_growth_never_shrinks_policies(self):
        rng = random.Random(17)
        for _ in range(200):
            h = random_hierarchy(rng, max_principals=4)
            pool = sorted(h.all_principals(), key=str)
            sup, inf = rng.choice(pool), rng.choice(pool)
            h2 = h.delegate(sup, inf)
            owner = rng.choice(pool)
            members = (rng.choice(pool),)
            assert interpret_conf(ConfPolicy(owner, members), h) <= interpret_conf(
                ConfPolicy(owner, members), h2
            )
            assert interpret_integ(IntegPolicy(owner, members), h) <= interpret_integ(
                IntegPolicy(owner, members), h2
            )


class TestPrettyText:
    def test_empty(self):
        assert label_to_text(EMPTY) == "{}"

    def test_policy_lists(self):
        lab = JoinNode(ConfPolicy(ALICE, (BOB, CHUCK)), IntegPolicy(ALICE, (TOP,)))
        assert label_to_text(lab) == "{Alice->Bob,Chuck; Alice<-*}"

    def test_distinguished_tokens(self):
        assert label_to_text(conf(ALICE, BOTTOM)) == "{Alice->_}"

    def test_meet_binds_tighter_than_join(self):
        lab = JoinNode(MeetNode(conf(ALICE, TOP), conf(BOB, TOP)), conf(CHUCK, TOP))
        assert label_to_text(lab) == "{Alice->* meet Bob->*; Chuck->*}"

    def test_join_under_meet_is_parenthesized(self):
        lab = MeetNode(JoinNode(conf(ALICE, TOP), conf(BOB, TOP)), conf(CHUCK, TOP))
        assert label_to_text(lab) == "{(Alice->*; Bob->*) meet Chuck->*}"
