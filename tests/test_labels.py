import copy
import pickle
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
    conf_owners,
    flows_to,
    interpret_label,
    join,
    join_all,
    label_to_text,
    leaves,
    meet,
)
from minijif import interned, syntax as ast
from minijif.parser import parse_label, parse_program
from minijif.principals import BOTTOM, PrincipalHierarchy, TOP
from oracles import (
    actors,
    SemOracle,
    decoded,
    equivalent,
    hierarchy_from_edges,
    oracle_flows,
    oracle_sem,
    random_hierarchy,
    random_label,
    random_policy,
)

ALICE, BOB, CHUCK = "Alice", "Bob", "Chuck"
OWNER, OPERATOR = "Owner", "Operator"


def conf(owner, *readers):
    return ConfPolicy(owner, readers)


def integ(owner, *writers):
    return IntegPolicy(owner, writers)


class TestPolicyInterpretation:
    def test_bottom_reader_means_everyone(self):
        # {Alice->_}: everyone can read
        h = hierarchy_from_edges(["Alice", "Bob"], [])
        assert decoded(interpret_label(conf(ALICE, BOTTOM), h), h)[0] == h.universe

    def test_owner_only(self):
        # frozen from the enumeration oracle
        h = hierarchy_from_edges(["Owner", "Operator"], [])
        assert decoded(interpret_label(conf(OWNER, TOP), h), h)[0] == {OWNER, TOP}

    def test_delegated_reader(self):
        h = hierarchy_from_edges(["Alice", "Bob", "Carol"], [("Carol", BOB)])
        assert decoded(interpret_label(conf(ALICE, BOB), h), h)[0] == {ALICE, BOB, "Carol", TOP}

    def test_integ_owner_only(self):
        # {Alice<-*}: only Alice can write
        h = hierarchy_from_edges(["Alice", "Bob"], [])
        assert decoded(interpret_label(integ(ALICE, TOP), h), h)[1] == {ALICE, TOP}

    def test_integ_listed_writer(self):
        h = hierarchy_from_edges(["Charles", "Bob"], [])
        assert decoded(interpret_label(integ("Charles", BOB), h), h)[1] == {"Charles", BOB, TOP}

    def test_integ_bottom_writer_means_everyone(self):
        h = hierarchy_from_edges(["Alice", "Bob", "Chuck"], [])
        assert decoded(interpret_label(integ(ALICE, BOTTOM), h), h)[1] == h.universe

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
        assert decoded(interpret_label(lab, self.h), self.h)[0] == {CHUCK, TOP}

    def test_meet_readers(self):
        # {Alice->Chuck meet Bob->Chuck meet Chuck->*}: union oracle
        lab = MeetNode(MeetNode(conf(ALICE, CHUCK), conf(BOB, CHUCK)), conf(CHUCK, TOP))
        assert decoded(interpret_label(lab, self.h), self.h)[0] == {ALICE, BOB, CHUCK, TOP}

    def test_join_of_empty_groups_is_empty(self):
        # the parser joins the groups away; a join node over them means {} too
        for lab in (parse_label("{(); ()}"), JoinNode(EMPTY, EMPTY)):
            assert interpret_label(lab, self.h) == interpret_label(EMPTY, self.h)

    def test_empty_is_public_trusted(self):
        sem = interpret_label(EMPTY, self.h)
        assert decoded(sem, self.h) == (self.h.universe, {TOP})

    def test_empty_writers_stay_top_when_everyone_acts_for_top(self):
        # under _ >= * every principal acts for top, yet {} admits top alone as writer
        h = hierarchy_from_edges(["Alice"], [(BOTTOM, TOP)])
        assert actors(h, TOP) == h.universe
        assert decoded(interpret_label(EMPTY, h), h)[1] == {TOP}

    def test_conf_leaf_is_writer_unrestricted(self):
        sem = decoded(interpret_label(conf(ALICE, TOP), self.h), self.h)
        assert sem[1] == self.h.universe

    def test_integ_leaf_is_reader_unrestricted(self):
        sem = decoded(interpret_label(integ(ALICE, TOP), self.h), self.h)
        assert sem[0] == self.h.universe
        assert sem[1] == {ALICE, TOP}

    def test_pair_form_keeps_reader_restriction(self):
        # {Alice->_; Alice<-*} reads as a join of both components
        lab = JoinNode(conf(ALICE, BOTTOM), integ(ALICE, TOP))
        sem = decoded(interpret_label(lab, self.h), self.h)
        assert sem[0] == self.h.universe

    def test_label_var_has_no_meaning(self):
        with pytest.raises(ValueError):
            interpret_label(LabelVar("L"), self.h)

    def test_top_always_member(self):
        rng = random.Random(11)
        for _ in range(200):
            h = random_hierarchy(rng)
            pool = sorted(h.universe)
            readers, writers = decoded(interpret_label(random_label(rng, pool), h), h)
            assert TOP in readers
            assert TOP in writers


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
            pool = sorted(h.universe)
            lab = random_label(rng, pool)
            assert flows_to(lab, lab, h)

    def test_public_trusted_is_bottom(self):
        rng = random.Random(5)
        for _ in range(200):
            h = random_hierarchy(rng)
            pool = sorted(h.universe)
            assert flows_to(EMPTY, random_label(rng, pool), h)

    # criterion 3's random hierarchies: (declared at least, at most; acyclic; hierarchies; pairs)
    @pytest.mark.parametrize("least, most, acyclic, hierarchies, pairs",
                             [(0, 5, True, 2_000, 1), (64, 128, False, 30, 50)],
                             ids=["narrow", "wide"])
    def test_a_fresh_principal_changes_no_meaning(self, least, most, acyclic, hierarchies, pairs):
        # One hierarchy decides every class, with every class's parameters declared
        # in it: a parameter Y that no label mentions acts for nothing but itself
        # and bottom, so its bit in a label's meaning is bottom's, and no verdict moves.
        rng = random.Random(424242)
        verdicts = set()
        for _ in range(hierarchies):
            h = random_hierarchy(rng, max_principals=most, acyclic=acyclic,
                                 min_principals=least)
            wide = h.declare("Y")
            y, bottom = wide.mask(("Y",)), wide.mask((BOTTOM,))
            pool = sorted(h.universe)
            for _ in range(pairs):
                l1, l2 = random_label(rng, pool), random_label(rng, pool)
                verdict = flows_to(l1, l2, h)
                assert flows_to(l1, l2, wide) == verdict
                verdicts.add(verdict)
                sem = interpret_label(l1, wide)
                for mask in (sem.readers, sem.writers):
                    assert bool(mask & y) == bool(mask & bottom)
                readers, writers = decoded(sem, wide)
                assert (readers - {"Y"}, writers - {"Y"}) == decoded(interpret_label(l1, h), h)
        assert verdicts == {True, False}


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
            pool = sorted(h.universe)
            a, b = random_label(rng, pool, 2), random_label(rng, pool, 2)
            oracle = SemOracle(h)
            ra, wa = oracle.sem(a)
            rb, wb = oracle.sem(b)
            sem_join = decoded(interpret_label(join(a, b), h), h)
            assert sem_join == (ra & rb, wa | wb)
            sem_meet = decoded(interpret_label(meet(a, b), h), h)
            assert sem_meet == (ra | rb, wa & wb)


def join_parts(label):
    """``;`` components of a label tree, left to right, repeats kept."""
    out, todo = [], [label]
    while todo:
        x = todo.pop()
        if isinstance(x, JoinNode):
            todo += (x.right, x.left)
        elif x is not EMPTY:
            out.append(x)
    return out


class TestJoinNormalForm:
    """A join is the union of two sets of components: a repeat is dropped."""

    def operands(self, rng):
        h = random_hierarchy(rng, max_principals=2)
        pool = sorted(h.universe)
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

    def test_long_chain_matches_the_plain_fold(self):
        # a sum over many differently labelled values, with repeated
        # components, joins onto recent labels and operands that are joins
        rng = random.Random(43)
        pool = [conf(f"P{i}", TOP) for i in range(4000)]
        fast, slow = [EMPTY], [EMPTY]
        for _ in range(3000):
            k = len(fast) - 1 - (rng.randrange(1, 4) if rng.random() < 0.1 else 0)
            l1, l2 = fast[max(k, 0)], rng.choice(pool)
            if rng.random() < 0.1:
                l2 = JoinNode(l2, rng.choice(pool))
            if rng.random() < 0.05:  # a join spine `join` did not build
                l1 = JoinNode(l1, rng.choice(pool))
            fast.append(join(l1, l2))
            slow.append(plain_join(l1, l2))
        assert all(a is b for a, b in zip(fast, slow))
        assert len(join_parts(fast[-1])) > 2000
        text = "{" + "; ".join(label_to_text(p)[1:-1] for p in join_parts(slow[-1])) + "}"
        assert label_to_text(fast[-1]) == text


def plain_join(l1, l2):
    """``join`` as one pass over both operands' components, with no memo."""
    if l1 is l2 or l2 is EMPTY:
        return l1
    if l1 is EMPTY:
        return l2
    seen = set(join_parts(l1))
    for c in join_parts(l2):
        if c not in seen:
            seen.add(c)
            l1 = JoinNode(l1, c)
    return l1


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
        pool = sorted(h.universe)
        lab = random_label(pyrng, pool)
        assert decoded(interpret_label(lab, h), h) == oracle_sem(lab, h)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_empty_label_and_the_label_itself_flow_to_it(self, pyrng):
        # the two flows checker.decide passes without interpreting a label
        h = random_hierarchy(pyrng, max_principals=4)
        lab = random_label(pyrng, sorted(h.universe))
        assert flows_to(EMPTY, lab, h) is oracle_flows(EMPTY, lab, h) is True
        assert flows_to(lab, lab, h) is oracle_flows(lab, lab, h) is True

    def test_hierarchy_growth_never_shrinks_policies(self):
        rng = random.Random(17)
        for _ in range(200):
            h = random_hierarchy(rng, max_principals=4)
            pool = sorted(h.universe)
            sup, inf = rng.choice(pool), rng.choice(pool)
            h2 = h.delegate((sup, inf))
            owner = rng.choice(pool)
            members = (rng.choice(pool),)
            cp, ip = ConfPolicy(owner, members), IntegPolicy(owner, members)
            assert decoded(interpret_label(cp, h), h)[0] <= decoded(interpret_label(cp, h2), h2)[0]
            assert decoded(interpret_label(ip, h), h)[1] <= decoded(interpret_label(ip, h2), h2)[1]


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


class TestInterning:
    """Labels and types are hash-consed: one live object per distinct value."""

    def test_parser_and_constructors_build_the_same_objects(self):
        assert parse_label("{Alice->Bob,Chuck; Alice<-*}") is JoinNode(
            conf(ALICE, BOB, CHUCK), integ(ALICE, TOP))
        assert parse_label("{}") is EMPTY
        program = parse_program("principal Alice;\nclass C[principal P] {\n"
                                "    C[Alice]{Alice->*} f;\n    int g;\n}\n")
        f, g = program.decls[1].fields
        assert f.type is ast.ClassType("C", (ALICE,))
        assert f.label is conf(ALICE, TOP)
        assert g.type is ast.INT

    def test_labels_intern_by_principal_value(self):
        # strings built at run time are distinct objects; the label is still one
        assert parse_label("{Alice->*}") is ConfPolicy("Alice", (TOP,))
        assert ConfPolicy("".join(["Ali", "ce"]), ("*",)) is conf(ALICE, TOP)
        assert ast.ClassType("C", ("".join(["Ali", "ce"]),)) is ast.ClassType("C", (ALICE,))

    def test_types_of_different_kinds_stay_distinct(self):
        assert ast.INT is not ast.BOOLEAN
        assert ast.PrimType("int") is ast.INT and ast.PrimType("void") is ast.VOID
        assert ast.ClassType("C", (ALICE,)) is ast.ClassType("C", (ALICE,))
        assert ast.ClassType("C") is ast.ClassType("C", ())
        assert ast.ClassType("C", (ALICE,)) is not ast.ClassType("C", (BOB,))
        # nodes of different kinds with the same fields
        assert JoinNode(conf(ALICE, TOP), EMPTY) is not MeetNode(conf(ALICE, TOP), EMPTY)
        assert conf(ALICE, BOB) is not integ(ALICE, BOB)

    @pytest.mark.parametrize("value", [
        EMPTY, LabelVar("L"), MeetNode(conf(ALICE, TOP), integ(BOB, BOTTOM)),
        JoinNode(conf(ALICE, BOB, CHUCK), integ(ALICE, TOP)),
        ast.INT, ast.ClassType("C", (ALICE, TOP)),
        PrincipalHierarchy().declare(ALICE).delegate((ALICE, TOP)),
    ], ids=repr)
    def test_copies_and_pickles_are_the_same_object(self, value):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert copy.deepcopy([value, value]) == [value, value]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) is value

    def test_fields_cannot_be_set(self):
        label = conf(ALICE, BOB)
        with pytest.raises(AttributeError):
            label.owner = BOB
        with pytest.raises(AttributeError):
            del label.readers
        with pytest.raises(AttributeError):
            ast.ClassType("C").name = "D"
        assert label is conf(ALICE, BOB) and label.owner == ALICE

    def test_repr_names_the_fields(self):
        assert repr(conf(ALICE, TOP)) == "ConfPolicy(owner='Alice', readers=('*',))"
        assert repr(ast.ClassType("C")) == "ClassType(name='C', principal_args=())"

    def test_dropped_labels_leave_the_table(self):
        before = len(interned._table)
        labels = [JoinNode(conf(f"P{i}", TOP), integ(ALICE, f"W{i}"))
                  for i in range(10_000)]
        assert len(interned._table) >= before + 10_000
        del labels
        assert len(interned._table) == before

    def test_deep_join_chain_hashes_without_recursion(self):
        label = EMPTY
        for i in range(5_000):
            label = JoinNode(label, conf(f"P{i % 7}", TOP))
        assert label in {label: 1} and label == label
        rebuilt = EMPTY
        for i in range(5_000):
            rebuilt = JoinNode(rebuilt, conf(f"P{i % 7}", TOP))
        assert rebuilt is label
        del label, rebuilt  # freeing the chain must not overflow either
