import ast as pyast
import gc
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import minijif.checker as checker_module
from minijif.checker import (
    Checker,
    MethodContext,
    TrustConfig,
    _types_match,
    check_program,
    decide,
)
from minijif.cli import _read_expectations
from minijif.diagnostics import CATALOG, Diagnostic, render_json
from minijif.labels import EMPTY, LabelVar, interpret_label, join, label_to_text
from minijif.lexer import tokenize
from minijif.parser import _Parser, parse_label, parse_program
from minijif.principals import PrincipalHierarchy, TOP, UnknownPrincipal
from minijif.span import Span
from minijif import syntax as ast
from conftest import bench_gen
from oracles import SemOracle, decoded, oracle_decide, random_hierarchy, random_label


BOOKING = """
principal Alice;
principal Bob;
principal Chuck;

class Booking[principal Owner, principal Operator] authority(Owner) {
    String{Owner->*} cardNumber;

    String{Owner->*} getFullCardNumber{Owner->*}() {
        return cardNumber;
    }

    String{Owner->Operator} getFirstSix{Owner->Operator}() : {Owner->Operator} where authority(Owner) {
        String{Owner->Operator} result = "";
        result = declassify(cardNumber, {Owner->*} to {Owner->Operator});
        return substring(result, 0, 6);
    }
}

class Application {
    void main{Alice->Chuck meet Bob->Chuck meet Chuck->*}() where authority(Alice, Bob, Chuck) {
        Booking[Alice, Chuck]{Alice->Chuck} booking1 = new Booking[Alice, Chuck]("4444333322221111");
        String{Alice->*} aliceNotebook = booking1.getFullCardNumber();
        String{Chuck->*; Alice->Chuck} operatorNotebook = booking1.getFirstSix();
    }
}
"""


def codes(src: str, trust: TrustConfig | None = None) -> list[str]:
    return [d.code for d in check_program(parse_program(src), trust)]


def wrap(body: str, prelude: str = "principal Alice;\nprincipal Bob;\n") -> str:
    return f"{prelude}class Main {{\n    void main{{}}() {{\n{body}\n    }}\n}}\n"


def parse_expr(text: str) -> ast.Expr:
    parser = _Parser(tokenize(text), "<string>")
    expr = parser.expr()
    parser.expect("EOF")
    return expr


def checker_with_ctx(src: str, cls: str, method: str):
    checker = Checker(parse_program(src))
    checker.run()
    info = checker.classes[cls]
    return checker, info, MethodContext(info, info.methods[method])


class TestCheckExpr:
    def test_literals_are_public_trusted(self):
        checker, info, ctx = checker_with_ctx(BOOKING, "Application", "main")
        for text, typ in [('"4444333322221111"', ast.STRING), ("7", ast.INT), ("true", ast.BOOLEAN)]:
            got_type, got_label = checker.check_expr(ctx, parse_expr(text))
            assert (got_type, got_label) == (typ, EMPTY)

    def test_call_label_substitutes_receiver_principals(self):
        checker, info, ctx = checker_with_ctx(BOOKING, "Application", "main")
        ctx.locals["booking1"] = (
            ast.ClassType("Booking", ("Alice", "Chuck")),
            parse_label("{Alice->Chuck}"),
        )
        typ, label = checker.check_expr(ctx, parse_expr("booking1.getFullCardNumber()"))
        assert typ == ast.STRING
        # {Owner->*} with Owner:=Alice, behind the receiver's label as for a field read
        assert label_to_text(label) == "{Alice->Chuck; Alice->*}"

    def test_substitution_that_repeats_a_component_lists_it_once(self):
        src = wrap("", "principal Alice;\nclass Box[principal P] { int{P->*; Alice->*} f; }\n")
        checker, info, ctx = checker_with_ctx(src, "Main", "main")
        ctx.locals["b"] = (ast.ClassType("Box", ("Alice",)), EMPTY)
        _, label = checker.check_expr(ctx, parse_expr("b.f"))
        assert label_to_text(label) == "{Alice->*}"

    def test_field_label_with_many_components_reads_through_an_instantiation(self):
        owners = [f"A{i}" for i in range(199)]
        prelude = "".join(f"principal {a};\n" for a in ["B", *owners])
        field = "; ".join(f"{a}->*" for a in ["P", *owners])
        src = wrap("", prelude + f"class Box[principal P] {{ int{{{field}}} f; }}\n")
        checker, info, ctx = checker_with_ctx(src, "Main", "main")
        ctx.locals["b"] = (ast.ClassType("Box", ("B",)), EMPTY)
        _, label = checker.check_expr(ctx, parse_expr("b.f"))
        assert label_to_text(label) == "{" + "; ".join(f"{a}->*" for a in ["B", *owners]) + "}"
        assert decoded(interpret_label(label, checker.hierarchy), checker.hierarchy)[0] == {TOP}

    def test_binop_label_is_join_of_operands(self):
        checker, info, ctx = checker_with_ctx(BOOKING, "Application", "main")
        ctx.locals["x"] = (ast.STRING, parse_label("{Alice->*}"))
        ctx.locals["y"] = (ast.STRING, parse_label("{Bob->*}"))
        _, label = checker.check_expr(ctx, parse_expr("concat(x, y)"))
        readers, _ = decoded(interpret_label(label, checker.hierarchy), checker.hierarchy)
        oracle = SemOracle(checker.hierarchy)
        ra, _ = oracle.sem(parse_label("{Alice->*}"))
        rb, _ = oracle.sem(parse_label("{Bob->*}"))
        assert readers == ra & rb

    def test_field_access_joins_receiver_label(self):
        checker, info, ctx = checker_with_ctx(BOOKING, "Application", "main")
        ctx.locals["b"] = (
            ast.ClassType("Booking", ("Alice", "Chuck")),
            parse_label("{Bob->*}"),
        )
        _, label = checker.check_expr(ctx, parse_expr("b.cardNumber"))
        readers, _ = decoded(interpret_label(label, checker.hierarchy), checker.hierarchy)
        oracle = SemOracle(checker.hierarchy)
        expect_r, _ = oracle.sem(parse_label("{Bob->*; Alice->*}"))
        assert readers == expect_r


    def test_primitive_types_are_distinct(self):
        # types of different kinds with equal (empty) fields must not be equal
        assert ast.INT != ast.BOOLEAN
        assert not _types_match(ast.INT, ast.BOOLEAN)


class TestDemoScenarios:
    def test_appendix_demo_is_clean(self):
        assert codes(BOOKING) == []

    def test_bob_cannot_copy_alices_card(self):
        src = BOOKING.replace(
            'String{Alice->*} aliceNotebook = booking1.getFullCardNumber();',
            'String{Alice->*} aliceNotebook = booking1.getFullCardNumber();\n'
            '        String{Bob->*} bobNotebook = booking1.getFullCardNumber();',
        )
        assert codes(src) == ["E-FLOW"]

    def test_missing_declassify_fails_at_return(self):
        src = BOOKING.replace(
            '''String{Owner->Operator} getFirstSix{Owner->Operator}() : {Owner->Operator} where authority(Owner) {
        String{Owner->Operator} result = "";
        result = declassify(cardNumber, {Owner->*} to {Owner->Operator});
        return substring(result, 0, 6);
    }''',
            '''String{Owner->Operator} getFirstSix{Owner->Operator}() {
        return substring(cardNumber, 0, 6);
    }''',
        )
        diagnostics = check_program(parse_program(src))
        assert [d.code for d in diagnostics] == ["E-FLOW"]
        assert diagnostics[0].from_label == "{Owner->*; Owner->Operator}"
        assert diagnostics[0].to_label == "{Owner->Operator}"

    def test_missing_authority(self):
        src = BOOKING.replace(" where authority(Owner) {\n", " {\n")
        assert codes(src) == ["E-DECL-AUTH"]

    def test_untrusted_main_cannot_claim_authority(self):
        # three claims in `where authority(...)`, and `new Booking[Alice, Chuck]`
        # then lacks the authority of Alice that the class spends
        got = codes(BOOKING, TrustConfig(grant_main_authority=False))
        assert got == ["E-AUTH-CLAIM"] * 4


class TestAssignments:
    def test_same_label_assignment_ok(self):
        assert codes(wrap('        int{Alice->*} a = 1;\n        int{Alice->*} b = a;')) == []

    def test_weaker_target_rejected(self):
        assert codes(wrap('        int{Alice->*} a = 1;\n        int{} b = a;')) == ["E-FLOW"]

    def test_implicit_flow_under_raised_pc(self):
        body = (
            "        int{Alice->*} secret = 1;\n"
            "        int{} pub = 0;\n"
            "        if (secret > 0) {\n"
            "            pub = 1;\n"
            "        }"
        )
        assert codes(wrap(body)) == ["E-FLOW-IMPLICIT"]

    def test_literal_condition_is_public(self):
        body = "        int{} pub = 0;\n        if (true) {\n            pub = 1;\n        }"
        assert codes(wrap(body)) == []

    def test_while_condition_raises_pc(self):
        body = (
            "        int{Alice->*} secret = 1;\n"
            "        int{} pub = 0;\n"
            "        while (secret > 0) {\n"
            "            pub = 1;\n"
            "        }"
        )
        assert codes(wrap(body)) == ["E-FLOW-IMPLICIT"]

    def test_nested_conditions_join_both_labels(self):
        # inner pc = {Alice->*} join {Bob->*}; only readers {*} remain,
        # so a target readable by Alice is still too weak
        body = (
            "        int{Alice->*} s1 = 1;\n"
            "        int{Bob->*} s2 = 2;\n"
            "        int{Alice->*} sink = 0;\n"
            "        if (s1 > 0) {\n"
            "            if (s2 > 0) {\n"
            "                sink = 1;\n"
            "            }\n"
            "        }"
        )
        assert codes(wrap(body)) == ["E-FLOW-IMPLICIT"]

    def test_join_labeled_target_accepts_nested_pc(self):
        body = (
            "        int{Alice->*} s1 = 1;\n"
            "        int{Bob->*} s2 = 2;\n"
            "        int{Alice->*; Bob->*} sink = 0;\n"
            "        if (s1 > 0) {\n"
            "            if (s2 > 0) {\n"
            "                sink = 1;\n"
            "            }\n"
            "        }"
        )
        assert codes(wrap(body)) == []

    def test_inferred_local_takes_pc_label(self):
        # t is declared under a raised pc, so t may not leak to pub later
        body = (
            "        int{Alice->*} secret = 1;\n"
            "        int{} pub = 0;\n"
            "        if (secret > 0) {\n"
            "            int t = 1;\n"
            "            pub = t;\n"
            "        }"
        )
        assert codes(wrap(body)) == ["E-FLOW"]

    def test_block_scoping(self):
        body = (
            "        if (true) {\n"
            "            int t = 1;\n"
            "        }\n"
            "        int t = 2;"
        )
        assert codes(wrap(body)) == []

    def test_duplicate_local(self):
        assert codes(wrap("        int t = 1;\n        int t = 2;")) == ["E-TYPE"]


class TestCalls:
    HELPER = (
        "principal Alice;\n"
        "class Helper {\n"
        "    void ping{}() {\n"
        "        return;\n"
        "    }\n"
        "    int{} twice{}(int{} n) {\n"
        "        return n + n;\n"
        "    }\n"
        "}\n"
    )

    def test_arity_mismatch(self):
        src = self.HELPER + wrap(
            "        Helper{} h = new Helper();\n        int x = h.twice(1, 2);",
            prelude="",
        )
        assert codes(src) == ["E-ARITY"]

    def test_unknown_method(self):
        src = self.HELPER + wrap(
            "        Helper{} h = new Helper();\n        h.pong();", prelude=""
        )
        assert codes(src) == ["E-UNKNOWN-METHOD"]

    def test_pc_must_flow_to_begin_label(self):
        src = self.HELPER + (
            "class Main {\n"
            "    void main{Alice->*}() {\n"
            "        Helper{Alice->*} h = new Helper();\n"
            "        h.ping();\n"
            "    }\n"
            "}\n"
        )
        assert codes(src) == ["E-PC-CALL"]

    def test_getter_unreachable_from_foreign_pc(self):
        # begin-label {Owner->*}[Owner:=Alice] does not admit a {Bob->*} pc
        src = BOOKING.replace(
            "class Application {",
            "class Probe {\n"
            "    void run{Bob->*}(Booking[Alice, Chuck]{Bob->*} b) {\n"
            "        String{Alice->*; Bob->*} peek = b.getFullCardNumber();\n"
            "    }\n"
            "}\n\n"
            "class Application {",
        )
        assert codes(src) == ["E-PC-CALL"]

    def test_receiver_label_bounds_pc_and_taints_result(self):
        # o is picked under a secret branch: reading v through get() leaks
        # exactly as much as reading o.v does
        src = (
            "principal Alice;\n"
            "class K {\n"
            "    int v;\n"
            "    int get{}() {\n"
            "        return v;\n"
            "    }\n"
            "}\n"
        ) + wrap(
            "        int{Alice->*} s = 17;\n"
            "        K a = new K(1);\n"
            "        K b = new K(2);\n"
            "        K{Alice->*} o = a;\n"
            "        if (s > 8) {\n"
            "            o = b;\n"
            "        }\n"
            "        int{} p = o.get();\n"
            "        int{} q = o.v;",
            prelude="",
        )
        diags = check_program(parse_program(src))
        assert [(d.code, d.span.start[0], d.from_label) for d in diags] == [
            ("E-FLOW", 17, "{Alice->*}"),
            ("E-PC-CALL", 17, "{Alice->*}"),
            ("E-FLOW", 18, "{Alice->*}"),
        ]

    @pytest.mark.parametrize("cond, leaks", [
        # the right operand runs only for some values of the left one
        ("s > 8 || c.inc()", True),
        ("s > 8 && (p > 1 || c.inc())", True),
        ("p > 8 || c.inc()", False),
        # the left operand runs whatever its value
        ("c.inc() || s > 8", False),
    ])
    def test_short_circuit_operand_runs_under_the_left_label(self, cond, leaks):
        # the last call runs after the condition, at the caller's pc again
        src = (
            "principal Alice;\n"
            "class Counter {\n"
            "    int{} n;\n"
            "    boolean{} inc{}() {\n"
            "        n = n + 1;\n"
            "        return true;\n"
            "    }\n"
            "}\n"
        ) + wrap(
            "        int{Alice->*} s = 17;\n"
            "        int{} p = 0;\n"
            "        Counter{} c = new Counter(0);\n"
            f"        boolean{{Alice->*}} b = {cond};\n"
            "        c.inc();",
            prelude="",
        )
        found = [(d.code, d.span.start[0]) for d in check_program(parse_program(src))]
        assert found == ([("E-PC-CALL", 14)] if leaks else [])

    @pytest.mark.parametrize("loop, leaks", [
        # the call is fine on the first pass; the pc rises only on the second,
        # where the condition runs because the last one held
        ("while (c.inc() && c.n < s) { }", True),
        ("while (c.inc() || c.n < s) { }", True),
        ("while (p < 3 || c.inc() && c.n < s) { }", True),
        ("while (c.inc() && c.n < p) { }", False),
    ])
    def test_loop_condition_runs_under_the_pc_of_the_last_pass(self, loop, leaks):
        # the last call runs after the loop, at the caller's pc again
        src = (
            "principal Alice;\n"
            "class Counter {\n"
            "    int{} n;\n"
            "    boolean{} inc{}() {\n"
            "        n = n + 1;\n"
            "        return true;\n"
            "    }\n"
            "}\n"
        ) + wrap(
            "        int{Alice->*} s = 17;\n"
            "        int{} p = 0;\n"
            "        Counter{} c = new Counter(0);\n"
            f"        {loop}\n"
            "        c.inc();",
            prelude="",
        )
        found = [(d.code, d.span.start[0], d.from_label)
                 for d in check_program(parse_program(src))]
        assert found == ([("E-PC-CALL", 14, "{Alice->*}")] if leaks else [])

    def test_argument_flow_checked(self):
        src = self.HELPER + wrap(
            "        Helper{} h = new Helper();\n"
            "        int{Alice->*} secret = 1;\n"
            "        int x = h.twice(secret);",
            prelude="",
        )
        assert codes(src) == ["E-FLOW"]

    def test_call_on_primitive_is_a_type_error(self):
        assert codes(wrap("        int x = 1;\n        x.next();")) == ["E-TYPE"]

    def test_unannotated_param_defaults_to_begin_label(self):
        src = (
            "principal Alice;\n"
            "class C {\n"
            "    int{Alice->*} id{Alice->*}(int x) {\n"
            "        return x;\n"
            "    }\n"
            "}\n"
            "class Main {\n"
            "    void main{Alice->*}() {\n"
            "        C{Alice->*} c = new C();\n"
            "        int{Alice->*} s = 1;\n"
            "        int{Alice->*} y = c.id(s);\n"
            "    }\n"
            "}\n"
        )
        assert codes(src) == []

    def test_unannotated_return_label_defaults_to_begin_label(self):
        src = (
            "principal Alice;\n"
            "class C {\n"
            "    int one{Alice->*}() {\n"
            "        return 1;\n"
            "    }\n"
            "}\n"
            "class Main {\n"
            "    void main{Alice->*}() {\n"
            "        C{Alice->*} c = new C();\n"
            "        int{} leak = c.one();\n"
            "    }\n"
            "}\n"
        )
        # the result keeps the begin label, so the public sink is rejected
        assert codes(src) == ["E-FLOW"]

    def test_constructor_checks_field_flows(self):
        # the object label also carries the secret argument, so b must be
        # at least as restrictive as the argument join
        src = (
            "principal Alice;\n"
            "class Box {\n"
            "    String{} note;\n"
            "}\n"
            "class Main {\n"
            "    void main{}() {\n"
            "        String{Alice->*} secret = \"s\";\n"
            "        Box{Alice->*} b = new Box(secret);\n"
            "    }\n"
            "}\n"
        )
        assert codes(src) == ["E-FLOW"]

    def test_constructor_arity(self):
        src = (
            "class Box {\n    String{} note;\n}\n"
            "class Main {\n    void main{}() {\n        Box{} b = new Box();\n    }\n}\n"
        )
        assert codes(src) == ["E-ARITY"]

    def test_unknown_class(self):
        assert codes(wrap("        Ghost{} g = new Ghost();")) == ["E-UNDEF", "E-UNDEF"]

    @pytest.mark.parametrize("args, extra", [
        ('1, "x"', []),
        ('"x", 1', ["E-TYPE", "E-TYPE"]),
        ('1, "x", 2', ["E-ARITY"]),
    ])
    def test_constructor_slots_are_the_first_declarations_in_order(self, args, extra):
        # the duplicate `a` is reported and dropped, so the slots are (a, b)
        src = wrap(f"        P{{}} p = new P({args});",
                   "class P { int{} a; String{} b; int{} a; }\n")
        assert codes(src) == ["E-TYPE", *extra]


class TestCreatorAuthority:
    """A class's methods spend its authority for whoever creates the instance."""

    PRELUDE = (
        "principal Alice;\nprincipal Bob;\nprincipal Chuck;\n"
        "class Leaker[principal Owner] authority(Owner) {\n"
        "    int{Owner->Chuck} leak{}(int{Owner->*} x) where authority(Owner) {\n"
        "        return declassify(x, {Owner->*} to {Owner->Chuck});\n"
        "    }\n"
        "}\n"
    )

    def check(self, decls: str):
        return check_program(parse_program(self.PRELUDE + decls))

    def test_generic_class_created_without_its_authority(self):
        diags = self.check(
            "class Main {\n"
            "    void run{}(int{Alice->*} s) {\n"
            "        Leaker[Alice]{} l = new Leaker[Alice]();\n"
            "        int{Alice->Chuck} p = l.leak(s);\n"
            "    }\n"
            "}\n"
        )
        assert [(d.code, d.span.start) for d in diags] == [("E-AUTH-CLAIM", (11, 29))]
        assert "'Alice'" in diags[0].message

    def test_plain_class_created_without_its_authority(self):
        diags = self.check(
            "class Vault authority(Alice) { }\n"
            "class Main {\n"
            "    void run{}() {\n"
            "        Vault{} v = new Vault();\n"
            "    }\n"
            "}\n"
        )
        assert [d.code for d in diags] == ["E-AUTH-CLAIM"]
        assert "'Alice'" in diags[0].message

    def test_authority_of_a_superior_suffices(self):
        diags = self.check(
            "actsfor Bob >= Alice;\n"
            "class Main authority(Bob) {\n"
            "    void run{}(int{Alice->*} s) where authority(Bob) {\n"
            "        Leaker[Alice]{} l = new Leaker[Alice]();\n"
            "        int{Alice->Chuck} p = l.leak(s);\n"
            "    }\n"
            "}\n"
        )
        assert diags == []

    def test_parameter_authority_passes_on_to_the_created_instance(self):
        diags = self.check(
            "class Outer[principal P] authority(P) {\n"
            "    void make{}() where authority(P) {\n"
            "        Leaker[P]{} l = new Leaker[P]();\n"
            "    }\n"
            "}\n"
        )
        assert diags == []


class TestDeclassify:
    def test_identity_declassify_is_free(self):
        body = '        String x = declassify("v", {} to {});'
        assert codes(wrap(body)) == []

    def test_downgrade_needs_authority(self):
        # {Alice->_} keeps the writer set untouched while opening the readers
        body = (
            "        String{Alice->*} secret = \"s\";\n"
            "        String out = declassify(secret, {Alice->*} to {Alice->_});"
        )
        assert codes(wrap(body)) == ["E-DECL-AUTH"]

    def test_authority_of_superior_suffices(self):
        src = (
            "principal Alice;\n"
            "principal Boss;\n"
            "actsfor Boss >= Alice;\n"
            "class Main {\n"
            "    void main{}() where authority(Boss) {\n"
            "        String{Alice->*} secret = \"s\";\n"
            "        String out = declassify(secret, {Alice->*} to {Alice->_});\n"
            "    }\n"
            "}\n"
        )
        assert codes(src) == []

    def test_downgrading_to_trusted_strengthens_integrity(self):
        # a bare confidentiality label admits every writer; {} admits only top
        body = (
            "        String{Alice->*} secret = \"s\";\n"
            "        String out = declassify(secret, {Alice->*} to {});"
        )
        assert codes(wrap(body)) == ["E-DECL-AUTH", "E-DECL-INTEG"]

    def test_from_label_must_cover_expression(self):
        body = (
            "        String{Alice->*} secret = \"s\";\n"
            "        String{} out = declassify(secret, {} to {});"
        )
        assert codes(wrap(body)) == ["E-DECL-FROM"]

    def test_integrity_must_not_strengthen(self):
        body = '        String note = declassify("memo", {Alice<-Alice} to {});'
        assert codes(wrap(body)) == ["E-DECL-INTEG"]

    def test_result_label_is_to_label(self):
        checker, info, ctx = checker_with_ctx(BOOKING, "Booking", "getFirstSix")
        expr = parse_expr("declassify(cardNumber, {Owner->*} to {Owner->Operator})")
        typ, label = checker.check_declassify(ctx, expr)
        assert typ == ast.STRING
        assert label_to_text(label) == "{Owner->Operator}"


class TestReturn:
    def test_literal_returns_anywhere(self):
        src = "class C {\n    int{} one{}() {\n        return 1;\n    }\n}\n"
        assert codes(src) == []

    def test_return_type_checked(self):
        src = "class C {\n    int{} one{}() {\n        return \"1\";\n    }\n}\n"
        assert codes(src) == ["E-TYPE"]

    def test_void_cannot_return_value(self):
        assert codes(wrap("        return 1;")) == ["E-TYPE"]

    def test_missing_value(self):
        src = "class C {\n    int{} one{}() {\n        return;\n    }\n}\n"
        assert codes(src) == ["E-TYPE"]

    def test_end_label_checked_at_return(self):
        src = (
            "principal Alice;\n"
            "class C {\n"
            "    void m{Alice->*}() : {} {\n"
            "        return;\n"
            "    }\n"
            "}\n"
        )
        assert codes(src) == ["E-PC-END"]

    @pytest.mark.parametrize("branch, leaks", [
        ("if (s > 8) { return; }", True),
        # two branches deep, secret on the outside or on the inside
        ("if (s > 8) { if (p < 1) { return; } }", True),
        ("if (p < 1) { while (s > 8) { return; } }", True),
        ("if (p < 1) { return; }", False),
        ("if (s > 8) { int t = 1; } else { return; }", True),
        ("if (s > 8) { int t = 1; }", False),
        # a later branch that does not return neither forgets nor invents a return
        ("if (s > 8) { if (p < 1) { return; } if (p < 2) { } }", True),
        ("if (p < 1) { return; } if (s > 8) { int t = 1; }", False),
    ])
    def test_early_return_keeps_the_raised_pc(self, branch, leaks):
        # whether `p = 1` runs reveals the condition of any branch that may return
        body = f"        int{{Alice->*}} s = 17;\n        int{{}} p = 0;\n        {branch}\n        p = 1;"
        found = [(d.code, d.span.start[0]) for d in check_program(parse_program(wrap(body)))]
        assert found == ([("E-FLOW-IMPLICIT", 8)] if leaks else [])

    @pytest.mark.parametrize("loop, leaks", [
        # the return fires on the first iteration or not: `p = c` and
        # `c = c + 1` before it reveal which, on later iterations
        ("while (c < 3) { p = c; c = c + 1; if (s > 8) { return; } }", 2),
        # two loops deep, the return under the inner loop's secret branch
        ("while (c < 3) { p = c; c = c + 1; while (c < 2) { if (s > 8) { return; } } }", 2),
        # a return under a public condition reveals nothing
        ("while (c < 3) { p = c; c = c + 1; if (p > 8) { return; } }", 0),
        ("while (c < 3) { if (p > 8) { while (c < 2) { return; } } p = c; c = c + 1; }", 0),
    ])
    def test_loop_return_raises_the_pc_of_earlier_statements(self, loop, leaks):
        body = ("        int{Alice->*} s = 17;\n        int{} p = 0;\n        int c = 0;\n"
                f"        {loop}")
        assert codes(wrap(body)) == ["E-FLOW-IMPLICIT"] * leaks


class TestDeclarations:
    def test_unknown_principal_in_label(self):
        assert codes(wrap("        int{Ghost->*} x = 1;")) == ["E-UNDEF"]

    def test_unknown_principal_in_actsfor(self):
        assert codes("principal A;\nactsfor A >= Ghost;\n") == ["E-UNDEF"]

    def test_each_bad_actsfor_is_reported_at_its_line(self):
        src = "principal A;\nactsfor A >= Ghost;\nactsfor A >= A;\nactsfor Spook >= A;\n"
        diagnostics = check_program(parse_program(src))
        assert [(d.code, d.span.start, d.message) for d in diagnostics] == [
            ("E-UNDEF", (2, 1), "undeclared principal: Ghost"),
            ("E-UNDEF", (4, 1), "undeclared principal: Spook"),
        ]

    def test_hierarchy_is_built_in_one_step(self):
        # a tree of 16,000 principals; declaring them and their edges one at
        # a time copied the declared and edge sets per declaration: O(n^2)
        n = 16_000
        lines = [f"principal P{i};" for i in range(n)]
        lines += [f"actsfor P{(i - 1) // 2} >= P{i};" for i in range(1, n)]
        lines.append(wrap(f"        int{{P{n - 1}->*}} x = 1;\n        int{{P0->*}} y = x;\n"
                          "        int{} z = x;", prelude=""))
        program = parse_program("\n".join(lines))
        start = time.perf_counter()
        checker = Checker(program)
        assert [d.code for d in checker.run()] == ["E-FLOW"]
        assert time.perf_counter() - start < 2.0
        assert len(checker.hierarchy.declared) == n and len(checker.hierarchy.delegations) == n - 1
        # a chain of as many: closing it one acts-for set per principal took
        # O(n^2) time and memory, and a recursive walk would pass the stack limit
        lines = [f"principal P{i};" for i in range(n)]
        lines += [f"actsfor P{i - 1} >= P{i};" for i in range(1, n)]
        lines.append(wrap(f"        int{{P{n - 1}->*}} x = 1;\n        int{{P0->*}} y = x;\n"
                          f"        int{{P{n - 1}->*}} z = y;", prelude=""))
        source = "\n".join(lines)
        start = time.perf_counter()
        diagnostics = check_program(parse_program(source))
        assert time.perf_counter() - start < 2.0
        z_line = source.count("\n", 0, source.index(" z = y;")) + 1
        assert [(d.code, d.span.start[0]) for d in diagnostics] == [("E-FLOW", z_line)]

    def test_each_edge_is_validated_once(self, monkeypatch):
        calls = []
        check_edge = PrincipalHierarchy.check_edge

        def counting(self, *edge):
            calls.append(edge)
            return check_edge(self, *edge)

        monkeypatch.setattr(PrincipalHierarchy, "check_edge", counting)
        source = bench_gen().generate("wide_principals", 1)[0]
        trust = TrustConfig(extra_delegations=(("P1", "P2"),))
        check_program(parse_program(source), trust)
        assert len(calls) == source.count("actsfor ") + 1

    def test_one_actor_closure_decides_every_class(self, monkeypatch):
        # a hierarchy per class, each with its own closure over the whole
        # universe, made check time and memory grow as classes x principals
        closures = 0
        actor_masks = PrincipalHierarchy.__dict__["_actor_masks"]
        close = actor_masks.func

        def counting(self):
            nonlocal closures
            closures += 1
            return close(self)

        monkeypatch.setattr(actor_masks, "func", counting)
        # `y = x` is the one flow in each class that decide must interpret
        classes = "".join(
            f"class C{i}[principal O{i}] {{\n"
            f"    int{{O{i}->*; Counted->*}} m{{}}(int{{Counted->*}} x) {{\n"
            f"        int{{O{i}->*; Counted->*}} y = x;\n        return y;\n    }}\n}}\n"
            for i in range(40))
        src = wrap("        int{Counted->*} s = 1;", "principal Counted;\n" + classes)
        assert check_program(parse_program(src)) == []
        assert closures == 1

    # a label or class type is validated once per class: the tests below
    # write the same bad one again, where a cache must not hide it

    def test_a_bad_label_written_twice_is_reported_twice(self):
        src = wrap("        int{Nobody->*} a = 1;\n        int{Nobody->*} b = 2;")
        assert codes(src) == ["E-UNDEF", "E-UNDEF"]

    def test_a_bad_class_type_written_twice_is_reported_twice(self):
        src = ("class Box[principal P] { }\n"
               "class D {\n    Box[Nobody]{} a;\n    Box[Nobody]{} b;\n"
               "    Box{} c;\n    Box{} d;\n}\n")
        assert codes(src) == ["E-UNDEF", "E-UNDEF", "E-ARITY", "E-ARITY"]

    def test_a_parameter_is_known_only_in_its_own_class(self):
        # `{P->*}` and `C[P]` validate clean in C, and are the same values in D
        src = ("class C[principal P] {\n    int{P->*} f;\n    C[P]{} g;\n}\n"
               "class D {\n    int{P->*} f;\n    C[P]{} g;\n}\n")
        assert [(d.code, d.span.start[0]) for d in check_program(parse_program(src))] == [
            ("E-UNDEF", 6), ("E-UNDEF", 7)]

    def test_label_variables_unsupported(self):
        src = "class V {\n    void set{L}(int{L} i) {\n        return;\n    }\n}\n"
        assert codes(src) == ["E-UNSUPPORTED", "E-UNSUPPORTED"]

    def test_authority_claim_outside_class_grant(self):
        src = (
            "principal A;\nprincipal B;\n"
            "class C authority(A) {\n"
            "    void m() where authority(B) {\n        return;\n    }\n"
            "}\n"
        )
        assert codes(src) == ["E-AUTH-CLAIM"]

    def test_duplicate_class(self):
        assert codes("class C { }\nclass C { }\n") == ["E-TYPE"]

    def test_duplicate_field_and_method(self):
        src = "class C {\n    int{} x;\n    int{} x;\n    void m{}() { }\n    void m{}() { }\n}\n"
        assert codes(src) == ["E-TYPE", "E-TYPE"]

    def test_principal_parameter_shadowing_rejected(self):
        src = "principal Owner;\nclass C[principal Owner] { }\n"
        assert codes(src) == ["E-TYPE"]

    def test_void_local_rejected(self):
        assert codes(wrap("        void v;")) == ["E-TYPE"]


class TestTrustConfig:
    def test_extra_delegation_enables_flow(self):
        src = wrap("        String{Alice->Bob} memo = \"m\";\n        String{Alice->Carol} copy = memo;",
                   prelude="principal Alice;\nprincipal Bob;\nprincipal Carol;\n")
        assert codes(src) == ["E-FLOW"]
        trust = TrustConfig(extra_delegations=(("Carol", "Bob"),))
        assert codes(src, trust) == []

    def test_extra_delegation_endpoints_must_be_declared(self):
        with pytest.raises(UnknownPrincipal):
            check_program(
                parse_program("principal A;\n"),
                TrustConfig(extra_delegations=(("A", "Ghost"),)),
            )


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        src = BOOKING.replace(" where authority(Owner) {\n", " {\n")
        one = render_json(check_program(parse_program(src, "f.mjif")))
        two = render_json(check_program(parse_program(src, "f.mjif")))
        assert one == two

    def test_diagnostics_ordered_by_span(self):
        body = "        ghost1 = 1;\n        ghost2 = 2;"
        diagnostics = check_program(parse_program(wrap(body)))
        spans = [d.span.start for d in diagnostics]
        assert spans == sorted(spans)

    def test_all_codes_are_catalogued(self):
        assert len(CATALOG) == 13

    def test_unknown_code_is_rejected(self):
        with pytest.raises(ValueError, match="^unknown diagnostic code 'E-BOGUS'$"):
            Diagnostic("E-BOGUS", Span("f.mjif", (1, 1), (1, 2)), "message")


# flows_to and label_to_text calls in checking each benchmark workload at seed 1
DECISION_CALLS = {
    "deep_nesting": (960, 960),
    "large_source": (0, 0),
    "wide_principals": (1100, 200),
}


def test_label_operations_are_called_through_the_checker_module(monkeypatch, corpus_dir):
    # the benchmark tracer wraps these module globals to count label work;
    # a checker that bound them another way would silently zero its counts
    calls = dict.fromkeys(("flows_to", "join", "join_all", "label_to_text"), 0)
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(checker_module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(checker_module, name, counting)
    path = corpus_dir / "booking_bob_leak.mjif"
    assert check_program(parse_program(path.read_text(), file=str(path)))
    assert all(calls.values()), calls
    gen = bench_gen()
    for workload, pinned in DECISION_CALLS.items():
        calls.update(flows_to=0, label_to_text=0)
        check_program(parse_program(gen.generate(workload, 1)[0]))
        assert (calls["flows_to"], calls["label_to_text"]) == pinned, workload


def test_a_verdict_is_a_function_of_records_and_hierarchy():
    # the record of `int{B->*} y = x;` with `x : {A->*}`, at the empty pc
    h = Checker(parse_program("principal A; principal B;")).hierarchy
    span = Span("f.mjif", (4, 9), (4, 25))
    record = ("E-FLOW", parse_label("{A->*}"), EMPTY, parse_label("{B->*}"), span, "'y'")
    [d] = decide([record], h, frozenset())
    assert (d.code, d.span, d.message, d.from_label, d.to_label) == (
        "E-FLOW", span, "value does not flow to 'y'", "{A->*}", "{B->*}")
    assert decide([record], h.delegate(("B", "A")), frozenset()) == []
    # the record of `new Vault()` for `class Vault authority(A)`, in a method holding B's authority
    message = "creating a 'Vault' needs the authority of 'A', which method 'run' does not hold"
    record = ("authority", "A", None, None, span, message)
    assert decide([record], h, frozenset({"B"})) == [Diagnostic("E-AUTH-CLAIM", span, message)]
    assert decide([record], h.delegate(("B", "A")), frozenset({"B"})) == []


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_decide_agrees_with_an_oracle_that_reads_every_record(pyrng):
    # decide passes unread a record whose source, with its pc joined in, is {}
    # or the target itself; the oracle interprets every record
    h = random_hierarchy(pyrng, max_principals=4)
    pool = sorted(h.universe)
    span = Span("f.mjif", (1, 1), (1, 2))
    records = []
    for _ in range(6):
        target = random_label(pyrng, pool)
        source, pc = (pyrng.choice((EMPTY, target, random_label(pyrng, pool))) for _ in "sp")
        kind = pyrng.randrange(4)
        records.append(
            ("E-FLOW", source, pc, target, span, "'y'") if kind == 0
            else ("E-FLOW", source, None, target, span, "returned value") if kind == 1
            else ("declassify", source, None, target, span, None) if kind == 2
            else ("authority", pyrng.choice(pool), None, None, span, "needs authority"))
    authority = frozenset(pyrng.sample(pool, pyrng.randint(0, 2)))
    assert decide(records, h, authority) == oracle_decide(records, h, authority)


def test_flows_are_decided_only_in_decide():
    # the body pass reads no hierarchy: whatever it records, decide rules on
    deciders = {"flows_to", "interpret_label", "acts_for", "actors"}

    def owners(node, owner):
        for child in pyast.iter_child_nodes(node):
            if isinstance(child, pyast.FunctionDef):
                yield from owners(child, child.name)
                continue
            if (isinstance(child, pyast.Name) and child.id in deciders
                    or isinstance(child, pyast.Attribute) and child.attr in deciders):
                yield owner
            yield from owners(child, owner)

    tree = pyast.parse(Path(checker_module.__file__).read_text(encoding="utf-8"))
    assert set(owners(tree, None)) == {"decide"}


def substitutions(monkeypatch, *, loops: bool) -> list:
    """Each call of ``checker.substitute_label`` from here on, and not from
    within another call: with ``loops``, those that solve a loop's pc, as (the
    loop's pc variable, label); otherwise those with an instantiation's
    substitution, as (identity of the substitution, label)."""
    made, depth = [], 0
    substitute = checker_module.substitute_label

    def counting(label, sub):
        nonlocal depth
        if depth == 0:
            pc = [k for k in sub if isinstance(k, LabelVar)]
            if bool(pc) == loops:
                made.append((pc[0] if loops else id(sub), label))
        depth += 1
        try:
            return substitute(label, sub)
        finally:
            depth -= 1

    monkeypatch.setattr(checker_module, "substitute_label", counting)
    return made


def test_each_instantiation_substitutes_each_member_label_once(monkeypatch):
    made = substitutions(monkeypatch, loops=False)
    checker = Checker(parse_program(bench_gen().generate("large_source", 1)[0]))
    assert checker.run() == []
    # C0-C9 at their own parameter O and at P0-P3, but for C8[P1]: no
    # method writes it at this seed
    assert sorted(map(str, checker.instances)) == sorted(
        f"C{c}[{p}]" for c in range(10) for p in ("O", "P0", "P1", "P2", "P3")
        if (c, p) != (8, "P1"))
    assert 0 < len(made) == len(set(made))


def test_more_call_sites_on_the_same_instantiations_substitute_no_more(monkeypatch):
    made = substitutions(monkeypatch, loops=False)
    box = ("class Box[principal P] {\n    int{P->*} f;\n"
           "    int{P->*} get{}(int{} x) {\n        return f;\n    }\n}\n")
    counts = []
    for sites in (3, 6):
        body = "".join(f"        Box[{p}]{{}} b{p}{i} = new Box[{p}]({i});\n"
                       f"        int{{{p}->*}} v{p}{i} = b{p}{i}.get({i}) + b{p}{i}.f;\n"
                       for i in range(sites) for p in ("Alice", "Bob"))
        del made[:]
        assert check_program(parse_program(wrap(body, "principal Alice;\nprincipal Bob;\n" + box))) == []
        counts.append(len(made))
    assert counts[0] == counts[1] > 0


def test_each_loop_substitutes_each_label_once(monkeypatch):
    made = substitutions(monkeypatch, loops=True)
    checker = Checker(parse_program(bench_gen().generate("large_source", 1)[0]))
    assert checker.run() == []
    # 250 loops, each solved once: every record part that mentions a loop's pc
    # is that pc variable, whose solution the solve gives
    assert len(made) == len(set(made)) == 250


def test_more_statements_in_a_loop_substitute_no_more(monkeypatch):
    made = substitutions(monkeypatch, loops=True)
    counts = []
    for statements in (3, 6):
        body = ("int{Alice->*} s = 1;\nint{Alice->*} y = 0;\nwhile (s > 0) {\n"
                + "y = y + 1;\n" * statements + "}\n")
        del made[:]
        assert check_program(parse_program(wrap(body))) == []
        counts.append(len(made))
    # the solve itself: every record in the body carries the end pc, which
    # solves to the solved pc without another substitution
    assert counts == [1, 1]


def count_walks(monkeypatch, src: str) -> int:
    """``Checker._check_block`` calls in checking ``src``, which must be clean."""
    walks = 0
    check_block = Checker._check_block

    def counting(self, ctx, block):
        nonlocal walks
        walks += 1
        return check_block(self, ctx, block)

    monkeypatch.setattr(Checker, "_check_block", counting)
    assert check_program(parse_program(src)) == []
    return walks


def test_nested_loops_walk_each_body_once(monkeypatch):
    # d nested loops whose conditions each raise the pc: a checker that walked
    # a loop again whenever its pc rose would walk 2^(d+1) - 1 blocks
    depth = 16
    body = "".join(f"int{{P{i}->*}} v{i} = {i};\n" for i in range(depth))
    body += "".join(f"while (v{i} > 0) {{\n" for i in range(depth)) + "}\n" * depth
    src = wrap(body, "".join(f"principal P{i};\n" for i in range(depth)))
    assert count_walks(monkeypatch, src) == depth + 1


def test_nested_loops_with_returns_walk_each_body_at_most_twice(monkeypatch):
    # each loop's body returns under its own secret, so each loop raises the pc
    # of every loop around it: a checker that walked a loop again whenever its
    # pc rose would walk O(depth^2) blocks
    depth = 140
    body = "".join(f"int{{P{i}->*}} v{i} = {i};\n" for i in range(depth))
    body += "".join(f"while (v{i} > 0) {{ if (v{i} > 1) {{ return; }}\n" for i in range(depth))
    src = wrap(body + "}\n" * depth, "".join(f"principal P{i};\n" for i in range(depth)))
    assert count_walks(monkeypatch, src) == 2 * depth + 1


def test_loop_variables_do_not_outlive_the_check():
    # each loop's pc is a label variable of its own; the labels built on it
    # are of no use to a later check, and a memo that kept them would fill up
    # with them in a long-lived process
    source = bench_gen().generate("large_source", 1)[0]
    assert "while (" in source
    collecting = gc.isenabled()
    gc.disable()  # as in a CLI run: reference counting alone must free them
    try:
        assert check_program(parse_program(source)) == []
        live = [o for o in gc.get_objects() if isinstance(o, LabelVar) and o.name.startswith("pc@")]
    finally:
        if collecting:
            gc.enable()
    assert live == []
    assert join.cache_info().currsize == 0


def test_a_check_frees_the_labels_and_hierarchies_of_the_check_before():
    # a long-lived process checks program after program: the memos of label
    # interpretation and label text must not keep the earlier programs' values
    gen = bench_gen()
    wide, large = (parse_program(gen.generate(name, 1)[0])
                   for name in ("wide_principals", "large_source"))

    def widest_live_hierarchy():
        return max((len(o.universe) for o in gc.get_objects() if isinstance(o, PrincipalHierarchy)),
                   default=0)  # large_source interprets no label, so may leave none alive

    def memo_sizes():
        return interpret_label.cache_info().currsize, label_to_text.cache_info().currsize

    collecting = gc.isenabled()
    gc.disable()  # as in a CLI run: reference counting alone must free them
    try:
        interpret_label.cache_clear()
        label_to_text.cache_clear()
        check_program(large)
        fresh = memo_sizes()
        check_program(wide)
        assert widest_live_hierarchy() == 130  # 128 principals, top and bottom
        check_program(large)
        assert widest_live_hierarchy() < 130
        assert memo_sizes() == fresh
    finally:
        if collecting:
            gc.enable()


def test_the_check_path_decodes_no_mask(monkeypatch, corpus_dir):
    # flows, authority and integrity are decided on masks: naming the members
    # of a mask is for `query readers` / `query writers` only
    def no_decode(*args):
        raise AssertionError("the check decoded a mask")

    monkeypatch.setattr(PrincipalHierarchy, "decode", no_decode)
    with pytest.raises(AssertionError):
        PrincipalHierarchy().decode(1)
    cases = [(path.read_text(), _read_expectations(path.with_suffix(".expect")))
             for path in sorted(corpus_dir.glob("*.mjif"))]
    gen = bench_gen()
    cases += [gen.generate(w, 1) for w in ("wide_principals", "deep_nesting", "large_source")]
    for source, expected in cases:
        found = [(d.code, d.span.start[0]) for d in check_program(parse_program(source))]
        assert sorted(found) == sorted(expected)


def test_every_package_definition_is_referenced_in_the_package():
    # a function or class that no module of the package names is code only
    # the tests keep alive: it belongs under tests/, or nowhere
    defined, referenced = {}, set()
    for path in sorted(Path(checker_module.__file__).parent.glob("*.py")):
        for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (pyast.FunctionDef, pyast.AsyncFunctionDef, pyast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, pyast.Name):
                referenced.add(node.id)
            elif isinstance(node, pyast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, pyast.alias):
                referenced.add(node.name)
    unreferenced = sorted(f"{where} {name}" for name, where in defined.items()
                          if name not in referenced
                          and not (name.startswith("__") and name.endswith("__")))
    assert unreferenced == []


def test_no_package_module_names_namedtuple():
    # records are span.Record tuples: each NamedTuple class would exec generated
    # code when its module is imported, which every `minijif` run pays for
    names = []
    for path in sorted(Path(checker_module.__file__).parent.glob("*.py")):
        for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, pyast.Name)
                    else node.attr if isinstance(node, pyast.Attribute)
                    else node.name if isinstance(node, pyast.alias) else None)
            if name in ("NamedTuple", "namedtuple"):
                names.append(f"{path.name}:{node.lineno} {name}")
    assert names == []
