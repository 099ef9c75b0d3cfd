import pytest

from minijif.checker import (
    Checker,
    MethodContext,
    TrustConfig,
    check_program,
)
from minijif.diagnostics import CATALOG, render_json
from minijif.labels import EMPTY, interpret_label, label_to_text
from minijif.lexer import tokenize
from minijif.parser import _Parser, parse_label, parse_program
from minijif.principals import Named, UnknownPrincipal
from minijif import syntax as ast
from oracles import SemOracle


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
    parser = _Parser(tokenize(text))
    expr = parser.expr()
    parser.expect("EOF")
    return expr


def checker_with_ctx(src: str, cls: str, method: str):
    checker = Checker(parse_program(src))
    checker.run()
    info = checker.classes[cls]
    mi = info.methods[method]
    ctx = MethodContext(
        pc=mi.begin_label,
        authority=mi.authority,
        locals={p.name: (p.type, p.label) for p in mi.params},
    )
    return checker, info, ctx


class TestCheckExpr:
    def test_literals_are_public_trusted(self):
        checker, info, ctx = checker_with_ctx(BOOKING, "Application", "main")
        for text, typ in [('"4444333322221111"', ast.STRING), ("7", ast.INT), ("true", ast.BOOLEAN)]:
            got_type, got_label = checker.check_expr(info, ctx, parse_expr(text))
            assert (got_type, got_label) == (typ, EMPTY)

    def test_call_label_substitutes_receiver_principals(self):
        checker, info, ctx = checker_with_ctx(BOOKING, "Application", "main")
        ctx.locals["booking1"] = (
            ast.ClassType("Booking", (Named("Alice"), Named("Chuck"))),
            parse_label("{Alice->Chuck}"),
        )
        typ, label = checker.check_expr(info, ctx, parse_expr("booking1.getFullCardNumber()"))
        assert typ == ast.STRING
        # {Owner->*} with Owner:=Alice, behind the receiver's label as for a field read
        assert label_to_text(label) == "{Alice->Chuck; Alice->*}"

    def test_substitution_that_repeats_a_component_lists_it_once(self):
        src = wrap("", "principal Alice;\nclass Box[principal P] { int{P->*; Alice->*} f; }\n")
        checker, info, ctx = checker_with_ctx(src, "Main", "main")
        ctx.locals["b"] = (ast.ClassType("Box", (Named("Alice"),)), EMPTY)
        _, label = checker.check_expr(info, ctx, parse_expr("b.f"))
        assert label_to_text(label) == "{Alice->*}"

    def test_binop_label_is_join_of_operands(self):
        checker, info, ctx = checker_with_ctx(BOOKING, "Application", "main")
        ctx.locals["x"] = (ast.STRING, parse_label("{Alice->*}"))
        ctx.locals["y"] = (ast.STRING, parse_label("{Bob->*}"))
        _, label = checker.check_expr(info, ctx, parse_expr("concat(x, y)"))
        sem = interpret_label(label, info.hierarchy)
        oracle = SemOracle(info.hierarchy)
        ra, _ = oracle.sem(parse_label("{Alice->*}"))
        rb, _ = oracle.sem(parse_label("{Bob->*}"))
        assert sem.readers == ra & rb

    def test_field_access_joins_receiver_label(self):
        checker, info, ctx = checker_with_ctx(BOOKING, "Application", "main")
        ctx.locals["b"] = (
            ast.ClassType("Booking", (Named("Alice"), Named("Chuck"))),
            parse_label("{Bob->*}"),
        )
        _, label = checker.check_expr(info, ctx, parse_expr("b.cardNumber"))
        sem = interpret_label(label, info.hierarchy)
        oracle = SemOracle(info.hierarchy)
        expect_r, _ = oracle.sem(parse_label("{Bob->*; Alice->*}"))
        assert sem.readers == expect_r


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
        got = codes(BOOKING, TrustConfig(grant_main_authority=False))
        assert got == ["E-AUTH-CLAIM"] * 3


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
        typ, label = checker.check_declassify(info, ctx, expr)
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
        trust = TrustConfig(extra_delegations=((Named("Carol"), Named("Bob")),))
        assert codes(src, trust) == []

    def test_extra_delegation_endpoints_must_be_declared(self):
        with pytest.raises(UnknownPrincipal):
            check_program(
                parse_program("principal A;\n"),
                TrustConfig(extra_delegations=((Named("A"), Named("Ghost")),)),
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
