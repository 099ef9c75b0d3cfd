import pytest
from hypothesis import given, settings, strategies as st

from minijif.labels import ConfPolicy, EMPTY, IntegPolicy, JoinNode, LabelVar, MeetNode
from minijif.lexer import LexError, tokenize
from minijif.parser import ParseError, parse_label, parse_program
from minijif.principals import BOTTOM, Named, TOP
from minijif.span import Span
from minijif import syntax as ast
from conftest import corpus_files
from oracles import ast_equal, strip_spans
from pretty import expr_to_text, pretty_print


class TestLexer:
    def test_label_tokens(self):
        kinds = [t.kind for t in tokenize("{Alice->_;}")]
        assert kinds == ["{", "IDENT", "->", "_", ";", "}", "EOF"]

    def test_empty_input(self):
        toks = tokenize("")
        assert [t.kind for t in toks] == ["EOF"]

    def test_unexpected_character(self):
        with pytest.raises(LexError) as err:
            tokenize("@")
        assert err.value.span.start == (1, 1)

    def test_spans_track_lines(self):
        toks = tokenize("foo\n  bar")
        assert toks[0].span.start == (1, 1)
        assert toks[1].span.start == (2, 3)
        assert toks[1].span.end == (2, 6)

    def test_string_escapes(self):
        tok = tokenize(r'"a\"b\n"')[0]
        assert tok.value == 'a"b\n'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_comment_skipped(self):
        assert [t.kind for t in tokenize("// nothing\nx")] == ["IDENT", "EOF"]

    def test_maximal_munch(self):
        kinds = [t.kind for t in tokenize("a->b<-c>=d==e")]
        assert kinds == ["IDENT", "->", "IDENT", "<-", "IDENT", ">=", "IDENT", "==", "IDENT", "EOF"]

    @pytest.mark.parametrize("source, start, end, message", [
        ("x @", (1, 3), (1, 4), "unexpected character '@'"),
        ("a\n \u00e9", (2, 2), (2, 3), "unexpected character '\u00e9'"),
        ("ab\u00e9", (1, 3), (1, 4), "unexpected character '\u00e9'"),
        ("1\u0663", (1, 2), (1, 3), "unexpected character '\u0663'"),
        ("x\x0cy", (1, 2), (1, 3), "unexpected character '\\x0c'"),
        ('x = "ab\ny', (1, 5), (1, 8), "unterminated string literal"),
        ('\n  "oops', (2, 3), (2, 8), "unterminated string literal"),
        ('"a\\q"', (1, 1), (1, 4), "bad string escape"),
        ('f(\n "ok\\n" "\\', (2, 9), (2, 11), "bad string escape"),
    ])
    def test_error_spans(self, source, start, end, message):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert err.value.message == message
        assert (err.value.span.start, err.value.span.end) == (start, end)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet='aZz_09 \t\r\n"\\/{}-<>=!&|;,.:*+()[]@#n\u00e9\u0663', max_size=40))
    def test_spans_slice_back_to_token_text(self, source):
        try:
            toks = tokenize(source)
        except LexError:
            return
        lines = source.split("\n")
        prev = (1, 1)
        for tok in toks[:-1]:
            (l0, c0), (l1, c1) = tok.span.start, tok.span.end
            assert l0 == l1 and lines[l0 - 1][c0 - 1:c1 - 1] == tok.text
            assert prev <= tok.span.start < tok.span.end
            prev = tok.span.end
        eof = (len(lines), len(lines[-1]) + 1)
        assert toks[-1].kind == "EOF" and toks[-1].span.start == toks[-1].span.end == eof


class TestParseLabel:
    def test_owner_star(self):
        assert parse_label("{Owner->*}") == ConfPolicy(Named("Owner"), (TOP,))

    def test_meet(self):
        lab = parse_label("{Alice->Chuck meet Bob->Chuck}")
        assert isinstance(lab, MeetNode)
        assert lab.left == ConfPolicy(Named("Alice"), (Named("Chuck"),))

    def test_empty(self):
        assert parse_label("{}") == EMPTY

    def test_pair_form_desugars_to_join(self):
        lab = parse_label("{Alice->_; Alice<-*}")
        assert lab == JoinNode(
            ConfPolicy(Named("Alice"), (BOTTOM,)),
            IntegPolicy(Named("Alice"), (TOP,)),
        )

    def test_reader_list(self):
        assert parse_label("{A->B,C,*}") == ConfPolicy(
            Named("A"), (Named("B"), Named("C"), TOP)
        )

    def test_label_variable(self):
        assert parse_label("{L}") == LabelVar("L")

    def test_parenthesized_join_under_meet(self):
        lab = parse_label("{(Alice->*; Bob->*) meet Chuck->*}")
        assert isinstance(lab, MeetNode)
        assert isinstance(lab.left, JoinNode)

    def test_empty_reader_list_rejected(self):
        with pytest.raises(ParseError):
            parse_label("{Alice->}")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_label("{Alice->*} x")


class TestParseProgram:
    def test_secret_declaration(self):
        # the two-component pair label on a local declaration
        program = parse_program(
            "class C {\n    void m{}() {\n        int{Alice->_; Alice<-*} secret;\n    }\n}"
        )
        cls = program.decls[0]
        stmt = cls.methods[0].body.stmts[0]
        assert isinstance(stmt, ast.VarDecl)
        assert stmt.type == ast.INT
        assert isinstance(stmt.label, JoinNode)
        assert isinstance(stmt.label.left, ConfPolicy)
        assert isinstance(stmt.label.right, IntegPolicy)

    def test_principal_parameterized_class(self):
        program = parse_program(
            "class Booking[principal Owner, principal Operator] authority(Owner) {\n"
            "    String{Owner->*} cardNumber;\n"
            "}"
        )
        cls = program.decls[0]
        assert cls.principal_params == ("Owner", "Operator")
        assert cls.authority == (Named("Owner"),)
        assert len(cls.fields) == 1
        assert cls.fields[0].label == ConfPolicy(Named("Owner"), (TOP,))

    def test_truncated_class_header(self):
        with pytest.raises(ParseError) as err:
            parse_program("class X [")
        assert "principal" in err.value.expected

    def test_method_header_clauses(self):
        program = parse_program(
            "class C {\n"
            "    String{A->B} six{A->*}(int{A->*} n) : {A->B} where authority(A) {\n"
            "        return \"x\";\n"
            "    }\n"
            "}"
        )
        m = program.decls[0].methods[0]
        assert m.begin_label == ConfPolicy(Named("A"), (TOP,))
        assert m.end_label == ConfPolicy(Named("A"), (Named("B"),))
        assert m.authority == (Named("A"),)
        assert m.params[0].label == ConfPolicy(Named("A"), (TOP,))

    def test_duplicate_principal_params_rejected(self):
        with pytest.raises(ParseError):
            parse_program("class C[principal P, principal P] { }")

    def test_assignment_target_must_be_lvalue(self):
        with pytest.raises(ParseError):
            parse_program("class C { void m{}() { 1 = 2; } }")

    def test_precedence(self):
        program = parse_program("class C { void m{}() { int x = 1 + 2 * 3; } }")
        init = program.decls[0].methods[0].body.stmts[0].init
        assert init.op == "+"
        assert init.right.op == "*"

    def test_binop_chain_spans(self):
        #          0        1         2
        #          123456789012345678901234
        source = "x = 1 + 22 * 3 - (y + 4);"
        program = parse_program("class C { void m{}() {\n" + source + "\n} }")
        e = program.decls[0].methods[0].body.stmts[0].value
        assert (e.op, e.left.op, e.left.right.op, e.right.op) == ("-", "+", "*", "+")
        # a chain spans its outermost operands; parentheses are not part of a span
        assert (e.span.start, e.span.end) == ((2, 5), (2, 24))
        assert (e.left.span.start, e.left.span.end) == ((2, 5), (2, 15))
        assert (e.left.right.span.start, e.left.right.span.end) == ((2, 9), (2, 15))
        assert (e.right.span.start, e.right.span.end) == ((2, 19), (2, 24))

    def test_new_with_principal_args(self):
        program = parse_program(
            "class C { void m{}() { Booking[Alice, Chuck] b = new Booking[Alice, Chuck](\"n\"); } }"
        )
        init = program.decls[0].methods[0].body.stmts[0].init
        assert isinstance(init, ast.New)
        assert init.principal_args == (Named("Alice"), Named("Chuck"))

    def test_actsfor_declaration(self):
        program = parse_program("principal A;\nprincipal B;\nactsfor A >= B;")
        decl = program.decls[2]
        assert decl.superior == Named("A")
        assert decl.inferior == Named("B")

    def test_declassify_expression(self):
        program = parse_program(
            "class C { void m{}() { String s = declassify(\"x\", {A->*} to {}); } }"
        )
        init = program.decls[0].methods[0].body.stmts[0].init
        assert isinstance(init, ast.Declassify)
        assert init.to_label == EMPTY

    def test_empty_program(self):
        assert parse_program("").decls == ()


class TestPretty:
    def test_empty_program(self):
        assert pretty_print(parse_program("")) == ""

    def test_join_label_text(self):
        program = parse_program("class C { String{Chuck->*; Alice->Chuck} f; }")
        rendered = pretty_print(program)
        assert "{Chuck->*; Alice->Chuck}" in rendered

    def test_expression_parens_only_when_needed(self):
        program = parse_program(
            "class C { void m{}() { int x = (1 + 2) * 3; int y = 1 + 2 * 3; } }"
        )
        stmts = program.decls[0].methods[0].body.stmts
        assert expr_to_text(stmts[0].init) == "(1 + 2) * 3"
        assert expr_to_text(stmts[1].init) == "1 + 2 * 3"

    def test_else_if_chain(self):
        src = (
            "class C {\n"
            "    void m{}() {\n"
            "        if (true) {\n"
            "            return;\n"
            "        } else if (false) {\n"
            "            return;\n"
            "        } else {\n"
            "            return;\n"
            "        }\n"
            "    }\n"
            "}\n"
        )
        program = parse_program(src)
        assert pretty_print(program) == src


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_round_trip(path):
    program = parse_program(path.read_text(), file=str(path))
    rendered = pretty_print(program)
    reparsed = parse_program(rendered, file=str(path))
    assert ast_equal(program, reparsed)


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_span_nesting(path):
    program = parse_program(path.read_text(), file=str(path))
    nested = 0

    def check(node, enclosing):
        nonlocal nested
        if not isinstance(node, tuple):
            return
        fields = getattr(node, "_fields", None)
        if fields is None:
            children = node
        else:
            if enclosing is not None:
                assert enclosing.contains(node.span), f"{node.span} escapes {enclosing}"
                nested += 1
            enclosing = node.span
            children = [getattr(node, f) for f in fields if f != "span"]
        for child in children:
            check(child, enclosing)

    check(program, None)
    assert nested > 0


class TestAstEqual:
    SPAN = Span("f.mjif", (1, 1), (1, 2))

    def test_node_kind_is_compared(self):
        # nodes are tuples: IntLit(1, s) == BoolLit(True, s), but they are different ASTs
        assert not ast_equal(ast.IntLit(1, self.SPAN), ast.BoolLit(True, self.SPAN))
        assert not ast_equal(ast.Var("x", self.SPAN), ast.StrLit("x", self.SPAN))

    def test_spans_are_ignored(self):
        other = Span("g.mjif", (3, 4), (3, 5))
        assert ast_equal(ast.Var("x", self.SPAN), ast.Var("x", other))
        assert not ast_equal(ast.Var("x", self.SPAN), ast.Var("y", self.SPAN))

    def test_deepest_nesting_round_trips(self):
        # the method body is level 1, so 147 nested ifs reach 148 levels, within the limit
        depth = 147
        body = "if (true) {\n" * depth + "}\n" * depth
        program = parse_program(f"class C {{\n    void m{{}}() {{\n{body}    }}\n}}\n")
        assert ast_equal(parse_program(pretty_print(program)), program)

    def test_long_operator_chain(self):
        program = parse_program("class C { void m{}() { int x = " + " + ".join(["1"] * 1000) + "; } }")
        skeleton = strip_spans(program)
        assert skeleton.count(("IntLit", 1)) == 1000
        assert ast_equal(parse_program(pretty_print(program)), program)


def test_parse_error_span_points_into_source():
    source = "class C {\n    void m{}() {\n        int x = ;\n    }\n}"
    with pytest.raises(ParseError) as err:
        parse_program(source)
    line, col = err.value.span.start
    lines = source.splitlines()
    assert 1 <= line <= len(lines)
    assert 1 <= col <= len(lines[line - 1]) + 1


# Binding power of each binary operator, loosest first; all are left-associative.
_PRECEDENCE = {
    "||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6,
}


def _var(name):
    return ast.Var(name, None)


def _bin(op, left, right):
    return ast.BinOp(op, left, right, None)


@pytest.mark.parametrize("first, second", [
    (a, b) for a in _PRECEDENCE for b in _PRECEDENCE
], ids=lambda op: op)
def test_binary_precedence_and_associativity(first, second):
    program = parse_program(f"class C {{ void m{{}}() {{ x = a {first} b {second} c; }} }}")
    parsed = program.decls[0].methods[0].body.stmts[0].value
    a, b, c = _var("a"), _var("b"), _var("c")
    if _PRECEDENCE[first] >= _PRECEDENCE[second]:
        expected = _bin(second, _bin(first, a, b), c)
    else:
        expected = _bin(first, a, _bin(second, b, c))
    assert strip_spans(parsed) == strip_spans(expected)
