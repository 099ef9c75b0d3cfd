import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from minijif.labels import ConfPolicy, EMPTY, IntegPolicy, JoinNode, LabelVar, MeetNode
from minijif import lexer, parser
from minijif.lexer import KEYWORDS, LexError, tokenize
from minijif.parser import ParseError, parse_label, parse_program
from minijif.principals import BOTTOM, TOP
from minijif.span import Span
from minijif import syntax as ast
from conftest import CORPUS_DIR, bench_gen, corpus_files, corpus_mutants
from oracles import ast_equal, oracle_tokenize, span_contains, strip_spans
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
        # more digits than int() converts on CPython 3.10.7 and later
        pytest.param("int x = " + "9" * 4301 + ";", (1, 9), (1, 4310), "integer literal too long",
                     id="integer-literal-too-long"),
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


    def test_longest_integer_literal(self):
        program = parse_program("class C { void m{}() { int x = " + "9" * 4300 + "; } }")
        assert program.decls[0].methods[0].body.stmts[0].init.value == 10 ** 4300 - 1


# the alphabet of test_spans_slice_back_to_token_text, plus digits and keywords,
# and the pieces that each alternative of the token pattern must take whole or
# leave alone: comments, a lone slash, long runs of blanks, a comment marker
# inside a string, CRLF, and a string whose last quote is escaped
ORACLE_PIECES = [*'aZz_09 \t\r\n"\\/{}-<>=!&|;,.:*+()[]@#n\u00e9\u0663', *"12345678",
                 *sorted(KEYWORDS), "// c", "//", "/", " " * 40, "\t \t  \r", '"a//b"',
                 "\r\n", '"x\\"']

# the same shapes at fixed places: at the end of input, before and after a newline
ORACLE_EDGES = ["x // c", "x //", "// c\ny", "a / b / c", "a" + " " * 500 + "b", '"a//b"',
                'f("a//b") // "c"', "a\r\nb\r\n", '"x\\"', '"x\\"\n', '"x\\" y', '"x\\\\"',
                "\t\r \n \t", "   ", "1/2//3", '"//"']


def lexed(lex, source: str):
    """Kind, text, value and span of each token ``lex`` gives, or its LexError."""
    try:
        toks = lex(source, "f.mjif")
    except LexError as err:
        return err.message, err.span
    return [(t.kind, t.text, t.value, t.span) for t in toks]


def parse_outcome(source: str):
    """span_walk of the parsed program, or the error's text and span."""
    try:
        return span_walk(parse_program(source, "f.mjif"))
    except (LexError, ParseError) as err:
        return type(err).__name__, str(err), err.span


# sha256 of parse_outcome's repr over the 3,000 mutants of corpus_mutants(3000,
# "lexer-oracle"), one after the other, as the per-line lexer and its parser
# gave it.  Update it only together with a CHANGES.md line that says why the
# outcome of a parse changed.
MUTANTS_SHA256 = "140dca8ef9a09347b264442a94405051448b80f0de1c0c1e98da0438a9c26869"


class TestLexerOracle:
    """The lexer against ``oracle_tokenize``, the per-line lexer it replaced."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(ORACLE_PIECES), max_size=30).map("".join))
    def test_matches_the_oracle(self, source):
        assert lexed(tokenize, source) == lexed(oracle_tokenize, source)

    @pytest.mark.parametrize("source", ORACLE_EDGES)
    def test_matches_the_oracle_on_edges(self, source):
        assert lexed(tokenize, source) == lexed(oracle_tokenize, source)

    @pytest.mark.parametrize("workload", ["wide_principals", "deep_nesting", "large_source"])
    def test_matches_the_oracle_on_the_workloads(self, workload):
        source = bench_gen().generate(workload, 1)[0]
        assert lexed(tokenize, source) == lexed(oracle_tokenize, source)

    def test_arrays_match_the_token_views(self):
        toks = tokenize('class C {\n  int x = 12; // c\n  String s = "a\\tb";\n}')
        views = list(toks)
        assert [t.kind for t in views] == toks.kinds and [t.text for t in views] == toks.texts
        assert [t.span.start for t in views] == list(zip(toks.lines, toks.cols))
        assert [t.value for t in views if t.value is not None] == [12, "a\tb"]

    def test_matches_the_oracle_on_mutated_corpus_files(self):
        digest = hashlib.sha256()
        errors = {"LexError": 0, "ParseError": 0}
        for source in corpus_mutants(3000, "lexer-oracle"):
            assert lexed(tokenize, source) == lexed(oracle_tokenize, source), source
            outcome = parse_outcome(source)
            if isinstance(outcome, tuple):
                errors[outcome[0]] += 1
            digest.update(repr(outcome).encode())
        # each kind of outcome is well represented
        assert min(errors.values()) > 300 and sum(errors.values()) < 2700
        assert digest.hexdigest() == MUTANTS_SHA256


PARSE_INPUTS = [*(path.name for path in corpus_files()),
                "wide_principals", "deep_nesting", "large_source"]


def _source(name: str) -> str:
    if name.endswith(".mjif"):
        return (CORPUS_DIR / name).read_text()
    return bench_gen().generate(name, 1)[0]


def test_parsing_builds_no_token_objects(monkeypatch):
    def no_token(*args):
        raise AssertionError("the parse built a Token")

    monkeypatch.setattr(lexer, "Token", no_token)
    with pytest.raises(AssertionError):
        tokenize("x")[0]
    for name in PARSE_INPUTS:
        parse_program(_source(name), file=name)


def test_parse_program_tokenizes_once(monkeypatch):
    results = []

    def counting(*args):
        results.append(tokenize(*args))
        return results[-1]

    monkeypatch.setattr(parser, "tokenize", counting)
    parse_program(_source("large_source"))
    assert [len(tokens) for tokens in results] == [51_803]


class TestParseLabel:
    def test_owner_star(self):
        assert parse_label("{Owner->*}") == ConfPolicy("Owner", (TOP,))

    def test_meet(self):
        lab = parse_label("{Alice->Chuck meet Bob->Chuck}")
        assert isinstance(lab, MeetNode)
        assert lab.left == ConfPolicy("Alice", ("Chuck",))

    def test_empty(self):
        assert parse_label("{}") == EMPTY

    def test_pair_form_desugars_to_join(self):
        lab = parse_label("{Alice->_; Alice<-*}")
        assert lab == JoinNode(
            ConfPolicy("Alice", (BOTTOM,)),
            IntegPolicy("Alice", (TOP,)),
        )

    def test_reader_list(self):
        assert parse_label("{A->B,C,*}") == ConfPolicy(
            "A", ("B", "C", TOP)
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
        assert cls.authority == ("Owner",)
        assert len(cls.fields) == 1
        assert cls.fields[0].label == ConfPolicy("Owner", (TOP,))

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
        assert m.begin_label == ConfPolicy("A", (TOP,))
        assert m.end_label == ConfPolicy("A", ("B",))
        assert m.authority == ("A",)
        assert m.params[0].label == ConfPolicy("A", (TOP,))

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
        assert init.principal_args == ("Alice", "Chuck")

    def test_actsfor_declaration(self):
        program = parse_program("principal A;\nprincipal B;\nactsfor A >= B;")
        decl = program.decls[2]
        assert decl.superior == "A"
        assert decl.inferior == "B"

    def test_principals_parse_to_their_names(self):
        program = parse_program("principal A;\nprincipal B;\nactsfor A >= *;\n"
                                "class C { Box[B, _] f; }")
        decl, ftype = program.decls[2], program.decls[3].fields[0].type
        names = [decl.superior, decl.inferior, *ftype.principal_args]
        assert names == ["A", "*", "B", "_"]
        assert all(type(p) is str for p in names)

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
                assert span_contains(enclosing, node.span), f"{node.span} escapes {enclosing}"
                nested += 1
            enclosing = node.span
            children = [getattr(node, f) for f in fields if f != "span"]
        for child in children:
            check(child, enclosing)

    check(program, None)
    assert nested > 0


def span_walk(node: object) -> list[tuple]:
    """``(node type, span start, span end)`` of every AST node, in preorder."""
    out: list[tuple] = []
    todo = [node]
    while todo:
        x = todo.pop()
        if not isinstance(x, tuple):
            continue
        fields = getattr(x, "_fields", None)
        if fields is None:
            items = x
        else:
            out.append((type(x).__name__, x.span.start, x.span.end))
            items = [v for f, v in zip(fields, x) if f != "span"]
        todo.extend(reversed(items))
    return out


# sha256 of span_walk's repr over each parsed program, so a change to any
# node's span fails here.  Update a digest only together with a CHANGES.md
# line that says why the spans changed.
SPAN_SHA256 = {
    "arity.mjif": "e9cad96bdaabc517c59579a7c6c2550910ccd7902804ed53511e94498fcd2b89",
    "authority_claim.mjif": "212a0f3e16755f53281f1f91d21fb376505262ac8f6d209be5bdd46053d9b8e9",
    "booking_bob_leak.mjif": "91f0f6bf5d10e867474dcdbf5a0d02e6ae57942c11db144849f5afcb60c68a55",
    "booking_no_authority.mjif": "dfd389ed41eb13c39d14883d2b8fe6841704ea802ca1c9e335ee23959c870e9a",
    "booking_no_declassify.mjif": "93678720749ded81f77419470004387080200ac1a2a7a6c96c24908c62c735ce",
    "booking_ok.mjif": "4cd56f0f92ea7aa5a08f2a9af73ac0d8b7806be3d073d027cbbed3f1f60f817e",
    "call_receiver_leak.mjif": "aff67ca7d6257eaa9df0e0a75d086c553d8275ae2498b62ff0b1ca954d8bcb7e",
    "creator_authority.mjif": "4467db9a84c794d158443a24b9aece02201c29380cddb5cc18114e504c89b31a",
    "declassify_from.mjif": "632394491fb846db1522b125cabb5df6831fc44165ba24ab052eb69c54ae1dba",
    "declassify_integrity.mjif": "7a848a00df45d02cc520d9e5e2111b9d504985ad518649a89932cf1fb17484c3",
    "delegation.mjif": "840b57d02ba3f016bb24bea7ce7899ab8cf1c7427223636c4cb9e3371debc261",
    "early_return_leak.mjif": "a5abdf105f948525712688577274020589f504077439272ea67b5c706ddfa7a3",
    "end_label.mjif": "272ccf5405c7693911d82b80c71890b8b2dcc84d37d841dce0ac0a955a517de3",
    "implicit_flow.mjif": "d3781a40b95da3eb021e72d295d3f1b9139eda139f04b1a8c192dbe7cd3ac954",
    "label_variables.mjif": "e8cd5de3cc1c5402a11eb722747b5a637ee9a2967f07eb2d74e4b4d0e7299c8a",
    "loop_condition_leak.mjif": "25022d101990e2c2963d7f2436aceca1ab6f551bf581c031fa20b3e12d26fa45",
    "loop_return_leak.mjif": "426d889165cd96e818bdff231aea8bec149a57441bd57399c65e84e9ee6d9325",
    "pc_mismatch.mjif": "140ab6fc5b15c9841e3e06ba9addf846a9a87c2a007fcfacf60d95790270f26d",
    "secret_declaration.mjif": "c0ce75b5160868469cfc2be3f3b89dc89d0cdcdf16416377c12c9b19a1391cb0",
    "short_circuit_leak.mjif": "b85763ef8fa1ef629e0684e0e31558dfb7e33cb397f974d3e3ea98af11327b3d",
    "type_errors.mjif": "ccb392a61b68deceb63fa7bce89a08ea6d2dd3df81ea988f077d33e28bb8f903",
    "undefined_names.mjif": "430775bfd213070464a0637b6d58130fc0c37cab1988ec47e40b9646040dfef9",
    "unknown_method.mjif": "684f306d5e18b0cb561faf3bdaa4fa089b4a0ea440b3dcc0de0e91180faed72d",
    "deep_nesting": "5ff78d4f65a2111733db1e56e79455a9c3526f880ebb5861bf7a47ee37948d68",
    "large_source": "e331c05758c47c6ebb743421dc9f4d9de35a9f33ba37eafb5db9539017448ef1",
    "wide_principals": "99e2da8118c945f303a8f592da2e1e32d3b3e4b5493927935dfc0daa06f3b0c8",
}


@pytest.mark.parametrize("name", sorted(SPAN_SHA256))
def test_node_spans_are_pinned(name):
    if name.endswith(".mjif"):
        source = (CORPUS_DIR / name).read_text()
    else:
        source, _ = bench_gen().generate(name, 1)
    walk = span_walk(parse_program(source, file=name))
    assert hashlib.sha256(repr(walk).encode()).hexdigest() == SPAN_SHA256[name]


#        0        1         2         3         4
#        1234567890123456789012345678901234567890123
SHAPES = """\
class C[principal A] {
    int{} m{}(C[A]{A->*} p, int q) {
        x = a + (b);
        y = (a).f;
        (c.m());
        if (a) { } else if (b) { }
        C[A] z = new C[A](1, (2));
        s = declassify((a), {A->*} to {});
    }
}
"""


def _shape(name: str):
    m = parse_program(SHAPES).decls[0].methods[0]
    s = m.body.stmts
    return {
        "method": m, "parameter C[A]{A->*} p": m.params[0], "parameter int q": m.params[1],
        "x = a + (b);": s[0], "a + (b)": s[0].value, "(b)": s[0].value.right,
        "(a).f": s[1].value, "(c.m());": s[2], "c.m()": s[2].expr,
        "if with else if": s[3], "else if arm's Block": s[3].orelse,
        "nested if": s[3].orelse.stmts[0], "C[A] z = ...;": s[4], "new C[A](1, (2))": s[4].init,
        "(2)": s[4].init.args[1], "s = declassify(...);": s[5], "declassify(...)": s[5].value,
        "(a) in declassify": s[5].value.expr,
    }[name]


@pytest.mark.parametrize("name, start, end", [
    ("method", (2, 5), (9, 6)),
    ("parameter C[A]{A->*} p", (2, 15), (2, 27)),
    ("parameter int q", (2, 29), (2, 34)),
    ("x = a + (b);", (3, 9), (3, 21)),
    # a binary operation ends with its right operand, not with its parenthesis
    ("a + (b)", (3, 13), (3, 19)),
    ("(b)", (3, 18), (3, 19)),
    ("(a).f", (4, 14), (4, 18)),
    # a statement starts with its expression, inside the parenthesis
    ("(c.m());", (5, 10), (5, 17)),
    ("c.m()", (5, 10), (5, 15)),
    ("if with else if", (6, 9), (6, 35)),
    # an `else if` arm's block shares the nested if's span
    ("else if arm's Block", (6, 25), (6, 35)),
    ("nested if", (6, 25), (6, 35)),
    ("C[A] z = ...;", (7, 9), (7, 35)),
    ("new C[A](1, (2))", (7, 18), (7, 34)),
    ("(2)", (7, 31), (7, 32)),
    ("s = declassify(...);", (8, 9), (8, 43)),
    ("declassify(...)", (8, 13), (8, 42)),
    ("(a) in declassify", (8, 25), (8, 26)),
])
def test_node_span_shapes(name, start, end):
    span = _shape(name).span
    assert (span.file, span.start, span.end) == ("<string>", start, end)


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
