"""Recursive-descent parser for MiniJif programs and label syntax.

The first error aborts the parse; its span always points into the source.
"""

from __future__ import annotations

from .labels import (
    ConfPolicy,
    EMPTY,
    IntegPolicy,
    JoinNode,
    Label,
    LabelVar,
    MeetNode,
)
from .lexer import Token, tokenize
from .principals import PrincipalId
from .span import Span
from . import syntax as ast


class ParseError(Exception):
    def __init__(self, span: Span, expected: tuple[str, ...], got: str):
        super().__init__(f"{span}: expected {' or '.join(expected)}, got {got or 'end of input'}")
        self.span = span
        self.expected = expected
        self.got = got


_TYPE_KEYWORDS = {"int": ast.INT, "boolean": ast.BOOLEAN, "String": ast.STRING, "void": ast.VOID}

# Blocks, parentheses, argument lists, `else if` arms, `.` member chains and
# a label's `meet` operands each nest the tree one level deeper; the parser
# and the checker recurse on that nesting, so it is bounded here, well inside
# Python's stack.  A label's `;` components are walked by loops, so any number
# of them parses.
MAX_NESTING = 150


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0  # past the final EOF token only after expecting EOF
        self.depth = 0

    # ------------------------------------------------------------- plumbing

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def at(self, *kinds: str) -> bool:
        return self.tokens[self.pos].kind in kinds

    def advance(self) -> Token:
        """Take the next token, which the caller has seen is not EOF."""
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        """Take the next token if it is a ``kind`` (never EOF)."""
        if self.tokens[self.pos].kind == kind:
            self.pos += 1
            return True
        return False

    def expect(self, *kinds: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind not in kinds:
            raise ParseError(tok.span, kinds, tok.kind)
        self.pos += 1
        return tok

    def span_from(self, start: tuple[int, int]) -> Span:
        """From ``start`` to the end of the last token taken."""
        tok = self.tokens[self.pos - 1]
        return Span(self.file, start, (tok.line, tok.col + len(tok.text)))

    def fail(self, *expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(tok.span, expected, tok.kind)

    def nest(self, tok: Token) -> Token:
        """Count one more level of nesting, opened by ``tok``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(tok.span, (f"at most {MAX_NESTING} levels of nesting",), tok.kind)
        return tok

    # ------------------------------------------------------------ principals

    def principal(self) -> PrincipalId:
        return self.expect("IDENT", "*", "_").text

    def principal_list(self) -> tuple[PrincipalId, ...]:
        out = [self.principal()]
        while self.accept(","):
            out.append(self.principal())
        return tuple(out)

    def authority(self) -> tuple[PrincipalId, ...]:
        self.expect("authority")
        self.expect("(")
        authority = self.principal_list()
        self.expect(")")
        return authority

    # ---------------------------------------------------------------- labels

    def label(self) -> Label:
        self.expect("{")
        lab = EMPTY if self.at("}") else self.label_components()
        self.expect("}")
        return lab

    def optional_label(self) -> "Label | None":
        return self.label() if self.at("{") else None

    def label_components(self) -> Label:
        lab = self.label_component()
        while self.accept(";"):
            lab = JoinNode(lab, self.label_component())
        return lab

    def label_component(self) -> Label:
        depth = self.depth
        lab = self.label_term()
        while self.at("meet"):
            self.nest(self.advance())
            lab = MeetNode(lab, self.label_term())
        self.depth = depth
        return lab

    def label_term(self) -> Label:
        # parenthesized group (pretty-printer output for joins under a meet)
        if self.at("("):
            self.nest(self.advance())
            lab = EMPTY if self.at(")") else self.label_components()
            self.depth -= 1
            self.expect(")")
            return lab
        if self.at("IDENT") and not self.peek(1).kind in ("->", "<-"):
            return LabelVar(self.advance().text)
        owner = self.principal()
        arrow = self.expect("->", "<-")
        members = self.principal_list()
        if arrow.kind == "->":
            return ConfPolicy(owner, members)
        return IntegPolicy(owner, members)

    # ----------------------------------------------------------------- types

    def type(self) -> tuple[ast.Type, tuple[int, int]]:
        """A type and the position it starts at."""
        tok = self.tokens[self.pos]
        if tok.kind in _TYPE_KEYWORDS:
            self.pos += 1
            return _TYPE_KEYWORDS[tok.kind], tok.start
        if tok.kind == "IDENT":
            self.pos += 1
            args: tuple[PrincipalId, ...] = ()
            if self.accept("["):
                args = self.principal_list()
                self.expect("]")
            return ast.ClassType(tok.text, args), tok.start
        raise self.fail("a type")

    # ----------------------------------------------------------- expressions

    def expr(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing: operators binding at least ``min_prec``, to the left."""
        left = self.postfix()
        while (prec := ast.BINARY_PRECEDENCE.get(op := self.tokens[self.pos].kind, 0)) >= min_prec:
            self.pos += 1
            right = self.expr(prec + 1)
            left = ast.BinOp(op, left, right, Span(self.file, left.span.start, right.span.end))
        return left

    def postfix(self) -> ast.Expr:
        e = self.primary()
        depth = self.depth
        while (tok := self.tokens[self.pos]).kind == ".":
            self.pos += 1
            self.nest(tok)
            name = self.expect("IDENT").text
            if self.at("("):
                e = ast.Call(e, name, self.call_args(), self.span_from(e.span.start))
            else:
                e = ast.FieldAccess(e, name, self.span_from(e.span.start))
        self.depth = depth
        return e

    def call_args(self) -> tuple[ast.Expr, ...]:
        self.nest(self.expect("("))
        args: list[ast.Expr] = []
        if not self.at(")"):
            args.append(self.expr())
            while self.accept(","):
                args.append(self.expr())
        self.depth -= 1
        self.expect(")")
        return tuple(args)

    def primary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "IDENT":
            self.pos += 1
            if self.at("("):
                return ast.Builtin(tok.text, self.call_args(), self.span_from(tok.start))
            return ast.Var(tok.text, tok.span)
        if kind == "INT":
            self.pos += 1
            return ast.IntLit(tok.value, tok.span)
        if kind == "STRING":
            self.pos += 1
            return ast.StrLit(tok.value, tok.span)
        if kind in ("true", "false"):
            self.pos += 1
            return ast.BoolLit(kind == "true", tok.span)
        if kind == "(":
            self.nest(self.advance())
            e = self.expr()
            self.depth -= 1
            self.expect(")")
            return e
        if kind == "new":
            self.pos += 1
            name = self.expect("IDENT")
            pargs: tuple[PrincipalId, ...] = ()
            if self.accept("["):
                pargs = self.principal_list()
                self.expect("]")
            args = self.call_args()
            return ast.New(name.text, pargs, args, self.span_from(tok.start))
        if kind == "declassify":
            self.pos += 1
            self.nest(self.expect("("))
            e = self.expr()
            self.expect(",")
            from_label = self.label()
            self.expect("to")
            to_label = self.label()
            self.depth -= 1
            self.expect(")")
            return ast.Declassify(e, from_label, to_label, self.span_from(tok.start))
        raise self.fail("an expression")

    # ------------------------------------------------------------ statements

    def block(self) -> ast.Block:
        start = self.nest(self.expect("{")).start
        stmts: list[ast.Stmt] = []
        while not self.at("}", "EOF"):
            stmts.append(self.stmt())
        self.depth -= 1
        self.expect("}")
        return ast.Block(tuple(stmts), self.span_from(start))

    def stmt(self) -> ast.Stmt:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "if":
            return self.if_stmt()
        if kind == "while":
            self.pos += 1
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            body = self.block()
            return ast.While(cond, body, self.span_from(tok.start))
        if kind == "return":
            self.pos += 1
            value = None if self.at(";") else self.expr()
            self.expect(";")
            return ast.Return(value, self.span_from(tok.start))
        if kind in _TYPE_KEYWORDS or (
            kind == "IDENT" and self.peek(1).kind in ("IDENT", "[", "{")
        ):
            return self.var_decl()
        e = self.expr()
        if self.accept("="):
            value = self.expr()
            self.expect(";")
            if not isinstance(e, (ast.Var, ast.FieldAccess)):
                raise ParseError(e.span, ("a variable or field",), "expression")
            return ast.Assign(e, value, self.span_from(e.span.start))
        self.expect(";")
        return ast.ExprStmt(e, self.span_from(e.span.start))

    def if_stmt(self) -> ast.If:
        start = self.expect("if").start
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        then = self.block()
        orelse = None
        if self.accept("else"):
            if self.at("if"):
                self.nest(self.peek())
                nested = self.if_stmt()
                self.depth -= 1
                orelse = ast.Block((nested,), nested.span)
            else:
                orelse = self.block()
        return ast.If(cond, then, orelse, self.span_from(start))

    def var_decl(self) -> ast.VarDecl:
        typ, start = self.type()
        label = self.optional_label()
        name = self.expect("IDENT")
        init = self.expr() if self.accept("=") else None
        self.expect(";")
        return ast.VarDecl(typ, label, name.text, init, self.span_from(start))

    # ---------------------------------------------------------- declarations

    def program(self) -> ast.Program:
        decls: list[ast.Decl] = []
        while not self.at("EOF"):
            decls.append(self.decl())
        end = self.peek().start if decls else (1, 1)
        return ast.Program(tuple(decls), Span(self.file, (1, 1), end))

    def decl(self) -> ast.Decl:
        tok = self.tokens[self.pos]
        if tok.kind == "principal":
            self.pos += 1
            name = self.expect("IDENT")
            self.expect(";")
            return ast.PrincipalDecl(name.text, self.span_from(tok.start))
        if tok.kind == "actsfor":
            self.pos += 1
            sup = self.principal()
            self.expect(">=")
            inf = self.principal()
            self.expect(";")
            return ast.ActsForDecl(sup, inf, self.span_from(tok.start))
        if tok.kind == "class":
            return self.class_decl()
        raise self.fail("principal", "actsfor", "class")

    def class_decl(self) -> ast.ClassDecl:
        start = self.expect("class").start
        name = self.expect("IDENT")
        params: list[str] = []
        if self.accept("["):
            while True:
                self.expect("principal")
                p = self.expect("IDENT")
                if p.text in params:
                    raise ParseError(p.span, ("a distinct principal parameter",), p.text)
                params.append(p.text)
                if not self.accept(","):
                    break
            self.expect("]")
        authority = self.authority() if self.at("authority") else ()
        self.expect("{")
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self.at("}", "EOF"):
            member = self.member()
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            else:
                methods.append(member)
        self.expect("}")
        return ast.ClassDecl(
            name.text, tuple(params), authority, tuple(fields), tuple(methods),
            self.span_from(start),
        )

    def member(self) -> "ast.FieldDecl | ast.MethodDecl":
        typ, start = self.type()
        label = self.optional_label()
        name = self.expect("IDENT")
        if self.accept(";"):
            return ast.FieldDecl(typ, label, name.text, self.span_from(start))
        begin_label = self.optional_label()
        self.expect("(")
        params: list[ast.Param] = []
        if not self.at(")"):
            while True:
                ptyp, pstart = self.type()
                plabel = self.optional_label()
                pname = self.expect("IDENT")
                params.append(ast.Param(ptyp, plabel, pname.text, self.span_from(pstart)))
                if not self.accept(","):
                    break
        self.expect(")")
        end_label = self.label() if self.accept(":") else None
        authority = self.authority() if self.accept("where") else ()
        body = self.block()
        return ast.MethodDecl(
            typ, label, name.text, begin_label, tuple(params), end_label,
            authority, body, self.span_from(start),
        )


def parse_program(source: str, file: str = "<string>") -> ast.Program:
    """Parse a full compilation unit; raises LexError/ParseError on failure."""
    return _Parser(tokenize(source, file), file).program()


def parse_label(source: str, file: str = "<label>") -> Label:
    """Parse a standalone label such as ``{Owner->*}``."""
    parser = _Parser(tokenize(source, file), file)
    label = parser.label()
    parser.expect("EOF")
    return label
