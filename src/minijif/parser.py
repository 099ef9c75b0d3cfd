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
from .principals import BOTTOM, Named, PrincipalId, TOP
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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0  # never past the final EOF token
        self.depth = 0

    # ------------------------------------------------------------- plumbing

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def at(self, *kinds: str) -> bool:
        return self.tokens[self.pos].kind in kinds

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, *kinds: str) -> Token:
        if not self.at(*kinds):
            tok = self.peek()
            raise ParseError(tok.span, kinds, tok.kind)
        return self.advance()

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
        tok = self.expect("IDENT", "*", "_")
        if tok.kind == "*":
            return TOP
        if tok.kind == "_":
            return BOTTOM
        return Named(tok.text)

    def principal_list(self) -> tuple[PrincipalId, ...]:
        out = [self.principal()]
        while self.at(","):
            self.advance()
            out.append(self.principal())
        return tuple(out)

    # ---------------------------------------------------------------- labels

    def label(self) -> Label:
        self.expect("{")
        lab = EMPTY if self.at("}") else self.label_components()
        self.expect("}")
        return lab

    def label_components(self) -> Label:
        lab = self.label_component()
        while self.at(";"):
            self.advance()
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

    def type(self) -> tuple[ast.Type, Span]:
        tok = self.peek()
        if tok.kind in _TYPE_KEYWORDS:
            self.advance()
            return _TYPE_KEYWORDS[tok.kind], tok.span
        if tok.kind == "IDENT":
            self.advance()
            span = tok.span
            args: tuple[PrincipalId, ...] = ()
            if self.at("["):
                self.advance()
                args = self.principal_list()
                span = span.cover(self.expect("]").span)
            return ast.ClassType(tok.text, args), span
        raise self.fail("a type")

    # ----------------------------------------------------------- expressions

    def expr(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing: operators binding at least ``min_prec``, to the left."""
        left = self.postfix()
        while (prec := ast.BINARY_PRECEDENCE.get(self.tokens[self.pos].kind, 0)) >= min_prec:
            op = self.advance().kind
            right = self.expr(prec + 1)
            left = ast.BinOp(op, left, right, left.span.cover(right.span))
        return left

    def postfix(self) -> ast.Expr:
        e = self.primary()
        depth = self.depth
        while self.at("."):
            self.nest(self.advance())
            name = self.expect("IDENT")
            if self.at("("):
                args, end = self.call_args()
                e = ast.Call(e, name.text, args, e.span.cover(end))
            else:
                e = ast.FieldAccess(e, name.text, e.span.cover(name.span))
        self.depth = depth
        return e

    def call_args(self) -> tuple[tuple[ast.Expr, ...], Span]:
        self.nest(self.expect("("))
        args: list[ast.Expr] = []
        if not self.at(")"):
            args.append(self.expr())
            while self.at(","):
                self.advance()
                args.append(self.expr())
        self.depth -= 1
        end = self.expect(")")
        return tuple(args), end.span

    def primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return ast.IntLit(tok.value, tok.span)
        if tok.kind == "STRING":
            self.advance()
            return ast.StrLit(tok.value, tok.span)
        if tok.kind in ("true", "false"):
            self.advance()
            return ast.BoolLit(tok.kind == "true", tok.span)
        if tok.kind == "(":
            self.nest(self.advance())
            e = self.expr()
            self.depth -= 1
            self.expect(")")
            return e
        if tok.kind == "new":
            self.advance()
            name = self.expect("IDENT")
            pargs: tuple[PrincipalId, ...] = ()
            if self.at("["):
                self.advance()
                pargs = self.principal_list()
                self.expect("]")
            args, end = self.call_args()
            return ast.New(name.text, pargs, args, tok.span.cover(end))
        if tok.kind == "declassify":
            self.advance()
            self.nest(self.expect("("))
            e = self.expr()
            self.expect(",")
            from_label = self.label()
            self.expect("to")
            to_label = self.label()
            self.depth -= 1
            end = self.expect(")")
            return ast.Declassify(e, from_label, to_label, tok.span.cover(end.span))
        if tok.kind == "IDENT":
            self.advance()
            if self.at("("):
                args, end = self.call_args()
                return ast.Builtin(tok.text, args, tok.span.cover(end))
            return ast.Var(tok.text, tok.span)
        raise self.fail("an expression")

    # ------------------------------------------------------------ statements

    def block(self) -> ast.Block:
        start = self.nest(self.expect("{"))
        stmts: list[ast.Stmt] = []
        while not self.at("}", "EOF"):
            stmts.append(self.stmt())
        self.depth -= 1
        end = self.expect("}")
        return ast.Block(tuple(stmts), start.span.cover(end.span))

    def stmt(self) -> ast.Stmt:
        tok = self.peek()
        if tok.kind == "if":
            return self.if_stmt()
        if tok.kind == "while":
            self.advance()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            body = self.block()
            return ast.While(cond, body, tok.span.cover(body.span))
        if tok.kind == "return":
            self.advance()
            value = None if self.at(";") else self.expr()
            end = self.expect(";")
            return ast.Return(value, tok.span.cover(end.span))
        if tok.kind in _TYPE_KEYWORDS or (
            tok.kind == "IDENT" and self.peek(1).kind in ("IDENT", "[", "{")
        ):
            return self.var_decl()
        e = self.expr()
        if self.at("="):
            self.advance()
            value = self.expr()
            end = self.expect(";")
            if not isinstance(e, (ast.Var, ast.FieldAccess)):
                raise ParseError(e.span, ("a variable or field",), "expression")
            return ast.Assign(e, value, e.span.cover(end.span))
        end = self.expect(";")
        return ast.ExprStmt(e, e.span.cover(end.span))

    def if_stmt(self) -> ast.If:
        tok = self.expect("if")
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        then = self.block()
        orelse = None
        span = tok.span.cover(then.span)
        if self.at("else"):
            self.advance()
            if self.at("if"):
                self.nest(self.peek())
                nested = self.if_stmt()
                self.depth -= 1
                orelse = ast.Block((nested,), nested.span)
            else:
                orelse = self.block()
            span = span.cover(orelse.span)
        return ast.If(cond, then, orelse, span)

    def var_decl(self) -> ast.VarDecl:
        typ, tspan = self.type()
        label = None
        if self.at("{"):
            label = self.label()
        name = self.expect("IDENT")
        init = None
        if self.at("="):
            self.advance()
            init = self.expr()
        end = self.expect(";")
        return ast.VarDecl(typ, label, name.text, init, tspan.cover(end.span))

    # ---------------------------------------------------------- declarations

    def program(self, file: str) -> ast.Program:
        decls: list[ast.Decl] = []
        while not self.at("EOF"):
            decls.append(self.decl())
        eof = self.peek()
        span = Span(file, (1, 1), eof.span.end) if decls else Span(file, (1, 1), (1, 1))
        return ast.Program(tuple(decls), span)

    def decl(self) -> ast.Decl:
        tok = self.peek()
        if tok.kind == "principal":
            self.advance()
            name = self.expect("IDENT")
            end = self.expect(";")
            return ast.PrincipalDecl(name.text, tok.span.cover(end.span))
        if tok.kind == "actsfor":
            self.advance()
            sup = self.principal()
            self.expect(">=")
            inf = self.principal()
            end = self.expect(";")
            return ast.ActsForDecl(sup, inf, tok.span.cover(end.span))
        if tok.kind == "class":
            return self.class_decl()
        raise self.fail("principal", "actsfor", "class")

    def class_decl(self) -> ast.ClassDecl:
        start = self.expect("class")
        name = self.expect("IDENT")
        params: list[str] = []
        if self.at("["):
            self.advance()
            while True:
                self.expect("principal")
                p = self.expect("IDENT")
                if p.text in params:
                    raise ParseError(p.span, ("a distinct principal parameter",), p.text)
                params.append(p.text)
                if not self.at(","):
                    break
                self.advance()
            self.expect("]")
        authority: tuple[PrincipalId, ...] = ()
        if self.at("authority"):
            self.advance()
            self.expect("(")
            authority = self.principal_list()
            self.expect(")")
        self.expect("{")
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self.at("}", "EOF"):
            member = self.member()
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            else:
                methods.append(member)
        end = self.expect("}")
        return ast.ClassDecl(
            name.text, tuple(params), authority, tuple(fields), tuple(methods),
            start.span.cover(end.span),
        )

    def member(self) -> "ast.FieldDecl | ast.MethodDecl":
        typ, tspan = self.type()
        label = None
        if self.at("{"):
            label = self.label()
        name = self.expect("IDENT")
        if self.at(";"):
            end = self.advance()
            return ast.FieldDecl(typ, label, name.text, tspan.cover(end.span))
        begin_label = None
        if self.at("{"):
            begin_label = self.label()
        self.expect("(")
        params: list[ast.Param] = []
        if not self.at(")"):
            while True:
                ptyp, pspan = self.type()
                plabel = None
                if self.at("{"):
                    plabel = self.label()
                pname = self.expect("IDENT")
                params.append(ast.Param(ptyp, plabel, pname.text, pspan.cover(pname.span)))
                if not self.at(","):
                    break
                self.advance()
        self.expect(")")
        end_label = None
        if self.at(":"):
            self.advance()
            end_label = self.label()
        authority: tuple[PrincipalId, ...] = ()
        if self.at("where"):
            self.advance()
            self.expect("authority")
            self.expect("(")
            authority = self.principal_list()
            self.expect(")")
        body = self.block()
        return ast.MethodDecl(
            typ, label, name.text, begin_label, tuple(params), end_label,
            authority, body, tspan.cover(body.span),
        )


def parse_program(source: str, file: str = "<string>") -> ast.Program:
    """Parse a full compilation unit; raises LexError/ParseError on failure."""
    return _Parser(tokenize(source, file)).program(file)


def parse_label(source: str, file: str = "<label>") -> Label:
    """Parse a standalone label such as ``{Owner->*}``."""
    parser = _Parser(tokenize(source, file))
    label = parser.label()
    parser.expect("EOF")
    return label
