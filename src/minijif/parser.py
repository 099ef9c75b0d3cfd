"""Recursive-descent parser for MiniJif programs and label syntax.

The first error aborts the parse; its span always points into the source.
"""

from __future__ import annotations

from .labels import (
    ConfPolicy,
    EMPTY,
    IntegPolicy,
    Label,
    LabelVar,
    MeetNode,
    join,
)
from .lexer import Tokens, tokenize, unescape
from .principals import PrincipalId
from .span import Span
from . import syntax as ast


class ParseError(Exception):
    def __init__(self, span: Span, expected: tuple[str, ...], got: str):
        super().__init__(f"{span}: expected {' or '.join(expected)}, got {got or 'end of input'}")
        self.span = span
        self.expected = expected


_TYPE_KEYWORDS = {"int": ast.INT, "boolean": ast.BOOLEAN, "String": ast.STRING, "void": ast.VOID}

# Blocks, parentheses, argument lists, `else if` arms, `.` member chains and
# a label's `meet` operands each nest the tree one level deeper; the parser
# and the checker recurse on that nesting, so it is bounded here, well inside
# Python's stack.  A label's `;` components are walked by loops, so any number
# of them parses.
MAX_NESTING = 150

_new = tuple.__new__  # builds a span or a node from all its fields, unchecked


class _Parser:
    def __init__(self, tokens: Tokens, file: str):
        t = self.tokens = tokens
        self.kinds, self.texts, self.lines, self.cols = t.kinds, t.texts, t.lines, t.cols
        self.file = file
        self.pos = 0  # index of the next token; past EOF only after expecting EOF
        self.depth = 0

    # ------------------------------------------------------------- plumbing

    def at(self, *kinds: str) -> bool:
        return self.kinds[self.pos] in kinds

    def advance(self) -> int:
        """Take the next token, which the caller has seen is not EOF; returns its index."""
        self.pos += 1
        return self.pos - 1

    def accept(self, kind: str) -> bool:
        """Take the next token if it is a ``kind`` (never EOF)."""
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, *kinds: str) -> int:
        """Take the next token, which must be one of ``kinds``; returns its index."""
        pos = self.pos
        if self.kinds[pos] not in kinds:
            raise ParseError(self.tokens.span(pos), kinds, self.kinds[pos])
        self.pos = pos + 1
        return pos

    def name(self) -> str:
        return self.texts[self.expect("IDENT")]

    def span_from(self, i: int) -> Span:
        """From the start of token ``i`` to the end of the last token taken."""
        j = self.pos - 1
        return _new(Span, (self.file, self.lines[i], self.cols[i],
                           self.lines[j], self.cols[j] + len(self.texts[j])))

    def span_after(self, span: Span) -> Span:
        """From the start of ``span`` to the end of the last token taken."""
        j = self.pos - 1
        return _new(Span, (self.file, span[1], span[2],
                           self.lines[j], self.cols[j] + len(self.texts[j])))

    def fail(self, *expected: str) -> ParseError:
        return ParseError(self.tokens.span(self.pos), expected, self.kinds[self.pos])

    def nest(self, i: int) -> int:
        """Count one more level of nesting, opened by token ``i``; returns ``i``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(self.tokens.span(i), (f"at most {MAX_NESTING} levels of nesting",),
                             self.kinds[i])
        return i

    # ------------------------------------------------------------ principals

    def principal(self) -> PrincipalId:
        return self.texts[self.expect("IDENT", "*", "_")]

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
            lab = join(lab, self.label_component())
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
        if self.at("IDENT") and not self.kinds[self.pos + 1] in ("->", "<-"):
            return LabelVar(self.texts[self.advance()])
        owner = self.principal()
        if self.kinds[self.expect("->", "<-")] == "->":
            return ConfPolicy(owner, self.principal_list())
        return IntegPolicy(owner, self.principal_list())

    # ----------------------------------------------------------------- types

    def type(self) -> tuple[ast.Type, int]:
        """A type and the index of its first token."""
        start = self.pos
        kind = self.kinds[start]
        if kind in _TYPE_KEYWORDS:
            self.pos += 1
            return _TYPE_KEYWORDS[kind], start
        if kind == "IDENT":
            name = self.texts[self.advance()]
            args: tuple[PrincipalId, ...] = ()
            if self.accept("["):
                args = self.principal_list()
                self.expect("]")
            return ast.ClassType(name, args), start
        raise self.fail("a type")

    # ----------------------------------------------------------- expressions

    def expr(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing: operators binding at least ``min_prec``, to the left."""
        left = self.postfix()
        while (prec := ast.BINARY_PRECEDENCE.get(op := self.kinds[self.pos], 0)) >= min_prec:
            self.pos += 1
            right = self.expr(prec + 1)
            ls, rs = left.span, right.span
            left = _new(ast.BinOp, (op, left, right,
                                    _new(Span, (self.file, ls[1], ls[2], rs[3], rs[4]))))
        return left

    def postfix(self) -> ast.Expr:
        e = self.primary()
        depth = self.depth
        while self.kinds[self.pos] == ".":
            self.nest(self.advance())
            name = self.name()
            if self.at("("):
                e = _new(ast.Call, (e, name, self.call_args(), self.span_after(e.span)))
            else:
                e = _new(ast.FieldAccess, (e, name, self.span_after(e.span)))
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
        pos = self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1  # each kind of expression starts with a token of its own
        if kind == "IDENT":
            if self.kinds[pos + 1] == "(":
                return _new(ast.Builtin, (self.texts[pos], self.call_args(), self.span_from(pos)))
            return _new(ast.Var, (self.texts[pos], self.tokens.span(pos)))
        if kind == "INT":
            return _new(ast.IntLit, (int(self.texts[pos]), self.tokens.span(pos)))
        if kind == "STRING":
            return _new(ast.StrLit, (unescape(self.texts[pos]), self.tokens.span(pos)))
        if kind in ("true", "false"):
            return _new(ast.BoolLit, (kind == "true", self.tokens.span(pos)))
        if kind == "(":
            self.nest(pos)
            e = self.expr()
            self.depth -= 1
            self.expect(")")
            return e
        if kind == "new":
            name = self.name()
            pargs: tuple[PrincipalId, ...] = ()
            if self.accept("["):
                pargs = self.principal_list()
                self.expect("]")
            args = self.call_args()
            return _new(ast.New, (name, pargs, args, self.span_from(pos)))
        if kind == "declassify":
            self.nest(self.expect("("))
            e = self.expr()
            self.expect(",")
            from_label = self.label()
            self.expect("to")
            to_label = self.label()
            self.depth -= 1
            self.expect(")")
            return _new(ast.Declassify, (e, from_label, to_label, self.span_from(pos)))
        raise ParseError(self.tokens.span(pos), ("an expression",), kind)

    # ------------------------------------------------------------ statements

    def block(self) -> ast.Block:
        start = self.nest(self.expect("{"))
        stmts: list[ast.Stmt] = []
        while not self.at("}", "EOF"):
            stmts.append(self.stmt())
        self.depth -= 1
        self.expect("}")
        return _new(ast.Block, (tuple(stmts), self.span_from(start)))

    def stmt(self) -> ast.Stmt:
        kind = self.kinds[self.pos]
        if kind == "if":
            return self.if_stmt()
        if kind == "while":
            start = self.advance()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            body = self.block()
            return _new(ast.While, (cond, body, self.span_from(start)))
        if kind == "return":
            start = self.advance()
            value = None if self.at(";") else self.expr()
            self.expect(";")
            return _new(ast.Return, (value, self.span_from(start)))
        if kind in _TYPE_KEYWORDS or (
            kind == "IDENT" and self.kinds[self.pos + 1] in ("IDENT", "[", "{")
        ):
            return self.var_decl()
        e = self.expr()
        if self.accept("="):
            value = self.expr()
            self.expect(";")
            if not isinstance(e, (ast.Var, ast.FieldAccess)):
                raise ParseError(e.span, ("a variable or field",), "expression")
            return _new(ast.Assign, (e, value, self.span_after(e.span)))
        self.expect(";")
        return _new(ast.ExprStmt, (e, self.span_after(e.span)))

    def if_stmt(self) -> ast.If:
        start = self.expect("if")
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        then = self.block()
        orelse = None
        if self.accept("else"):
            if self.at("if"):
                self.nest(self.pos)
                nested = self.if_stmt()
                self.depth -= 1
                orelse = _new(ast.Block, ((nested,), nested.span))
            else:
                orelse = self.block()
        return _new(ast.If, (cond, then, orelse, self.span_from(start)))

    def var_decl(self) -> ast.VarDecl:
        typ, start = self.type()
        label = self.optional_label()
        name = self.name()
        init = self.expr() if self.accept("=") else None
        self.expect(";")
        return _new(ast.VarDecl, (typ, label, name, init, self.span_from(start)))

    # ---------------------------------------------------------- declarations

    def program(self) -> ast.Program:
        decls: list[ast.Decl] = []
        while not self.at("EOF"):
            decls.append(self.decl())
        end = (self.lines[self.pos], self.cols[self.pos]) if decls else (1, 1)
        return _new(ast.Program, (tuple(decls), Span(self.file, (1, 1), end)))

    def decl(self) -> ast.Decl:
        kind = self.kinds[self.pos]
        if kind == "principal":
            start = self.advance()
            name = self.name()
            self.expect(";")
            return _new(ast.PrincipalDecl, (name, self.span_from(start)))
        if kind == "actsfor":
            start = self.advance()
            sup = self.principal()
            self.expect(">=")
            inf = self.principal()
            self.expect(";")
            return _new(ast.ActsForDecl, (sup, inf, self.span_from(start)))
        if kind == "class":
            return self.class_decl()
        raise self.fail("principal", "actsfor", "class")

    def class_decl(self) -> ast.ClassDecl:
        start = self.expect("class")
        name = self.name()
        params: list[str] = []
        if self.accept("["):
            while True:
                self.expect("principal")
                p = self.name()
                if p in params:
                    raise ParseError(self.tokens.span(self.pos - 1),
                                     ("a distinct principal parameter",), p)
                params.append(p)
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
        return _new(ast.ClassDecl, (
            name, tuple(params), authority, tuple(fields), tuple(methods),
            self.span_from(start),
        ))

    def member(self) -> "ast.FieldDecl | ast.MethodDecl":
        typ, start = self.type()
        label = self.optional_label()
        name = self.name()
        if self.accept(";"):
            return _new(ast.FieldDecl, (typ, label, name, self.span_from(start)))
        begin_label = self.optional_label()
        self.expect("(")
        params: list[ast.Param] = []
        if not self.at(")"):
            while True:
                ptyp, pstart = self.type()
                plabel = self.optional_label()
                pname = self.name()
                params.append(_new(ast.Param, (ptyp, plabel, pname, self.span_from(pstart))))
                if not self.accept(","):
                    break
        self.expect(")")
        end_label = self.label() if self.accept(":") else None
        authority = self.authority() if self.accept("where") else ()
        body = self.block()
        return _new(ast.MethodDecl, (
            typ, label, name, begin_label, tuple(params), end_label,
            authority, body, self.span_from(start),
        ))


def parse_program(source: str, file: str = "<string>") -> ast.Program:
    """Parse a full compilation unit; raises LexError/ParseError on failure."""
    return _Parser(tokenize(source, file), file).program()


def parse_label(source: str, file: str = "<label>") -> Label:
    """Parse a standalone label such as ``{Owner->*}``."""
    parser = _Parser(tokenize(source, file), file)
    label = parser.label()
    parser.expect("EOF")
    return label
