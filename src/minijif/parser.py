"""Recursive-descent parser for MiniJif programs and label syntax.

The first error aborts the parse; its span always points into the source.

The common constructs are each read in one frame, straight from the token
lists: a label, a name or literal operand, a block, a statement header and a
declaration.  A label is read by one loop over its ``;`` components and their
``meet`` terms; only a parenthesized group inside it is read by recursion.
"""

from __future__ import annotations

from .labels import (
    EMPTY,
    Label,
    LabelVar,
    MeetNode,
    Policy,
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
_PRINCIPALS = ("IDENT", "*", "_")  # the kinds of token that name a principal
_ARROWS = ("->", "<-")
# the tokens of an operand that expr builds itself: the node class of each
_OPERANDS = {"IDENT": ast.Var, "INT": ast.IntLit, "STRING": ast.StrLit,
             "true": ast.BoolLit, "false": ast.BoolLit}

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
            raise self.fail(pos, *kinds)
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

    def fail(self, pos: int, *expected: str) -> ParseError:
        """The error of finding token ``pos`` where one of ``expected`` must be."""
        return ParseError(self.tokens.span(pos), expected, self.kinds[pos])

    def nest(self, i: int) -> int:
        """Count one more level of nesting, opened by token ``i``; returns ``i``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(self.tokens.span(i), (f"at most {MAX_NESTING} levels of nesting",),
                             self.kinds[i])
        return i

    # ------------------------------------------------------------ principals

    def principal(self) -> PrincipalId:
        return self.texts[self.expect(*_PRINCIPALS)]

    def principal_list(self, closer: "str | None" = None) -> tuple[PrincipalId, ...]:
        """principal ("," principal)*, and then ``closer`` if one is given, read in this frame."""
        kinds, texts = self.kinds, self.texts
        pos, out = self.pos, []
        while True:
            if kinds[pos] not in _PRINCIPALS:
                raise self.fail(pos, *_PRINCIPALS)
            out.append(texts[pos])
            if kinds[pos + 1] != ",":
                break
            pos += 2
        pos += 1
        if closer is not None:
            if kinds[pos] != closer:
                raise self.fail(pos, closer)
            pos += 1
        self.pos = pos
        return tuple(out)

    def authority(self) -> tuple[PrincipalId, ...]:
        self.expect("authority")
        self.expect("(")
        return self.principal_list(")")

    # ---------------------------------------------------------------- labels

    def label(self, opener: str = "{", closer: str = "}") -> Label:
        """``{`` components ``}``, or a parenthesized group of them, read in
        this frame.  Each ``;`` component is a chain of ``meet`` terms; a term
        is a policy, a label variable or a group, which is read by recursion."""
        kinds, texts = self.kinds, self.texts
        pos = self.pos
        if kinds[pos] != opener:
            raise self.fail(pos, opener)
        pos += 1
        if kinds[pos] == closer:
            self.pos = pos + 1
            return EMPTY
        depth = self.depth
        lab = None
        while True:
            component = None
            while True:
                kind = kinds[pos]
                # a token that is not EOF has a next one: each lookahead is guarded
                if kind == "(":
                    self.pos = self.nest(pos)
                    term = self.label("(", ")")
                    self.depth -= 1
                    pos = self.pos
                elif kind == "IDENT" and kinds[pos + 1] not in _ARROWS:
                    term = LabelVar(texts[pos])
                    pos += 1
                else:
                    if kind not in _PRINCIPALS:
                        raise self.fail(pos, *_PRINCIPALS)
                    arrow = kinds[pos + 1]
                    if arrow not in _ARROWS:
                        raise self.fail(pos + 1, *_ARROWS)
                    self.pos = pos + 2
                    term = Policy(texts[pos], arrow, self.principal_list())
                    pos = self.pos
                component = term if component is None else MeetNode(component, term)
                if kinds[pos] != "meet":
                    break
                pos = self.nest(pos) + 1
            self.depth = depth
            lab = component if lab is None else join(lab, component)
            if kinds[pos] != ";":
                break
            pos += 1
        if kinds[pos] != closer:
            raise self.fail(pos, closer)
        self.pos = pos + 1
        return lab

    def optional_label(self) -> "Label | None":
        return self.label() if self.kinds[self.pos] == "{" else None

    # ----------------------------------------------------------------- types

    def type(self) -> ast.Type:
        pos = self.pos
        kind = self.kinds[pos]
        if kind in _TYPE_KEYWORDS:
            self.pos = pos + 1
            return _TYPE_KEYWORDS[kind]
        if kind != "IDENT":
            raise self.fail(pos, "a type")
        args: tuple[PrincipalId, ...] = ()
        if self.kinds[pos + 1] == "[":
            self.pos = pos + 2
            args = self.principal_list("]")
        else:
            self.pos = pos + 1
        return ast.ClassType(self.texts[pos], args)

    # ----------------------------------------------------------- expressions

    def expr(self) -> ast.Expr:
        """Operator precedence, every operator to the left, in this one frame: an
        operand waits on ``pending`` until an operator binding no tighter follows it.
        A name or literal operand is built, with its span, here too."""
        kinds, file = self.kinds, self.file
        pending: list[tuple[ast.Expr, str, int]] = []  # (left operand, operator, its precedence)
        while True:
            pos = self.pos
            kind = kinds[pos]
            node = _OPERANDS.get(kind)
            if node is None or kind == "IDENT" and kinds[pos + 1] == "(":
                e = self.primary()
            else:
                text, line, col = self.texts[pos], self.lines[pos], self.cols[pos]
                value = (text if kind == "IDENT" else int(text) if kind == "INT"
                         else unescape(text) if kind == "STRING" else kind == "true")
                e = _new(node, (value, _new(Span, (file, line, col, line, col + len(text)))))
                self.pos = pos + 1
            if kinds[self.pos] == ".":
                e = self.postfix(e)
            prec = ast.BINARY_PRECEDENCE.get(op := kinds[self.pos], 0)
            while pending and pending[-1][2] >= prec:
                left, left_op, _ = pending.pop()
                ls, rs = left.span, e.span
                e = _new(ast.BinOp, (left_op, left, e,
                                     _new(Span, (file, ls[1], ls[2], rs[3], rs[4]))))
            if not prec:
                return e
            pending.append((e, op, prec))
            self.pos += 1

    def postfix(self, e: ast.Expr) -> ast.Expr:
        """The ``.`` chain of field reads and calls on ``e``."""
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
        if self.kinds[self.pos] != ")":
            args.append(self.expr())
            while self.kinds[self.pos] == ",":
                self.pos += 1
                args.append(self.expr())
        self.depth -= 1
        self.expect(")")
        return tuple(args)

    def primary(self) -> ast.Expr:
        """An operand that is not a name or a literal (expr builds those)."""
        pos = self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1  # each kind of expression starts with a token of its own
        if kind == "IDENT":  # followed by `(`
            return _new(ast.Builtin, (self.texts[pos], self.call_args(), self.span_from(pos)))
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
                pargs = self.principal_list("]")
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
        raise self.fail(pos, "an expression")

    # ------------------------------------------------------------ statements

    def block(self) -> ast.Block:
        kinds = self.kinds
        start = self.pos
        if kinds[start] != "{":
            raise self.fail(start, "{")
        self.nest(start)
        self.pos = start + 1
        stmts: list[ast.Stmt] = []
        while (kind := kinds[self.pos]) != "}" and kind != "EOF":
            stmts.append(self.stmt())
        end = self.pos
        if kind != "}":
            raise self.fail(end, "}")
        self.depth -= 1
        self.pos = end + 1
        return _new(ast.Block, (tuple(stmts), _new(Span, (
            self.file, self.lines[start], self.cols[start], self.lines[end], self.cols[end] + 1))))

    def stmt(self) -> ast.Stmt:
        kinds = self.kinds
        start = self.pos
        kind = kinds[start]
        if kind == "if":
            return self.if_stmt()
        if kind == "while":
            cond = self.condition()
            body = self.block()
            return _new(ast.While, (cond, body, self.span_from(start)))
        if kind in _TYPE_KEYWORDS or kind == "IDENT" and kinds[start + 1] in ("IDENT", "[", "{"):
            return self.var_decl()
        assign = False
        if kind == "return":
            self.pos = start + 1
            value = None if kinds[start + 1] == ";" else self.expr()
            line, col = self.lines[start], self.cols[start]
        else:
            e = value = self.expr()
            line, col = e.span[1], e.span[2]
            if kinds[self.pos] == "=":
                self.pos += 1
                assign, value = True, self.expr()
        end = self.pos
        if kinds[end] != ";":
            raise self.fail(end, ";")
        self.pos = end + 1
        span = _new(Span, (self.file, line, col, self.lines[end], self.cols[end] + 1))
        if kind == "return":
            return _new(ast.Return, (value, span))
        if not assign:
            return _new(ast.ExprStmt, (e, span))
        if not isinstance(e, (ast.Var, ast.FieldAccess)):
            raise ParseError(e.span, ("a variable or field",), "expression")
        return _new(ast.Assign, (e, value, span))

    def condition(self) -> ast.Expr:
        """``(`` expr ``)`` after the ``if`` or ``while`` that the caller has seen."""
        self.pos += 1
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        return cond

    def if_stmt(self) -> ast.If:
        start = self.pos
        cond = self.condition()
        then = self.block()
        orelse = None
        if self.kinds[self.pos] == "else":
            self.pos += 1
            if self.kinds[self.pos] == "if":
                self.nest(self.pos)
                nested = self.if_stmt()
                self.depth -= 1
                orelse = _new(ast.Block, ((nested,), nested.span))
            else:
                orelse = self.block()
        return _new(ast.If, (cond, then, orelse, self.span_from(start)))

    def var_decl(self) -> ast.VarDecl:
        kinds = self.kinds
        start = self.pos
        typ = self.type()
        label = self.label() if kinds[self.pos] == "{" else None
        pos = self.pos
        if kinds[pos] != "IDENT":
            raise self.fail(pos, "IDENT")
        name, init, end = self.texts[pos], None, pos + 1
        if kinds[end] == "=":
            self.pos = end + 1
            init = self.expr()
            end = self.pos
        if kinds[end] != ";":
            raise self.fail(end, ";")
        self.pos = end + 1
        return _new(ast.VarDecl, (typ, label, name, init, _new(Span, (
            self.file, self.lines[start], self.cols[start], self.lines[end], self.cols[end] + 1))))

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
        raise self.fail(self.pos, "principal", "actsfor", "class")

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
        start = self.pos
        typ = self.type()
        label = self.optional_label()
        name = self.name()
        if self.accept(";"):
            return _new(ast.FieldDecl, (typ, label, name, self.span_from(start)))
        begin_label = self.optional_label()
        self.expect("(")
        params: list[ast.Param] = []
        if not self.at(")"):
            while True:
                pstart = self.pos
                ptyp = self.type()
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
