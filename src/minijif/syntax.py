"""Span-annotated AST for MiniJif programs.

AST nodes are ``Record``s (``span.py``): tuples, cheap to define and to build.
Two nodes of different kinds with equal fields therefore compare equal, so
compare ASTs with ``ast_equal`` (in ``tests/oracles.py``), never with ``==``.
Types are interned, like labels: equal types are one object.  A primitive
type is a ``PrimType`` named as the source writes it, so
``PrimType("int") is INT`` and ``INT is not BOOLEAN``.
"""

from __future__ import annotations

from .interned import Interned
from .labels import Label
from .principals import PrincipalId
from .span import Record, Span


# ---------------------------------------------------------------- types

class PrimType(Interned):
    """A primitive type, named as the source writes it."""

    __slots__ = __match_args__ = ("name",)

    def __str__(self) -> str:
        return self.name


class ClassType(Interned):
    __slots__ = __match_args__ = ("name", "principal_args")

    def __new__(cls, name: str, principal_args: tuple[PrincipalId, ...] = ()):
        return super().__new__(cls, name, principal_args)

    def __str__(self) -> str:
        if not self.principal_args:
            return self.name
        return f"{self.name}[" + ", ".join(self.principal_args) + "]"


Type = PrimType | ClassType

INT = PrimType("int")
BOOLEAN = PrimType("boolean")
STRING = PrimType("String")
VOID = PrimType("void")


# ---------------------------------------------------------------- expressions

class IntLit(Record):
    value: int
    span: Span


class StrLit(Record):
    value: str
    span: Span


class BoolLit(Record):
    value: bool
    span: Span


class Var(Record):
    name: str
    span: Span


class FieldAccess(Record):
    obj: "Expr"
    name: str
    span: Span


class Call(Record):
    receiver: "Expr"
    method: str
    args: tuple["Expr", ...]
    span: Span


class New(Record):
    class_name: str
    principal_args: tuple[PrincipalId, ...]
    args: tuple["Expr", ...]
    span: Span


class Declassify(Record):
    expr: "Expr"
    from_label: Label
    to_label: Label
    span: Span


class Builtin(Record):
    name: str
    args: tuple["Expr", ...]
    span: Span


class BinOp(Record):
    op: str
    left: "Expr"
    right: "Expr"
    span: Span


# Binding power of each binary operator, loosest first; all are left-associative.
BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6,
}


Expr = IntLit | StrLit | BoolLit | Var | FieldAccess | Call | New | Declassify | Builtin | BinOp


# ---------------------------------------------------------------- statements

class Block(Record):
    stmts: tuple["Stmt", ...]
    span: Span


class VarDecl(Record):
    type: Type
    label: Label | None
    name: str
    init: Expr | None
    span: Span


class Assign(Record):
    target: Expr  # Var or FieldAccess
    value: Expr
    span: Span


class If(Record):
    cond: Expr
    then: Block
    orelse: Block | None
    span: Span


class While(Record):
    cond: Expr
    body: Block
    span: Span


class Return(Record):
    value: Expr | None
    span: Span


class ExprStmt(Record):
    expr: Expr
    span: Span


Stmt = VarDecl | Assign | If | While | Return | ExprStmt


# ---------------------------------------------------------------- declarations

class PrincipalDecl(Record):
    name: str
    span: Span


class ActsForDecl(Record):
    superior: PrincipalId
    inferior: PrincipalId
    span: Span


class Param(Record):
    type: Type
    label: Label | None
    name: str
    span: Span


class FieldDecl(Record):
    type: Type
    label: Label | None
    name: str
    span: Span


class MethodDecl(Record):
    return_type: Type
    return_label: Label | None
    name: str
    begin_label: Label | None
    params: tuple[Param, ...]
    end_label: Label | None
    authority: tuple[PrincipalId, ...]
    body: Block
    span: Span


class ClassDecl(Record):
    name: str
    principal_params: tuple[str, ...]
    authority: tuple[PrincipalId, ...]
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodDecl, ...]
    span: Span


Decl = PrincipalDecl | ActsForDecl | ClassDecl


class Program(Record):
    decls: tuple[Decl, ...]
    span: Span
