"""Span-annotated AST for MiniJif programs.

AST nodes are ``typing.NamedTuple``s, which are cheap to define and to build.
Two nodes of different kinds with equal fields therefore compare equal, so
compare ASTs with ``ast_equal`` (in ``tests/oracles.py``), never with ``==``.
Types are interned, like labels: equal types are one object.  A primitive
type is a ``PrimType`` named as the source writes it, so
``PrimType("int") is INT`` and ``INT is not BOOLEAN``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .interned import Interned
from .labels import Label
from .principals import PrincipalId
from .span import Span


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


Type = Union[PrimType, ClassType]

INT = PrimType("int")
BOOLEAN = PrimType("boolean")
STRING = PrimType("String")
VOID = PrimType("void")


# ---------------------------------------------------------------- expressions

class IntLit(NamedTuple):
    value: int
    span: Span


class StrLit(NamedTuple):
    value: str
    span: Span


class BoolLit(NamedTuple):
    value: bool
    span: Span


class Var(NamedTuple):
    name: str
    span: Span


class FieldAccess(NamedTuple):
    obj: "Expr"
    name: str
    span: Span


class Call(NamedTuple):
    receiver: "Expr"
    method: str
    args: tuple["Expr", ...]
    span: Span


class New(NamedTuple):
    class_name: str
    principal_args: tuple[PrincipalId, ...]
    args: tuple["Expr", ...]
    span: Span


class Declassify(NamedTuple):
    expr: "Expr"
    from_label: Label
    to_label: Label
    span: Span


class Builtin(NamedTuple):
    name: str
    args: tuple["Expr", ...]
    span: Span


class BinOp(NamedTuple):
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


Expr = Union[IntLit, StrLit, BoolLit, Var, FieldAccess, Call, New, Declassify, Builtin, BinOp]


# ---------------------------------------------------------------- statements

class Block(NamedTuple):
    stmts: tuple["Stmt", ...]
    span: Span


class VarDecl(NamedTuple):
    type: Type
    label: Optional[Label]
    name: str
    init: Optional[Expr]
    span: Span


class Assign(NamedTuple):
    target: Expr  # Var or FieldAccess
    value: Expr
    span: Span


class If(NamedTuple):
    cond: Expr
    then: Block
    orelse: Optional[Block]
    span: Span


class While(NamedTuple):
    cond: Expr
    body: Block
    span: Span


class Return(NamedTuple):
    value: Optional[Expr]
    span: Span


class ExprStmt(NamedTuple):
    expr: Expr
    span: Span


Stmt = Union[VarDecl, Assign, If, While, Return, ExprStmt]


# ---------------------------------------------------------------- declarations

class PrincipalDecl(NamedTuple):
    name: str
    span: Span


class ActsForDecl(NamedTuple):
    superior: PrincipalId
    inferior: PrincipalId
    span: Span


class Param(NamedTuple):
    type: Type
    label: Optional[Label]
    name: str
    span: Span


class FieldDecl(NamedTuple):
    type: Type
    label: Optional[Label]
    name: str
    span: Span


class MethodDecl(NamedTuple):
    return_type: Type
    return_label: Optional[Label]
    name: str
    begin_label: Optional[Label]
    params: tuple[Param, ...]
    end_label: Optional[Label]
    authority: tuple[PrincipalId, ...]
    body: Block
    span: Span


class ClassDecl(NamedTuple):
    name: str
    principal_params: tuple[str, ...]
    authority: tuple[PrincipalId, ...]
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodDecl, ...]
    span: Span


Decl = Union[PrincipalDecl, ActsForDecl, ClassDecl]


class Program(NamedTuple):
    decls: tuple[Decl, ...]
    span: Span
