"""Span-annotated AST for MiniJif programs."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from .labels import Label
from .principals import PrincipalId
from .span import Span


# ---------------------------------------------------------------- types

@dataclass(frozen=True)
class IntType:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "boolean"


@dataclass(frozen=True)
class StringType:
    def __str__(self) -> str:
        return "String"


@dataclass(frozen=True)
class VoidType:
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class ClassType:
    name: str
    principal_args: tuple[PrincipalId, ...] = ()

    def __str__(self) -> str:
        if not self.principal_args:
            return self.name
        return f"{self.name}[" + ", ".join(map(str, self.principal_args)) + "]"


Type = Union[IntType, BoolType, StringType, VoidType, ClassType]

INT = IntType()
BOOLEAN = BoolType()
STRING = StringType()
VOID = VoidType()


# ---------------------------------------------------------------- expressions

@dataclass(frozen=True)
class IntLit:
    value: int
    span: Span


@dataclass(frozen=True)
class StrLit:
    value: str
    span: Span


@dataclass(frozen=True)
class BoolLit:
    value: bool
    span: Span


@dataclass(frozen=True)
class Var:
    name: str
    span: Span


@dataclass(frozen=True)
class FieldAccess:
    obj: "Expr"
    name: str
    span: Span


@dataclass(frozen=True)
class Call:
    receiver: "Expr"
    method: str
    args: tuple["Expr", ...]
    span: Span


@dataclass(frozen=True)
class New:
    class_name: str
    principal_args: tuple[PrincipalId, ...]
    args: tuple["Expr", ...]
    span: Span


@dataclass(frozen=True)
class Declassify:
    expr: "Expr"
    from_label: Label
    to_label: Label
    span: Span


@dataclass(frozen=True)
class Builtin:
    name: str
    args: tuple["Expr", ...]
    span: Span


@dataclass(frozen=True)
class BinOp:
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

@dataclass(frozen=True)
class Block:
    stmts: tuple["Stmt", ...]
    span: Span


@dataclass(frozen=True)
class VarDecl:
    type: Type
    label: Optional[Label]
    name: str
    init: Optional[Expr]
    span: Span


@dataclass(frozen=True)
class Assign:
    target: Expr  # Var or FieldAccess
    value: Expr
    span: Span


@dataclass(frozen=True)
class If:
    cond: Expr
    then: Block
    orelse: Optional[Block]
    span: Span


@dataclass(frozen=True)
class While:
    cond: Expr
    body: Block
    span: Span


@dataclass(frozen=True)
class Return:
    value: Optional[Expr]
    span: Span


@dataclass(frozen=True)
class ExprStmt:
    expr: Expr
    span: Span


Stmt = Union[VarDecl, Assign, If, While, Return, ExprStmt]


# ---------------------------------------------------------------- declarations

@dataclass(frozen=True)
class PrincipalDecl:
    name: str
    span: Span


@dataclass(frozen=True)
class ActsForDecl:
    superior: PrincipalId
    inferior: PrincipalId
    span: Span


@dataclass(frozen=True)
class Param:
    type: Type
    label: Optional[Label]
    name: str
    span: Span


@dataclass(frozen=True)
class FieldDecl:
    type: Type
    label: Optional[Label]
    name: str
    span: Span


@dataclass(frozen=True)
class MethodDecl:
    return_type: Type
    return_label: Optional[Label]
    name: str
    begin_label: Optional[Label]
    params: tuple[Param, ...]
    end_label: Optional[Label]
    authority: tuple[PrincipalId, ...]
    body: Block
    span: Span


@dataclass(frozen=True)
class ClassDecl:
    name: str
    principal_params: tuple[str, ...]
    authority: tuple[PrincipalId, ...]
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodDecl, ...]
    span: Span


Decl = Union[PrincipalDecl, ActsForDecl, ClassDecl]


@dataclass(frozen=True)
class Program:
    decls: tuple[Decl, ...]
    span: Span


# ---------------------------------------------------------------- helpers

def strip_spans(node: object) -> object:
    """Structural skeleton with every span removed, for modulo-span comparison."""
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        fields = [
            (f.name, strip_spans(getattr(node, f.name)))
            for f in dataclasses.fields(node)
            if f.name != "span"
        ]
        return (type(node).__name__, tuple(fields))
    if isinstance(node, tuple):
        return tuple(strip_spans(x) for x in node)
    return node


def ast_equal(a: object, b: object) -> bool:
    """Structural equality ignoring spans."""
    return strip_spans(a) == strip_spans(b)
