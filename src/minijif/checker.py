"""Static information-flow checking over MiniJif ASTs.

Each class is checked once, generically: its principal parameters are treated
as rigid, otherwise-unrelated principals.  Call sites substitute the concrete
principal arguments of the receiver's static type into the callee's labels.
The program-counter label starts at a method's begin-label and is only ever
raised (by joining branch-condition labels); it is restored when the branch
construct ends, unless the construct's body may return: whether the code after
it runs then depends on the condition, so the raised pc stays for the rest of
the method (JFlow's path labels in their simplest sound form).  A loop's
condition and body run again only if the last condition held, so a ``while``
is checked as one fixpoint: each pass checks the condition, then the body, at
the pc the last pass ended with, until the pc stops rising.
The right operand of ``&&`` and ``||`` runs only for some values of the left
one, so it is checked at the pc joined with the left operand's label, which
charges its effects (a call that writes a field) to that operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic
from .labels import (
    ConfPolicy,
    EMPTY,
    IntegPolicy,
    JoinNode,
    Label,
    LabelVar,
    MeetNode,
    conf_owners,
    flows_to,
    interpret_label,
    join,
    join_all,
    label_to_text,
    leaves,
)
from .principals import (
    Named,
    PrincipalHierarchy,
    PrincipalId,
    UnknownPrincipal,
)
from .span import Span
from . import syntax as ast


@dataclass(frozen=True)
class TrustConfig:
    """External trust decisions: who grants ``main`` its authority claims and
    which extra delegations hold at the deployment site."""

    grant_main_authority: bool = True
    extra_delegations: tuple[tuple[PrincipalId, PrincipalId], ...] = ()


@dataclass(frozen=True)
class ErrorType:
    """Poison type: silences follow-on mismatches after a reported error."""

    def __str__(self) -> str:
        return "<error>"


ERROR = ErrorType()

BUILTINS: dict[str, tuple[tuple[ast.Type, ...], ast.Type]] = {
    "substring": ((ast.STRING, ast.INT, ast.INT), ast.STRING),
    "concat": ((ast.STRING, ast.STRING), ast.STRING),
    "length": ((ast.STRING,), ast.INT),
}


def _types_match(a, b) -> bool:
    return a == b or isinstance(a, ErrorType) or isinstance(b, ErrorType)


@dataclass
class MethodContext:
    """Per-method checking state."""

    pc: Label
    authority: frozenset[PrincipalId]
    locals: dict[str, tuple[ast.Type, Label]] = field(default_factory=dict)
    returned: bool = False  # a `return` was checked in the current branch body


@dataclass(frozen=True)
class ParamInfo:
    name: str
    type: ast.Type
    label: Label


@dataclass(frozen=True)
class FieldInfo:
    name: str
    type: ast.Type
    label: Label
    span: Span


@dataclass(frozen=True)
class MethodInfo:
    decl: ast.MethodDecl
    return_type: ast.Type
    return_label: Label
    begin_label: Label
    end_label: "Label | None"
    params: tuple[ParamInfo, ...]
    authority: frozenset[PrincipalId]


@dataclass
class ClassInfo:
    decl: ast.ClassDecl
    hierarchy: PrincipalHierarchy  # program hierarchy plus rigid parameters
    authority: frozenset[PrincipalId] = field(default_factory=frozenset)
    fields: list[FieldInfo] = field(default_factory=list)
    methods: dict[str, MethodInfo] = field(default_factory=dict)


def substitute_label(label: Label, sub: dict[str, PrincipalId]) -> Label:
    if not sub:
        return label

    def pr(p: PrincipalId) -> PrincipalId:
        return sub.get(p.name, p) if isinstance(p, Named) else p

    match label:
        case ConfPolicy(owner, readers):
            return ConfPolicy(pr(owner), tuple(pr(r) for r in readers))
        case IntegPolicy(owner, writers):
            return IntegPolicy(pr(owner), tuple(pr(w) for w in writers))
        case JoinNode(left, right):
            return join(substitute_label(left, sub), substitute_label(right, sub))
        case MeetNode(left, right):
            return MeetNode(substitute_label(left, sub), substitute_label(right, sub))
        case _:
            return label


def substitute_type(t: ast.Type, sub: dict[str, PrincipalId]) -> ast.Type:
    if isinstance(t, ast.ClassType) and sub:
        args = tuple(
            sub.get(p.name, p) if isinstance(p, Named) else p for p in t.principal_args
        )
        return ast.ClassType(t.name, args)
    return t


class Checker:
    def __init__(self, program: ast.Program, trust: TrustConfig | None = None):
        self.program = program
        self.trust = trust or TrustConfig()
        self.diagnostics: list[Diagnostic] = []
        self.hierarchy = self._build_hierarchy()
        self.classes: dict[str, ClassInfo] = {}

    # -------------------------------------------------------------- plumbing

    def add(self, code: str, span: Span, message: str,
            from_label: "Label | None" = None, to_label: "Label | None" = None) -> None:
        self.diagnostics.append(Diagnostic(
            code, span, message,
            None if from_label is None else label_to_text(from_label),
            None if to_label is None else label_to_text(to_label),
        ))

    def _build_hierarchy(self) -> PrincipalHierarchy:
        h = PrincipalHierarchy()
        for d in self.program.decls:
            if isinstance(d, ast.PrincipalDecl):
                h = h.declare(d.name)
        for d in self.program.decls:
            if isinstance(d, ast.ActsForDecl):
                try:
                    h = h.delegate(d.superior, d.inferior)
                except UnknownPrincipal as exc:
                    self.add("E-UNDEF", d.span, str(exc))
        for sup, inf in self.trust.extra_delegations:
            h = h.delegate(sup, inf)  # raises UnknownPrincipal on bad config
        return h

    # --------------------------------------------------------- declaration pass

    def run(self) -> list[Diagnostic]:
        class_decls = [d for d in self.program.decls if isinstance(d, ast.ClassDecl)]
        for c in class_decls:
            if c.name in self.classes:
                self.add("E-TYPE", c.span, f"duplicate class '{c.name}'")
                continue
            h = self.hierarchy
            for p in c.principal_params:
                if Named(p) in self.hierarchy.declared:
                    self.add("E-TYPE", c.span,
                             f"principal parameter '{p}' shadows a declared principal")
                h = h.declare(p)
            self.classes[c.name] = ClassInfo(c, h)
        for info in self.classes.values():
            self._declare_members(info)
        for info in self.classes.values():
            self._check_bodies(info)
        self.diagnostics.sort(key=Diagnostic.sort_key)
        return self.diagnostics

    def _declare_members(self, info: ClassInfo) -> None:
        c = info.decl
        info.authority = frozenset(
            p for p in c.authority if self._principal_known(info, p, c.span)
        )
        for f in c.fields:
            if any(prev.name == f.name for prev in info.fields):
                self.add("E-TYPE", f.span, f"duplicate field '{f.name}'")
                continue
            ftype = self._resolve_type(info, f.type, f.span, allow_void=False)
            flabel = self._resolve_label(info, f.label, f.span)
            info.fields.append(FieldInfo(f.name, ftype, flabel, f.span))
        for m in c.methods:
            if m.name in info.methods:
                self.add("E-TYPE", m.span, f"duplicate method '{m.name}'")
                continue
            info.methods[m.name] = self._declare_method(info, m)

    def _declare_method(self, info: ClassInfo, m: ast.MethodDecl) -> MethodInfo:
        begin = self._resolve_label(info, m.begin_label, m.span)
        ret_label = (
            begin if m.return_label is None
            else self._resolve_label(info, m.return_label, m.span)
        )
        end = (
            None if m.end_label is None
            else self._resolve_label(info, m.end_label, m.span)
        )
        ret_type = self._resolve_type(info, m.return_type, m.span, allow_void=True)
        params: list[ParamInfo] = []
        for p in m.params:
            if any(prev.name == p.name for prev in params):
                self.add("E-TYPE", p.span, f"duplicate parameter '{p.name}'")
                continue
            ptype = self._resolve_type(info, p.type, p.span, allow_void=False)
            plabel = begin if p.label is None else self._resolve_label(info, p.label, p.span)
            params.append(ParamInfo(p.name, ptype, plabel))
        authority = self._method_authority(info, m)
        return MethodInfo(m, ret_type, ret_label, begin, end, tuple(params), authority)

    def _method_authority(self, info: ClassInfo, m: ast.MethodDecl) -> frozenset[PrincipalId]:
        allowed = set(info.authority)
        if m.name == "main" and self.trust.grant_main_authority:
            allowed |= self.hierarchy.declared
        effective = set()
        for p in m.authority:
            if not self._principal_known(info, p, m.span):
                continue
            if p not in allowed:
                self.add("E-AUTH-CLAIM", m.span,
                         f"method '{m.name}' claims authority of '{p}' "
                         f"which class '{info.decl.name}' was not granted")
                continue
            effective.add(p)
        return frozenset(effective)

    def _principal_known(self, info: ClassInfo, p: PrincipalId, span: Span) -> bool:
        if isinstance(p, Named) and p not in info.hierarchy.declared:
            self.add("E-UNDEF", span, f"unknown principal '{p.name}'")
            return False
        return True

    def _resolve_label(self, info: ClassInfo, label: "Label | None", span: Span) -> Label:
        """Validate a written label; on any problem, fall back to the empty label."""
        if label is None:
            return EMPTY
        ok = True
        for node in leaves(label):
            if isinstance(node, LabelVar):
                self.add("E-UNSUPPORTED", span,
                         f"label variable '{node.name}' is not supported")
                ok = False
            else:
                members = node.readers if isinstance(node, ConfPolicy) else node.writers
                for p in (node.owner, *members):
                    ok = self._principal_known(info, p, span) and ok
        return label if ok else EMPTY

    def _resolve_type(self, info: ClassInfo, t: ast.Type, span: Span, allow_void: bool) -> ast.Type:
        if isinstance(t, ast.VoidType) and not allow_void:
            self.add("E-TYPE", span, "void is only valid as a return type")
            return ERROR
        if not isinstance(t, ast.ClassType):
            return t
        target = self.classes.get(t.name)
        if target is None:
            self.add("E-UNDEF", span, f"unknown class '{t.name}'")
            return ERROR
        want = len(target.decl.principal_params)
        if len(t.principal_args) != want:
            self.add("E-ARITY", span,
                     f"class '{t.name}' takes {want} principal argument(s), "
                     f"got {len(t.principal_args)}")
            return ERROR
        ok = all(self._principal_known(info, p, span) for p in t.principal_args)
        return t if ok else ERROR

    # ------------------------------------------------------------- body pass

    def _check_bodies(self, info: ClassInfo) -> None:
        for mi in info.methods.values():
            ctx = MethodContext(
                pc=mi.begin_label,
                authority=mi.authority,
                locals={p.name: (p.type, p.label) for p in mi.params},
            )
            self._check_block(info, mi, ctx, mi.decl.body)

    def _check_block(self, info: ClassInfo, mi: MethodInfo, ctx: MethodContext,
                     block: ast.Block) -> None:
        outer = dict(ctx.locals)
        for s in block.stmts:
            self._check_stmt(info, mi, ctx, s)
        ctx.locals = outer

    def _check_stmt(self, info: ClassInfo, mi: MethodInfo, ctx: MethodContext,
                    s: ast.Stmt) -> None:
        match s:
            case ast.VarDecl():
                self._check_var_decl(info, mi, ctx, s)
            case ast.Assign():
                self.check_assign(info, ctx, s)
            case ast.If() | ast.While():
                self.check_branch(info, mi, ctx, s)
            case ast.Return():
                self.check_return(info, mi, ctx, s)
            case ast.ExprStmt(expr, _):
                self.check_expr(info, ctx, expr)

    def _check_var_decl(self, info: ClassInfo, mi: MethodInfo, ctx: MethodContext,
                        s: ast.VarDecl) -> None:
        typ = self._resolve_type(info, s.type, s.span, allow_void=False)
        if s.name in ctx.locals:
            self.add("E-TYPE", s.span, f"duplicate local '{s.name}'")
            return
        init_label: Label = EMPTY
        if s.init is not None:
            itype, init_label = self.check_expr(info, ctx, s.init)
            if not _types_match(itype, typ):
                self.add("E-TYPE", s.span,
                         f"cannot initialize {typ} '{s.name}' with a {itype} value")
        if s.label is not None:
            label = self._resolve_label(info, s.label, s.span)
            if s.init is not None:
                self._flow_check(info, ctx, s.span, init_label, label,
                                 f"initializer of '{s.name}'")
        else:
            # unannotated local: label inferred once, at the declaration
            label = join(init_label, ctx.pc)
        ctx.locals[s.name] = (typ, label)

    def check_assign(self, info: ClassInfo, ctx: MethodContext, s: ast.Assign) -> None:
        target_type, target_label, receiver, desc = self._lookup(info, ctx, s.target)
        vtype, vlabel = self.check_expr(info, ctx, s.value)
        if target_type is not None:
            if not _types_match(vtype, target_type):
                self.add("E-TYPE", s.span,
                         f"cannot assign a {vtype} value to {desc} of type {target_type}")
            self._flow_check(info, ctx, s.span, join(vlabel, receiver), target_label, desc)

    def _lookup(self, info: ClassInfo, ctx: MethodContext, e: "ast.Var | ast.FieldAccess"):
        """Resolve a local or field: (type, label, receiver label, description).

        Type is None when the name failed to resolve.  The receiver's label
        taints both a read and a write of the field.
        """
        if isinstance(e, ast.Var):
            if e.name in ctx.locals:
                return (*ctx.locals[e.name], EMPTY, f"'{e.name}'")
            cls, sub, rlabel = info, {}, EMPTY
            missing = f"unknown variable '{e.name}'"
        else:
            rtype, rlabel = self.check_expr(info, ctx, e.obj)
            resolved = self._member_class(info, rtype, e.span)
            if resolved is None:
                return None, EMPTY, rlabel, ""
            cls, sub = resolved
            missing = f"class '{cls.decl.name}' has no field '{e.name}'"
        fi = self._field(cls, e.name)
        if fi is None:
            self.add("E-UNDEF", e.span, missing)
            return None, EMPTY, rlabel, ""
        return (substitute_type(fi.type, sub), substitute_label(fi.label, sub),
                rlabel, f"field '{e.name}'")

    def _field(self, info: ClassInfo, name: str) -> "FieldInfo | None":
        for fi in info.fields:
            if fi.name == name:
                return fi
        return None

    def _member_class(self, info: ClassInfo, rtype, span: Span):
        """Class info and principal substitution for a receiver type."""
        if isinstance(rtype, ErrorType):
            return None
        if not isinstance(rtype, ast.ClassType):
            self.add("E-TYPE", span, f"{rtype} is not an object type")
            return None
        cls = self.classes[rtype.name]
        sub = dict(zip(cls.decl.principal_params, rtype.principal_args))
        return cls, sub

    def _flow_check(self, info: ClassInfo, ctx: MethodContext, span: Span,
                    source: Label, target: Label, desc: str) -> None:
        """Assignment-shaped flow check; blames the pc when it alone breaks the flow."""
        h = info.hierarchy
        full = join(source, ctx.pc)
        if flows_to(full, target, h):
            return
        if flows_to(source, target, h):
            self.add("E-FLOW-IMPLICIT", span,
                     f"implicit flow into {desc}: the program counter label "
                     f"does not flow to the target label",
                     from_label=full, to_label=target)
        else:
            self.add("E-FLOW", span,
                     f"value does not flow to {desc}",
                     from_label=full, to_label=target)

    def check_branch(self, info: ClassInfo, mi: MethodInfo, ctx: MethodContext,
                     s: "ast.If | ast.While") -> None:
        saved_pc, returned = ctx.pc, ctx.returned
        h = info.hierarchy
        mark = len(self.diagnostics)
        while True:
            start = ctx.pc
            ctype, clabel = self.check_expr(info, ctx, s.cond)
            if not _types_match(ctype, ast.BOOLEAN):
                self.add("E-TYPE", s.cond.span, f"condition must be boolean, got {ctype}")
            ctx.pc, ctx.returned = join(start, clabel), False
            if isinstance(s, ast.If):
                self._check_block(info, mi, ctx, s.then)
                if s.orelse is not None:
                    self._check_block(info, mi, ctx, s.orelse)
                break
            # A loop is one fixpoint: the condition and the body run again
            # only if the last condition held and no return fired, so each
            # pass starts at the pc the last one ended with, until the pc
            # stops rising; only the last pass's diagnostics are kept.  The
            # body is skipped in a pass whose condition raised the pc, as
            # the next pass checks it at the raised pc.
            if ctx.pc is start or flows_to(ctx.pc, start, h):
                self._check_block(info, mi, ctx, s.body)
                if ctx.pc is start or flows_to(ctx.pc, start, h):
                    break
            del self.diagnostics[mark:]
        # a body that may return keeps the raised pc (see the module docstring)
        if not ctx.returned:
            ctx.pc = saved_pc
        ctx.returned |= returned

    def check_return(self, info: ClassInfo, mi: MethodInfo, ctx: MethodContext,
                     s: ast.Return) -> None:
        h = info.hierarchy
        ctx.returned = True
        if s.value is None:
            if not isinstance(mi.return_type, (ast.VoidType, ErrorType)):
                self.add("E-TYPE", s.span, f"method '{mi.decl.name}' must return a value")
        else:
            vtype, vlabel = self.check_expr(info, ctx, s.value)
            if isinstance(mi.return_type, ast.VoidType):
                self.add("E-TYPE", s.span, f"void method '{mi.decl.name}' cannot return a value")
            elif not _types_match(vtype, mi.return_type):
                self.add("E-TYPE", s.span,
                         f"returning a {vtype} value from a {mi.return_type} method")
            source = join(vlabel, ctx.pc)
            if not flows_to(source, mi.return_label, h):
                self.add("E-FLOW", s.span,
                         "returned value does not flow to the declared return label",
                         from_label=source, to_label=mi.return_label)
        if mi.end_label is not None and not flows_to(ctx.pc, mi.end_label, h):
            self.add("E-PC-END", s.span,
                     "program counter does not flow to the method end-label",
                     from_label=ctx.pc, to_label=mi.end_label)

    # ------------------------------------------------------------ expressions

    def check_expr(self, info: ClassInfo, ctx: MethodContext,
                   e: ast.Expr) -> tuple[ast.Type, Label]:
        match e:
            case ast.IntLit():
                return ast.INT, EMPTY
            case ast.StrLit():
                return ast.STRING, EMPTY
            case ast.BoolLit():
                return ast.BOOLEAN, EMPTY
            case ast.Var() | ast.FieldAccess():
                t, label, receiver, _ = self._lookup(info, ctx, e)
                return (ERROR if t is None else t), join(receiver, label)
            case ast.Call():
                return self.check_call(info, ctx, e)
            case ast.New():
                return self._check_new(info, ctx, e)
            case ast.Declassify():
                return self.check_declassify(info, ctx, e)
            case ast.Builtin():
                return self._check_builtin(info, ctx, e)
            case ast.BinOp():
                return self._check_binop(info, ctx, e)
        raise TypeError(f"not an expression: {e!r}")

    def check_call(self, info: ClassInfo, ctx: MethodContext,
                   e: ast.Call) -> tuple[ast.Type, Label]:
        rtype, rlabel = self.check_expr(info, ctx, e.receiver)
        resolved = self._member_class(info, rtype, e.span)
        arg_results = [self.check_expr(info, ctx, a) for a in e.args]
        if resolved is None:
            return ERROR, EMPTY
        cls, sub = resolved
        callee = cls.methods.get(e.method)
        if callee is None:
            self.add("E-UNKNOWN-METHOD", e.span,
                      f"class '{cls.decl.name}' has no method '{e.method}'")
            return ERROR, EMPTY
        # the receiver picks the object the callee runs on: it bounds its pc and taints its result
        begin = substitute_label(callee.begin_label, sub)
        call_pc = join(ctx.pc, rlabel)
        if not flows_to(call_pc, begin, info.hierarchy):
            self.add("E-PC-CALL", e.span,
                     f"program counter does not flow to the begin-label of '{e.method}'",
                     from_label=call_pc, to_label=begin)
        if len(e.args) != len(callee.params):
            self.add("E-ARITY", e.span,
                     f"method '{e.method}' takes {len(callee.params)} argument(s), "
                     f"got {len(e.args)}")
        else:
            for arg, (atype, alabel), p in zip(e.args, arg_results, callee.params):
                if not _types_match(atype, substitute_type(p.type, sub)):
                    self.add("E-TYPE", arg.span,
                             f"argument '{p.name}' of '{e.method}' expects "
                             f"{substitute_type(p.type, sub)}, got {atype}")
                source = join(alabel, ctx.pc)
                target = substitute_label(p.label, sub)
                if not flows_to(source, target, info.hierarchy):
                    self.add("E-FLOW", arg.span,
                             f"argument does not flow to parameter '{p.name}' of '{e.method}'",
                             from_label=source, to_label=target)
        return (substitute_type(callee.return_type, sub),
                join(rlabel, substitute_label(callee.return_label, sub)))

    def _check_new(self, info: ClassInfo, ctx: MethodContext,
                   e: ast.New) -> tuple[ast.Type, Label]:
        arg_results = [self.check_expr(info, ctx, a) for a in e.args]
        result_label = join_all([l for _, l in arg_results])
        ctype = self._resolve_type(
            info, ast.ClassType(e.class_name, e.principal_args), e.span, allow_void=False
        )
        if isinstance(ctype, ErrorType):
            return ERROR, result_label
        cls = self.classes[e.class_name]
        sub = dict(zip(cls.decl.principal_params, e.principal_args))
        # implicit constructor: one argument per field, in declaration order
        if len(e.args) != len(cls.fields):
            self.add("E-ARITY", e.span,
                     f"constructor of '{e.class_name}' takes {len(cls.fields)} "
                     f"argument(s), got {len(e.args)}")
            return ctype, result_label
        for arg, (atype, alabel), fi in zip(e.args, arg_results, cls.fields):
            if not _types_match(atype, substitute_type(fi.type, sub)):
                self.add("E-TYPE", arg.span,
                         f"field '{fi.name}' expects {substitute_type(fi.type, sub)}, "
                         f"got {atype}")
            self._flow_check(info, ctx, arg.span, alabel,
                             substitute_label(fi.label, sub), f"field '{fi.name}'")
        return ctype, result_label

    def check_declassify(self, info: ClassInfo, ctx: MethodContext,
                         e: ast.Declassify) -> tuple[ast.Type, Label]:
        h = info.hierarchy
        etype, elabel = self.check_expr(info, ctx, e.expr)
        from_label = self._resolve_label(info, e.from_label, e.span)
        to_label = self._resolve_label(info, e.to_label, e.span)
        if not flows_to(elabel, from_label, h):
            self.add("E-DECL-FROM", e.span,
                     "declassified expression does not flow to the stated source label",
                     from_label=elabel, to_label=from_label)
        if not flows_to(from_label, to_label, h):
            # weakening a confidentiality policy needs the authority of its owner
            for owner in conf_owners(from_label):
                if not any(h.acts_for(a, owner) for a in ctx.authority):
                    self.add("E-DECL-AUTH", e.span,
                             f"declassification requires the authority of '{owner}'",
                             from_label=from_label, to_label=to_label)
        sem_from = interpret_label(from_label, h)
        sem_to = interpret_label(to_label, h)
        if not sem_from.writers <= sem_to.writers:
            self.add("E-DECL-INTEG", e.span,
                     "declassification must not strengthen integrity",
                     from_label=from_label, to_label=to_label)
        return etype, to_label

    def _check_builtin(self, info: ClassInfo, ctx: MethodContext,
                       e: ast.Builtin) -> tuple[ast.Type, Label]:
        arg_results = [self.check_expr(info, ctx, a) for a in e.args]
        label = join_all([l for _, l in arg_results])
        sig = BUILTINS.get(e.name)
        if sig is None:
            self.add("E-UNKNOWN-METHOD", e.span, f"unknown function '{e.name}'")
            return ERROR, label
        param_types, ret = sig
        if len(e.args) != len(param_types):
            self.add("E-ARITY", e.span,
                     f"'{e.name}' takes {len(param_types)} argument(s), got {len(e.args)}")
            return ret, label
        for arg, (atype, _), want in zip(e.args, arg_results, param_types):
            if not _types_match(atype, want):
                self.add("E-TYPE", arg.span, f"'{e.name}' expects {want}, got {atype}")
        return ret, label

    def _check_binop(self, info: ClassInfo, ctx: MethodContext,
                     e: ast.BinOp) -> tuple[ast.Type, Label]:
        # left-nested chains such as 1 + 2 + ... + 1 are walked iteratively,
        # innermost operator first, so their length does not grow the stack
        spine = [e]
        while isinstance(spine[-1].left, ast.BinOp):
            spine.append(spine[-1].left)
        ltype, label = self.check_expr(info, ctx, spine[-1].left)
        for b in reversed(spine):
            saved_pc = ctx.pc
            if b.op in ("&&", "||"):
                # the right operand runs only for some values of the left one
                ctx.pc = join(ctx.pc, label)
            rtype, rlabel = self.check_expr(info, ctx, b.right)
            ctx.pc = saved_pc
            ltype, label = self._binop_type(b, ltype, rtype), join(label, rlabel)
        return ltype, label

    def _binop_type(self, e: ast.BinOp, ltype, rtype) -> ast.Type:
        if e.op in ("+", "-", "*", "/"):
            want, result = ast.INT, ast.INT
        elif e.op in ("<", "<=", ">", ">="):
            want, result = ast.INT, ast.BOOLEAN
        elif e.op in ("&&", "||"):
            want, result = ast.BOOLEAN, ast.BOOLEAN
        else:  # == and != compare equal primitive types
            if not _types_match(ltype, rtype) or isinstance(ltype, ast.ClassType):
                self.add("E-TYPE", e.span, f"cannot compare {ltype} and {rtype} with '{e.op}'")
            return ast.BOOLEAN
        for side in ((ltype, e.left), (rtype, e.right)):
            if not _types_match(side[0], want):
                self.add("E-TYPE", side[1].span,
                         f"operator '{e.op}' expects {want} operands, got {side[0]}")
        return result


def check_program(program: ast.Program, trust: TrustConfig | None = None) -> list[Diagnostic]:
    """Check a parsed program; the returned diagnostics are ordered by span.

    Raises UnknownPrincipal when the trust configuration names delegation
    endpoints the program does not declare.
    """
    return Checker(program, trust).run()
