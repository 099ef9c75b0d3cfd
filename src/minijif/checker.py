"""Static information-flow checking over MiniJif ASTs.

Flows are checked in JFlow's two steps: generate constraints, then solve them.
The body pass walks each method under one ``MethodContext`` (class, method, pc,
locals) and records each flow obligation on ``ctx.records``; then ``decide``
turns the records into diagnostics under the program's one hierarchy, in which
class parameters are rigid principals, and the method's authority.  The walk
itself reads no hierarchy: it never decides a flow.  But a flow whose source,
with the pc joined in, is ``{}`` or the target itself holds under every
hierarchy, which identity and ``join`` alone show; so an initializer,
assignment, return, call or ``new`` field flow is recorded only when its
source is neither, and a loop's records are tested again once its pc is
solved.  ``decide`` keeps the same test, so a direct caller gets the same
verdict.

Each class is checked once, generically: call sites substitute the concrete
principal arguments of the receiver's static type into the callee's labels.
An instance's methods spend its class's authority for whoever created it, so
``new`` records that its creator must hold that authority, after substitution.
The program-counter label starts at a method's begin-label and is only ever
raised (by joining branch-condition labels); it is restored when the branch
construct ends, unless the construct's body may return: whether the code after
it runs then depends on the condition, so the raised pc stays for the rest of
the method (JFlow's path labels in their simplest sound form).  A loop's
condition and body run again only if the last condition held, so a ``while``
is walked once, at a variable pc that the body can only join other labels
onto; the least solution is thus the body's end pc at the entry pc joined with
the condition's label, and the loop's records are rewritten to read it.
The right operand of ``&&`` and ``||`` runs only for some values of the left
one, so it is checked at the pc joined with the left operand's label, which
charges its effects (a call that writes a field) to that operand.
"""

from __future__ import annotations

from . import labels
from .diagnostics import Diagnostic
from .labels import (
    ConfPolicy,
    EMPTY,
    IntegPolicy,
    JoinNode,
    Label,
    LabelVar,
    MeetNode,
    _flatten,
    conf_owners,
    flows_to,
    interpret_label,
    join,
    join_all,
    label_to_text,
    leaves,
)
from .principals import PrincipalHierarchy, PrincipalId, UnknownPrincipal
from .span import Record, Span
from . import syntax as ast


class TrustConfig(Record):
    """External trust decisions: who grants ``main`` its authority claims and
    which extra delegations hold at the deployment site."""

    grant_main_authority: bool
    extra_delegations: tuple[tuple[PrincipalId, PrincipalId], ...]

    def __new__(cls, grant_main_authority: bool = True,
                extra_delegations: tuple[tuple[PrincipalId, PrincipalId], ...] = ()):
        return tuple.__new__(cls, (grant_main_authority, extra_delegations))


# poison type: silences follow-on mismatches after a reported error
ERROR = ast.PrimType("<error>")

BUILTINS: dict[str, tuple[tuple[ast.Type, ...], ast.Type]] = {
    "substring": ((ast.STRING, ast.INT, ast.INT), ast.STRING),
    "concat": ((ast.STRING, ast.STRING), ast.STRING),
    "length": ((ast.STRING,), ast.INT),
}


LITERAL_TYPES = {ast.IntLit: ast.INT, ast.StrLit: ast.STRING, ast.BoolLit: ast.BOOLEAN}

# operator -> (operand type, result type); == and != are not listed (see _binop_type)
BINOP_TYPES = ({op: (ast.INT, ast.INT) for op in ("+", "-", "*", "/")}
               | {op: (ast.INT, ast.BOOLEAN) for op in ("<", "<=", ">", ">=")}
               | {op: (ast.BOOLEAN, ast.BOOLEAN) for op in ("&&", "||")})


def _types_match(a, b) -> bool:
    return a == b or a is ERROR or b is ERROR


class ParamInfo(Record):
    """A declared parameter or field: its name, resolved type and label."""

    name: str
    type: ast.Type
    label: Label


class MethodInfo(Record):
    decl: ast.MethodDecl
    return_type: ast.Type
    return_label: Label
    begin_label: Label
    end_label: "Label | None"
    params: tuple[ParamInfo, ...]
    authority: frozenset[PrincipalId]


class ClassInfo:
    """A class declaration; the declaration pass fills in the rest."""

    def __init__(self, decl: ast.ClassDecl):
        self.decl = decl
        self.authority: frozenset[PrincipalId] = frozenset()
        self.fields: dict[str, ParamInfo] = {}  # in declaration order
        self.methods: dict[str, MethodInfo] = {}
        # the value types, and the labels and class types written here that validated clean
        self.valid: dict = dict.fromkeys((ast.INT, ast.BOOLEAN, ast.STRING))


# (code, source, pc, target, span, message): see decide
FlowRecord = tuple[str, "Label | PrincipalId", "Label | None", "Label | None", Span, "str | None"]


class MethodContext:
    """Body-pass state of one method: its class and declaration, the pc, the
    locals in scope, whether a branch body has a `return`, and its flow records."""

    def __init__(self, cls: ClassInfo, method: MethodInfo):
        self.cls = cls
        self.method = method
        self.pc = method.begin_label
        self.locals = {p.name: (p.type, p.label) for p in method.params}
        self.returned = False
        self.records: list[FlowRecord] = []


def substitute_label(label: Label, sub: "dict[str, PrincipalId] | dict[LabelVar, Label]") -> Label:
    if not sub:
        return label
    match label:
        case ConfPolicy(owner, members) | IntegPolicy(owner, members):
            return type(label)(sub.get(owner, owner), tuple(sub.get(m, m) for m in members))
        case JoinNode():
            return join_all([substitute_label(c, sub) for c in _flatten(label, JoinNode)])
        case MeetNode(left, right):
            return MeetNode(substitute_label(left, sub), substitute_label(right, sub))
        case LabelVar():
            return sub.get(label, label)
        case _:
            return label


def substitute_type(t: ast.Type, sub: dict[str, PrincipalId]) -> ast.Type:
    if isinstance(t, ast.ClassType) and sub:
        return ast.ClassType(t.name, tuple(sub.get(p, p) for p in t.principal_args))
    return t


class Instance:
    """A reached instantiation of a class: its principal substitution, the
    authority its creator must hold, and its member labels, each substituted
    once, on first use."""

    def __init__(self, cls: ClassInfo, args: tuple[PrincipalId, ...]):
        self.cls = cls
        self.sub = dict(zip(cls.decl.principal_params, args))
        self.authority = {self.sub.get(p, p) for p in cls.authority}
        self.labels: dict[Label, Label] = {}

    def label(self, label: Label) -> Label:
        out = self.labels.get(label)
        if out is None:
            out = self.labels[label] = substitute_label(label, self.sub)
        return out


class Checker:
    def __init__(self, program: ast.Program, trust: TrustConfig | None = None):
        self.program = program
        self.trust = trust or TrustConfig()
        self.diagnostics: list[Diagnostic] = []
        self.hierarchy = self._build_hierarchy()
        self.universe = self.hierarchy.universe  # a parameter is known in its class alone
        self.classes: dict[str, ClassInfo] = {}
        self.instances: dict[ast.ClassType, Instance] = {}  # every receiver type reached
        # The body pass dispatches on the node's class, to the functions of the
        # checker's own class, so that a subclass's override is the one called.
        # (Bound methods would make each checker a reference cycle, which a run
        # with the cyclic collector off would never free.)
        c = type(self)
        self._stmt_rules = {
            ast.VarDecl: c._check_var_decl, ast.Assign: c.check_assign,
            ast.If: c.check_branch, ast.While: c.check_branch,
            ast.Return: c.check_return, ast.ExprStmt: c._check_expr_stmt,
        }
        self._expr_rules = {  # a literal or a local read is answered in check_expr
            ast.Var: c._check_access, ast.FieldAccess: c._check_access, ast.Call: c.check_call,
            ast.New: c._check_new, ast.Declassify: c.check_declassify,
            ast.Builtin: c._check_builtin, ast.BinOp: c._check_binop,
        }

    # -------------------------------------------------------------- plumbing

    def add(self, code: str, span: Span, message: str) -> None:
        self.diagnostics.append(Diagnostic(code, span, message))

    def _build_hierarchy(self) -> PrincipalHierarchy:
        h = PrincipalHierarchy().declare(*(d.name for d in self.program.decls
                                           if isinstance(d, ast.PrincipalDecl)))
        edges = []
        for d in self.program.decls:
            if isinstance(d, ast.ActsForDecl):
                try:
                    edges.append(h.check_edge(d.superior, d.inferior))
                except UnknownPrincipal as exc:
                    self.add("E-UNDEF", d.span, str(exc))
        h = PrincipalHierarchy(h.declared, frozenset(edges))  # checked above: not validated again
        return h.delegate(*self.trust.extra_delegations)  # UnknownPrincipal on bad trust

    # --------------------------------------------------------- declaration pass

    def run(self) -> list[Diagnostic]:
        labels.clear_program_memos()  # the last check's: their statistics then count this one
        class_decls = [d for d in self.program.decls if isinstance(d, ast.ClassDecl)]
        for c in class_decls:
            if c.name in self.classes:
                self.add("E-TYPE", c.span, f"duplicate class '{c.name}'")
                continue
            for p in c.principal_params:
                if p in self.hierarchy.declared:
                    self.add("E-TYPE", c.span,
                             f"principal parameter '{p}' shadows a declared principal")
            self.classes[c.name] = ClassInfo(c)
        for info in self.classes.values():
            self._declare_members(info)
        # one hierarchy decides every class (the declaration pass read the program's own)
        self.hierarchy = self.hierarchy.declare(
            *{p for info in self.classes.values() for p in info.decl.principal_params})
        for info in self.classes.values():
            for mi in info.methods.values():
                ctx = MethodContext(info, mi)
                self._check_block(ctx, mi.decl.body)
                self.diagnostics += decide(ctx.records, self.hierarchy, mi.authority)
        self.diagnostics.sort(key=Diagnostic.sort_key)
        # the memo of joins holds each loop's pc variable and the labels built on
        # it, which no later check can reuse: it lasts one check (reached through
        # its module, since bench/trace_child.py may wrap this module's `join`)
        labels.join.cache_clear()
        return self.diagnostics

    def _declare_members(self, info: ClassInfo) -> None:
        c = info.decl
        info.authority = frozenset(p for p in c.authority if self._principal_known(info, p, c.span))
        for f in c.fields:
            if f.name in info.fields:
                self.add("E-TYPE", f.span, f"duplicate field '{f.name}'")
                continue
            ftype = self._resolve_type(info, f.type, f.span, allow_void=False)
            flabel = self._resolve_label(info, f.label, f.span)
            info.fields[f.name] = ParamInfo(f.name, ftype, flabel)
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
        params: dict[str, ParamInfo] = {}
        for p in m.params:
            if p.name in params:
                self.add("E-TYPE", p.span, f"duplicate parameter '{p.name}'")
                continue
            ptype = self._resolve_type(info, p.type, p.span, allow_void=False)
            plabel = begin if p.label is None else self._resolve_label(info, p.label, p.span)
            params[p.name] = ParamInfo(p.name, ptype, plabel)
        authority = self._method_authority(info, m)
        return MethodInfo(m, ret_type, ret_label, begin, end, tuple(params.values()), authority)

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
        if p not in self.universe and p not in info.decl.principal_params:
            self.add("E-UNDEF", span, f"unknown principal '{p}'")
            return False
        return True

    def _resolve_label(self, info: ClassInfo, label: "Label | None", span: Span) -> Label:
        """Validate a written label; on any problem, fall back to the empty label."""
        if label is None:
            return EMPTY
        if label in info.valid:
            return label
        kind = type(label)
        if kind is ConfPolicy or kind is IntegPolicy:  # one policy of declared principals
            members = label.readers if kind is ConfPolicy else label.writers
            if self.universe.issuperset((label.owner, *members)):
                info.valid[label] = None
                return label
        ok = True
        for node in leaves(label):
            if isinstance(node, LabelVar):
                self.add("E-UNSUPPORTED", span,
                         f"label variable '{node.name}' is not supported")
                ok = False
            else:
                members = node.readers if isinstance(node, ConfPolicy) else node.writers
                for p in (node.owner, *members):
                    ok = (p in self.universe or self._principal_known(info, p, span)) and ok
        if not ok:
            return EMPTY
        info.valid[label] = None
        return label

    def _resolve_type(self, info: ClassInfo, t: ast.Type, span: Span, allow_void: bool) -> ast.Type:
        if t is ast.VOID and not allow_void:
            self.add("E-TYPE", span, "void is only valid as a return type")
            return ERROR
        if not isinstance(t, ast.ClassType) or t in info.valid:
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
        if not all(self._principal_known(info, p, span) for p in t.principal_args):
            return ERROR
        info.valid[t] = None
        return t

    # ------------------------------------------------------------- body pass

    def _check_block(self, ctx: MethodContext, block: ast.Block) -> None:
        outer, rules = dict(ctx.locals), self._stmt_rules
        for s in block.stmts:
            rules[type(s)](self, ctx, s)
        ctx.locals = outer

    def _check_expr_stmt(self, ctx: MethodContext, s: ast.ExprStmt) -> None:
        self.check_expr(ctx, s.expr)

    def _check_var_decl(self, ctx: MethodContext, s: ast.VarDecl) -> None:
        typ, valid = s.type, ctx.cls.valid
        if typ not in valid:
            typ = self._resolve_type(ctx.cls, typ, s.span, allow_void=False)
        if s.name in ctx.locals:
            self.add("E-TYPE", s.span, f"duplicate local '{s.name}'")
            return
        init_label: Label = EMPTY
        if s.init is not None:
            itype, init_label = self.check_expr(ctx, s.init)
            if itype is not typ and not _types_match(itype, typ):
                self.add("E-TYPE", s.span,
                         f"cannot initialize {typ} '{s.name}' with a {itype} value")
        if s.label is not None:
            label = s.label
            if label not in valid:
                label = self._resolve_label(ctx.cls, label, s.span)
            if s.init is not None:
                pc = ctx.pc
                source = init_label if pc is EMPTY else join(init_label, pc)
                if source is not EMPTY and source is not label:
                    ctx.records.append(("E-FLOW", init_label, pc, label, s.span,
                                        f"initializer of '{s.name}'"))
        else:
            # unannotated local: label inferred once, at the declaration
            label = join(init_label, ctx.pc)
        ctx.locals[s.name] = (typ, label)

    def check_assign(self, ctx: MethodContext, s: ast.Assign) -> None:
        target = s.target
        local = ctx.locals.get(target.name) if type(target) is ast.Var else None
        if local is None:
            target_type, target_label, receiver = self._lookup(ctx, target)
        else:
            (target_type, target_label), receiver = local, EMPTY
        vtype, vlabel = self.check_expr(ctx, s.value)
        if target_type is None:
            return
        what = "'{}'" if local is not None else "field '{}'"  # formatted only when read
        if vtype is not target_type and not _types_match(vtype, target_type):
            self.add("E-TYPE", s.span, f"cannot assign a {vtype} value to "
                                       f"{what.format(target.name)} of type {target_type}")
        value = vlabel if receiver is EMPTY else join(vlabel, receiver)
        pc = ctx.pc
        source = value if pc is EMPTY else join(value, pc)
        if source is not EMPTY and source is not target_label:
            ctx.records.append(("E-FLOW", value, pc, target_label, s.span,
                                what.format(target.name)))

    def _lookup(self, ctx: MethodContext, e: "ast.Var | ast.FieldAccess"):
        """Resolve a field, or a variable that is not a local: (type, label,
        receiver label).

        Type is None when the name failed to resolve.  The receiver's label
        taints both a read and a write of the field.
        """
        if type(e) is ast.Var:
            fi = ctx.cls.fields.get(e.name)
            if fi is None:
                self.add("E-UNDEF", e.span, f"unknown variable '{e.name}'")
                return None, EMPTY, EMPTY
            return fi.type, fi.label, EMPTY
        rtype, rlabel = self.check_expr(ctx, e.obj)
        inst = self._member_class(rtype, e.span)
        if inst is None:
            return None, EMPTY, rlabel
        fi = inst.cls.fields.get(e.name)
        if fi is None:
            self.add("E-UNDEF", e.span, f"class '{inst.cls.decl.name}' has no field '{e.name}'")
            return None, EMPTY, rlabel
        return substitute_type(fi.type, inst.sub), inst.label(fi.label), rlabel

    def _member_class(self, rtype, span: Span) -> "Instance | None":
        """The instantiation a receiver type names, resolved once per check."""
        inst = self.instances.get(rtype)
        if inst is not None:
            return inst
        if rtype is ERROR:
            return None
        if not isinstance(rtype, ast.ClassType):
            self.add("E-TYPE", span, f"{rtype} is not an object type")
            return None
        inst = self.instances[rtype] = Instance(self.classes[rtype.name], rtype.principal_args)
        return inst

    def check_branch(self, ctx: MethodContext, s: "ast.If | ast.While") -> None:
        saved_pc, returned, records = ctx.pc, ctx.returned, len(ctx.records)
        if isinstance(s, ast.While):
            ctx.pc = var = LabelVar(f"pc@{s.span.start}")  # a name no source can produce
        ctype, clabel = self.check_expr(ctx, s.cond)
        if ctype is not ast.BOOLEAN and not _types_match(ctype, ast.BOOLEAN):
            self.add("E-TYPE", s.cond.span, f"condition must be boolean, got {ctype}")
        ctx.pc, ctx.returned = join(ctx.pc, clabel), False
        if isinstance(s, ast.If):
            self._check_block(ctx, s.then)
            if s.orelse is not None:
                self._check_block(ctx, s.orelse)
        else:
            self._check_block(ctx, s.body)
            # solve the loop pc (see the module docstring); the end pc, joined
            # onto the variable, solves to the same label, so it is not solved again
            end_pc, ctx.pc = ctx.pc, substitute_label(ctx.pc, {var: join(saved_pc, clabel)})
            sub = {var: ctx.pc}
            solved = {var: ctx.pc, end_pc: ctx.pc}  # each distinct record part, solved once

            def solve(x):
                out = solved.get(x)
                if out is None:
                    mentions_var = var in _flatten(x, JoinNode)
                    out = solved[x] = substitute_label(x, sub) if mentions_var else x
                return out

            # a solved record that every hierarchy passes is dropped, as at its site
            kept = []
            for code, *parts, span, message in ctx.records[records:]:
                source, pc, target = map(solve, parts)
                test = source if pc is None or pc is EMPTY else join(source, pc)
                if code == "authority" or test is not EMPTY and test is not target:
                    kept.append((code, source, pc, target, span, message))
            ctx.records[records:] = kept
        # a body that may return keeps the raised pc (see the module docstring)
        if not ctx.returned:
            ctx.pc = saved_pc
        ctx.returned |= returned

    def check_return(self, ctx: MethodContext, s: ast.Return) -> None:
        mi = ctx.method
        ctx.returned = True
        if s.value is None:
            if mi.return_type not in (ast.VOID, ERROR):
                self.add("E-TYPE", s.span, f"method '{mi.decl.name}' must return a value")
        else:
            vtype, vlabel = self.check_expr(ctx, s.value)
            if mi.return_type is ast.VOID:
                self.add("E-TYPE", s.span, f"void method '{mi.decl.name}' cannot return a value")
            elif vtype is not mi.return_type and not _types_match(vtype, mi.return_type):
                self.add("E-TYPE", s.span,
                         f"returning a {vtype} value from a {mi.return_type} method")
            source = vlabel if ctx.pc is EMPTY else join(vlabel, ctx.pc)
            if source is not EMPTY and source is not mi.return_label:
                ctx.records.append(("E-FLOW", source, None, mi.return_label, s.span,
                                    "returned value does not flow to the declared return label"))
        if mi.end_label is not None:
            ctx.records.append(("E-PC-END", ctx.pc, None, mi.end_label, s.span,
                                "program counter does not flow to the method end-label"))

    # ------------------------------------------------------------ expressions

    def check_expr(self, ctx: MethodContext, e: ast.Expr) -> tuple[ast.Type, Label]:
        kind = type(e)
        if kind is ast.Var:
            local = ctx.locals.get(e.name)
            if local is not None:
                return local  # (type, label)
        else:
            t = LITERAL_TYPES.get(kind)
            if t is not None:
                return t, EMPTY
        return self._expr_rules[kind](self, ctx, e)

    def _check_access(self, ctx: MethodContext, e: "ast.Var | ast.FieldAccess"):
        """A field read, or a read of a name that is not a local."""
        t, label, receiver = self._lookup(ctx, e)
        return (ERROR if t is None else t), join(receiver, label)

    def check_call(self, ctx: MethodContext, e: ast.Call) -> tuple[ast.Type, Label]:
        rtype, rlabel = self.check_expr(ctx, e.receiver)
        inst = self._member_class(rtype, e.span)
        arg_results = [self.check_expr(ctx, a) for a in e.args]
        if inst is None:
            return ERROR, EMPTY
        callee = inst.cls.methods.get(e.method)
        if callee is None:
            self.add("E-UNKNOWN-METHOD", e.span,
                      f"class '{inst.cls.decl.name}' has no method '{e.method}'")
            return ERROR, EMPTY
        # the receiver picks the object the callee runs on: it bounds its pc and taints its result
        begin = inst.label(callee.begin_label)
        source = rlabel if ctx.pc is EMPTY else join(ctx.pc, rlabel)
        if source is not EMPTY and source is not begin:
            ctx.records.append((
                "E-PC-CALL", source, None, begin, e.span,
                f"program counter does not flow to the begin-label of '{e.method}'"))
        if len(e.args) != len(callee.params):
            self.add("E-ARITY", e.span,
                     f"method '{e.method}' takes {len(callee.params)} argument(s), "
                     f"got {len(e.args)}")
        else:
            for arg, (atype, alabel), p in zip(e.args, arg_results, callee.params):
                want = substitute_type(p.type, inst.sub)
                if atype is not want and not _types_match(atype, want):
                    self.add("E-TYPE", arg.span,
                             f"argument '{p.name}' of '{e.method}' expects {want}, got {atype}")
                param = inst.label(p.label)
                source = alabel if ctx.pc is EMPTY else join(alabel, ctx.pc)
                if source is not EMPTY and source is not param:
                    ctx.records.append((
                        "E-FLOW", source, None, param, arg.span,
                        f"argument does not flow to parameter '{p.name}' of '{e.method}'"))
        return (substitute_type(callee.return_type, inst.sub),
                join(rlabel, inst.label(callee.return_label)))

    def _check_new(self, ctx: MethodContext, e: ast.New) -> tuple[ast.Type, Label]:
        arg_results = [self.check_expr(ctx, a) for a in e.args]
        result_label = join_all([l for _, l in arg_results])
        ctype = self._resolve_type(
            ctx.cls, ast.ClassType(e.class_name, e.principal_args), e.span, allow_void=False
        )
        if ctype is ERROR:
            return ERROR, result_label
        inst = self._member_class(ctype, e.span)
        cls = inst.cls
        # the instance's methods may spend the class's authority, so its creator must hold it
        ctx.records += [("authority", p, None, None, e.span,
                         f"creating a '{ctype}' needs the authority of '{p}', "
                         f"which method '{ctx.method.decl.name}' does not hold")
                        for p in inst.authority]
        # implicit constructor: one argument per field, in declaration order
        if len(e.args) != len(cls.fields):
            self.add("E-ARITY", e.span,
                     f"constructor of '{e.class_name}' takes {len(cls.fields)} "
                     f"argument(s), got {len(e.args)}")
            return ctype, result_label
        for arg, (atype, alabel), fi in zip(e.args, arg_results, cls.fields.values()):
            want = substitute_type(fi.type, inst.sub)
            if atype is not want and not _types_match(atype, want):
                self.add("E-TYPE", arg.span, f"field '{fi.name}' expects {want}, got {atype}")
            field, pc = inst.label(fi.label), ctx.pc
            source = alabel if pc is EMPTY else join(alabel, pc)
            if source is not EMPTY and source is not field:
                ctx.records.append(("E-FLOW", alabel, pc, field, arg.span, f"field '{fi.name}'"))
        return ctype, result_label

    def check_declassify(self, ctx: MethodContext, e: ast.Declassify) -> tuple[ast.Type, Label]:
        etype, elabel = self.check_expr(ctx, e.expr)
        from_label = self._resolve_label(ctx.cls, e.from_label, e.span)
        to_label = self._resolve_label(ctx.cls, e.to_label, e.span)
        ctx.records += [("E-DECL-FROM", elabel, None, from_label, e.span,
                         "declassified expression does not flow to the stated source label"),
                        ("declassify", from_label, None, to_label, e.span, None)]
        return etype, to_label

    def _check_builtin(self, ctx: MethodContext, e: ast.Builtin) -> tuple[ast.Type, Label]:
        arg_results = [self.check_expr(ctx, a) for a in e.args]
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
            if atype is not want and not _types_match(atype, want):
                self.add("E-TYPE", arg.span, f"'{e.name}' expects {want}, got {atype}")
        return ret, label

    def _check_binop(self, ctx: MethodContext, e: ast.BinOp) -> tuple[ast.Type, Label]:
        # left-nested chains such as 1 + 2 + ... + 1 are walked iteratively,
        # innermost operator first, so their length does not grow the stack
        spine = [e]
        while isinstance(spine[-1].left, ast.BinOp):
            spine.append(spine[-1].left)
        ltype, label = self.check_expr(ctx, spine[-1].left)
        for b in reversed(spine):
            saved_pc = ctx.pc
            if b.op in ("&&", "||"):
                # the right operand runs only for some values of the left one
                ctx.pc = join(ctx.pc, label)
            rtype, rlabel = self.check_expr(ctx, b.right)
            ctx.pc = saved_pc
            sig = BINOP_TYPES.get(b.op)
            if sig is not None and ltype is sig[0] and rtype is sig[0]:
                ltype = sig[1]  # the common case, with no error to build
            else:
                ltype = self._binop_type(b, ltype, rtype)
            label = join(label, rlabel)
        return ltype, label

    def _binop_type(self, e: ast.BinOp, ltype, rtype) -> ast.Type:
        sig = BINOP_TYPES.get(e.op)
        if sig is None:  # == and != compare equal primitive types
            if not _types_match(ltype, rtype) or isinstance(ltype, ast.ClassType):
                self.add("E-TYPE", e.span, f"cannot compare {ltype} and {rtype} with '{e.op}'")
            return ast.BOOLEAN
        want, result = sig
        for side in ((ltype, e.left), (rtype, e.right)):
            if not _types_match(side[0], want):
                self.add("E-TYPE", side[1].span,
                         f"operator '{e.op}' expects {want} operands, got {side[0]}")
        return result


def decide(records: list[FlowRecord], hierarchy: PrincipalHierarchy,
           authority: frozenset[PrincipalId]) -> list[Diagnostic]:
    """Turn one method's flow records into diagnostics, under ``hierarchy`` (the
    program's one hierarchy, in which class parameters are rigid principals) and
    the ``authority`` the method holds: the only code that reads a hierarchy.

    A record fails unless its source flows to its target; it then yields its
    code and message.  A record with a pc is assignment-shaped, and its
    message names the target: the pc is joined into the source and is blamed
    (``E-FLOW-IMPLICIT``) when the value alone would flow.  A ``declassify``
    record relabels its source to its target: weakening a confidentiality
    policy needs the authority of its owner, and integrity must not grow.
    A source (pc joined in) that is ``{}`` or the target itself passes every
    test under every hierarchy, so such a record is passed unread.  The body
    pass already drops such a record where it would make it, and once a
    loop's pc is solved; the test stays here, so that a direct caller gets
    the same verdict.
    An ``authority`` record's source is a principal the method must act for.
    """
    out, held = [], hierarchy.mask(authority)
    for code, source, pc, target, span, message in records:
        if code == "authority":
            if not held & hierarchy.actor_mask(source):
                out.append(Diagnostic("E-AUTH-CLAIM", span, message))
            continue
        value = source
        if pc is not None:
            source = join(source, pc)
        if source is EMPTY or source is target:
            continue
        if code == "declassify":
            failed = []
            if not flows_to(source, target, hierarchy):
                failed += [("E-DECL-AUTH", f"declassification requires the authority of '{owner}'")
                           for owner in conf_owners(source)
                           if not held & hierarchy.actor_mask(owner)]
            if (interpret_label(source, hierarchy).writers
                    & ~interpret_label(target, hierarchy).writers):
                failed.append(("E-DECL-INTEG", "declassification must not strengthen integrity"))
        elif flows_to(source, target, hierarchy):
            continue
        elif pc is None:
            failed = [(code, message)]
        else:
            failed = [("E-FLOW-IMPLICIT", f"implicit flow into {message}: the program counter "
                                          "label does not flow to the target label")
                      if flows_to(value, target, hierarchy)
                      else (code, f"value does not flow to {message}")]
        out += [Diagnostic(c, span, m, label_to_text(source), label_to_text(target))
                for c, m in failed]
    return out


def check_program(program: ast.Program, trust: TrustConfig | None = None) -> list[Diagnostic]:
    """Check a parsed program; the returned diagnostics are ordered by span.

    Raises UnknownPrincipal when the trust configuration names delegation
    endpoints the program does not declare.
    """
    return Checker(program, trust).run()
