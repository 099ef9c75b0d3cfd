"""Canonical source rendering; parse(pretty(parse(p))) equals parse(p) modulo spans."""

from __future__ import annotations

from minijif.labels import Label, label_to_text
from minijif import syntax as ast

_ATOM = 10

_STR_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def _string_text(value: str) -> str:
    return '"' + "".join(_STR_ESCAPES.get(c, c) for c in value) + '"'


def _label_opt(label: "Label | None") -> str:
    return "" if label is None else label_to_text(label)


def expr_to_text(e: ast.Expr, prec: int = 0) -> str:
    if isinstance(e, ast.BinOp):
        return _binop_text(e, prec)
    match e:
        case ast.IntLit(value, _):
            return str(value)
        case ast.StrLit(value, _):
            return _string_text(value)
        case ast.BoolLit(value, _):
            return "true" if value else "false"
        case ast.Var(name, _):
            return name
        case ast.FieldAccess(obj, name, _):
            return f"{expr_to_text(obj, _ATOM)}.{name}"
        case ast.Call(receiver, method, args, _):
            inner = ", ".join(expr_to_text(a) for a in args)
            return f"{expr_to_text(receiver, _ATOM)}.{method}({inner})"
        case ast.Builtin(name, args, _):
            return f"{name}(" + ", ".join(expr_to_text(a) for a in args) + ")"
        case ast.New(class_name, principal_args, args, _):
            pargs = "[" + ", ".join(map(str, principal_args)) + "]" if principal_args else ""
            return f"new {class_name}{pargs}(" + ", ".join(expr_to_text(a) for a in args) + ")"
        case ast.Declassify(inner, from_label, to_label, _):
            return (
                f"declassify({expr_to_text(inner)}, "
                f"{label_to_text(from_label)} to {label_to_text(to_label)})"
            )
    raise TypeError(f"not an expression: {e!r}")


def _binop_text(e: ast.BinOp, prec: int) -> str:
    """Left-nested chains such as ``1 + 2 + 3`` are walked iteratively."""
    spine = [e]
    while isinstance(spine[-1].left, ast.BinOp):
        spine.append(spine[-1].left)
    # each operator's context is its parent's level; the outermost one's is ``prec``
    contexts = [prec] + [ast.BINARY_PRECEDENCE[b.op] for b in spine[:-1]]
    text = expr_to_text(spine[-1].left, ast.BINARY_PRECEDENCE[spine[-1].op])
    for b, context in zip(reversed(spine), reversed(contexts)):
        level = ast.BINARY_PRECEDENCE[b.op]
        text = f"{text} {b.op} {expr_to_text(b.right, level + 1)}"
        if level < context:
            text = f"({text})"
    return text


def _stmt_lines(s: ast.Stmt, indent: int) -> list[str]:
    pad = "    " * indent
    match s:
        case ast.VarDecl(typ, label, name, init, _):
            head = f"{pad}{typ}{_label_opt(label)} {name}"
            return [head + (f" = {expr_to_text(init)};" if init is not None else ";")]
        case ast.Assign(target, value, _):
            return [f"{pad}{expr_to_text(target)} = {expr_to_text(value)};"]
        case ast.Return(value, _):
            return [f"{pad}return;" if value is None else f"{pad}return {expr_to_text(value)};"]
        case ast.ExprStmt(expr, _):
            return [f"{pad}{expr_to_text(expr)};"]
        case ast.While(cond, body, _):
            return [f"{pad}while ({expr_to_text(cond)}) {{", *_block_lines(body, indent + 1), f"{pad}}}"]
        case ast.If():
            return _if_lines(s, indent)
    raise TypeError(f"not a statement: {s!r}")


def _if_lines(s: ast.If, indent: int) -> list[str]:
    pad = "    " * indent
    lines = [f"{pad}if ({expr_to_text(s.cond)}) {{", *_block_lines(s.then, indent + 1)]
    orelse = s.orelse
    while orelse is not None:
        if len(orelse.stmts) == 1 and isinstance(orelse.stmts[0], ast.If):
            nested = orelse.stmts[0]
            lines += [f"{pad}}} else if ({expr_to_text(nested.cond)}) {{",
                      *_block_lines(nested.then, indent + 1)]
            orelse = nested.orelse
        else:
            lines += [f"{pad}}} else {{", *_block_lines(orelse, indent + 1)]
            orelse = None
    lines.append(f"{pad}}}")
    return lines


def _block_lines(b: ast.Block, indent: int) -> list[str]:
    out: list[str] = []
    for s in b.stmts:
        out += _stmt_lines(s, indent)
    return out


def _authority_text(authority: tuple) -> str:
    return "authority(" + ", ".join(map(str, authority)) + ")"


def _method_lines(m: ast.MethodDecl, indent: int) -> list[str]:
    pad = "    " * indent
    begin = _label_opt(m.begin_label)
    params = ", ".join(f"{p.type}{_label_opt(p.label)} {p.name}" for p in m.params)
    head = f"{pad}{m.return_type}{_label_opt(m.return_label)} {m.name}{begin}({params})"
    if m.end_label is not None:
        head += f" : {label_to_text(m.end_label)}"
    if m.authority:
        head += f" where {_authority_text(m.authority)}"
    return [head + " {", *_block_lines(m.body, indent + 1), f"{pad}}}"]


def _class_lines(c: ast.ClassDecl) -> list[str]:
    head = f"class {c.name}"
    if c.principal_params:
        head += "[" + ", ".join(f"principal {p}" for p in c.principal_params) + "]"
    if c.authority:
        head += f" {_authority_text(c.authority)}"
    lines = [head + " {"]
    for f in c.fields:
        lines.append(f"    {f.type}{_label_opt(f.label)} {f.name};")
    for m in c.methods:
        if len(lines) > 1:
            lines.append("")
        lines += _method_lines(m, 1)
    lines.append("}")
    return lines


def pretty_print(program: ast.Program) -> str:
    """Canonical text for a program; empty program renders as empty text."""
    chunks: list[str] = []
    for d in program.decls:
        match d:
            case ast.PrincipalDecl(name, _):
                chunks.append(f"principal {name};")
            case ast.ActsForDecl(sup, inf, _):
                chunks.append(f"actsfor {sup} >= {inf};")
            case ast.ClassDecl():
                chunks.append("\n".join(_class_lines(d)))
    if not chunks:
        return ""
    out: list[str] = []
    for i, chunk in enumerate(chunks):
        if i and ("\n" in chunk or "\n" in chunks[i - 1]):
            out.append("")
        out.append(chunk)
    return "\n".join(out) + "\n"
