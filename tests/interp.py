"""Deterministic evaluator for class-free programs; test harness oracle.

Supports ints, booleans, and strings with if/while under a global loop-fuel
budget.  Uninitialized locals take their value from the ``inputs`` mapping
(falling back to a zero value), which is how the differential harness feeds
secrets in.  ``declassify`` evaluates to its operand.
"""

from __future__ import annotations

from minijif import syntax as ast

DEFAULT_FUEL = 10_000


class EvalTypeError(Exception):
    pass


class FuelExhausted(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


def _zero(t: ast.Type):
    match t:
        case ast.INT:
            return 0
        case ast.BOOLEAN:
            return False
        case ast.STRING:
            return ""
    raise EvalTypeError(f"cannot evaluate a variable of type {t}")


def _type_name(v) -> str:
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, int):
        return "int"
    return "String"


def _check_type(v, t: ast.Type, what: str) -> None:
    want = {ast.INT: int, ast.BOOLEAN: bool, ast.STRING: str}.get(t)
    if want is None:
        raise EvalTypeError(f"cannot evaluate a variable of type {t}")
    if not isinstance(v, want) or (want is int and isinstance(v, bool)):
        raise EvalTypeError(f"{what} expected {t}, got {_type_name(v)}")


class _Evaluator:
    def __init__(self, inputs: dict, fuel: int):
        self.inputs = inputs
        self.fuel = fuel
        self.scopes: list[dict] = [{}]

    def _lookup_scope(self, name: str) -> dict:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope
        raise EvalTypeError(f"undefined variable '{name}'")

    def run_block(self, block: ast.Block, new_scope: bool = True) -> None:
        if new_scope:
            self.scopes.append({})
        try:
            for s in block.stmts:
                self.run_stmt(s)
        finally:
            if new_scope:
                self.scopes.pop()

    def run_stmt(self, s: ast.Stmt) -> None:
        match s:
            case ast.VarDecl(typ, _, name, init, _):
                if init is not None:
                    value = self.eval(init)
                else:
                    value = self.inputs.get(name, _zero(typ))
                _check_type(value, typ, f"'{name}'")
                self.scopes[-1][name] = value
            case ast.Assign(ast.Var(name, _), value_expr, _):
                self._lookup_scope(name)[name] = self.eval(value_expr)
            case ast.Assign():
                raise EvalTypeError("field assignment is not supported in evaluation")
            case ast.If(cond, then, orelse, _):
                c = self.eval(cond)
                _check_type(c, ast.BOOLEAN, "if condition")
                if c:
                    self.run_block(then)
                elif orelse is not None:
                    self.run_block(orelse)
            case ast.While(cond, body, _):
                while True:
                    c = self.eval(cond)
                    _check_type(c, ast.BOOLEAN, "while condition")
                    if not c:
                        break
                    if self.fuel <= 0:
                        raise FuelExhausted("loop fuel exhausted")
                    self.fuel -= 1
                    self.run_block(body)
            case ast.Return(value, _):
                raise _Return(None if value is None else self.eval(value))
            case ast.ExprStmt(expr, _):
                self.eval(expr)

    def eval(self, e: ast.Expr):
        match e:
            case ast.IntLit(value, _) | ast.StrLit(value, _) | ast.BoolLit(value, _):
                return value
            case ast.Var(name, _):
                return self._lookup_scope(name)[name]
            case ast.Declassify(inner, _, _, _):
                return self.eval(inner)
            case ast.Builtin(name, args, _):
                return self._builtin(name, [self.eval(a) for a in args])
            case ast.BinOp(op, left, right, _):
                return self._binop(op, left, right)
            case _:
                raise EvalTypeError(f"{type(e).__name__} is not supported in evaluation")

    def _builtin(self, name: str, args: list):
        if name == "substring" and len(args) == 3:
            s, i, j = args
            _check_type(s, ast.STRING, "substring")
            lo = min(max(i, 0), len(s))
            hi = min(max(j, lo), len(s))
            return s[lo:hi]
        if name == "concat" and len(args) == 2:
            for v in args:
                _check_type(v, ast.STRING, "concat")
            return args[0] + args[1]
        if name == "length" and len(args) == 1:
            _check_type(args[0], ast.STRING, "length")
            return len(args[0])
        raise EvalTypeError(f"unknown function '{name}'")

    def _binop(self, op: str, left_expr: ast.Expr, right_expr: ast.Expr):
        if op in ("&&", "||"):
            left = self.eval(left_expr)
            _check_type(left, ast.BOOLEAN, f"'{op}' operand")
            # short-circuit; the checker joins both operand labels into the result
            # and checks the right operand under the left operand's label
            if op == "&&" and not left:
                return False
            if op == "||" and left:
                return True
            right = self.eval(right_expr)
            _check_type(right, ast.BOOLEAN, f"'{op}' operand")
            return right
        left, right = self.eval(left_expr), self.eval(right_expr)
        if op in ("==", "!="):
            if _type_name(left) != _type_name(right):
                raise EvalTypeError(f"'{op}' on mixed types")
            return (left == right) if op == "==" else (left != right)
        for v in (left, right):
            _check_type(v, ast.INT, f"'{op}' operand")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            # total division, truncating toward zero
            return 0 if right == 0 else int(left / right)
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right


def _entry_method(program: ast.Program) -> ast.MethodDecl:
    methods = [
        m
        for d in program.decls
        if isinstance(d, ast.ClassDecl)
        for m in d.methods
    ]
    mains = [m for m in methods if m.name == "main"]
    if len(mains) == 1:
        return mains[0]
    if len(methods) == 1:
        return methods[0]
    raise EvalTypeError("evaluation needs a unique 'main' (or a single method)")


def evaluate_program(
    program: ast.Program, inputs: "dict | None" = None, fuel: int = DEFAULT_FUEL
) -> dict:
    """Run the entry method; returns its top-level variables (plus ``__return__``
    when a value was returned)."""
    ev = _Evaluator(dict(inputs or {}), fuel)
    entry = _entry_method(program)
    if entry.params:
        raise EvalTypeError("the entry method cannot take parameters")
    outputs: dict = {}
    try:
        ev.run_block(entry.body, new_scope=False)
    except _Return as r:
        if r.value is not None:
            outputs["__return__"] = r.value
    outputs.update(ev.scopes[0])
    return outputs
