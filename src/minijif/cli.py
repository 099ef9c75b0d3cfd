"""Command-line interface: check, query, and corpus subcommands.

Exit codes: 0 success (no diagnostics / query answered), 1 diagnostics or
corpus mismatches, 2 usage, IO, or parse-level failure, or an internal error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .checker import TrustConfig, check_program
from .diagnostics import Diagnostic, render_human, render_json
from .labels import flows_to, interpret_label, join, label_to_text, meet
from .lexer import MAX_INT_DIGITS, LexError
from .parser import ParseError, parse_label, parse_program
from .principals import (
    HierarchyParseError,
    InvalidIdentifier,
    PrincipalHierarchy,
    UnknownPrincipal,
    parse_hierarchy,
    principal_from_token,
    principal_sort_key,
)


class _UsageError(Exception):
    pass


def _load_hierarchy(path: "str | None") -> PrincipalHierarchy:
    if path is None:
        return PrincipalHierarchy()
    try:
        return parse_hierarchy(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read hierarchy file: {exc}") from exc
    except HierarchyParseError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _principal_set_text(principals) -> str:
    return "{" + ", ".join(sorted(principals, key=principal_sort_key)) + "}"


def cmd_check(args: argparse.Namespace) -> int:
    if args.max_errors is not None and args.max_errors < 0:
        raise _UsageError(f"--max-errors must be non-negative, got {args.max_errors}")
    trust = TrustConfig(
        grant_main_authority=not args.no_trust_main,
        # sorted, so that the first undeclared endpoint reported does not vary
        extra_delegations=tuple(sorted(_load_hierarchy(args.hierarchy).delegations,
                                       key=lambda e: tuple(map(principal_sort_key, e)))),
    )
    diagnostics: list[Diagnostic] = []
    failed = False
    for path in sorted(args.files):
        try:
            source = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed = True
            continue
        try:
            program = parse_program(source, file=path)
        except (LexError, ParseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed = True
            continue
        try:
            diagnostics += check_program(program, trust)
        except UnknownPrincipal as exc:
            raise _UsageError(f"--hierarchy: {exc} (not declared by {path})") from exc
    shown = diagnostics if args.max_errors is None else diagnostics[: args.max_errors]
    if args.json:
        print(render_json(shown))
    else:
        for d in shown:
            print(render_human(d))
        if len(shown) < len(diagnostics):
            print(f"... {len(diagnostics) - len(shown)} more error(s) suppressed")
    if failed:
        return 2
    return 1 if diagnostics else 0


def cmd_query(args: argparse.Namespace) -> int:
    h = _load_hierarchy(args.hierarchy)
    try:
        if args.subcommand == "actsfor":
            p = principal_from_token(args.args[0])
            q = principal_from_token(args.args[1])
            print("true" if h.acts_for(p, q) else "false")
        elif args.subcommand == "leq":
            l1, l2 = (parse_label(a) for a in args.args)
            print("true" if flows_to(l1, l2, h) else "false")
        elif args.subcommand in ("join", "meet"):
            l1, l2 = (parse_label(a) for a in args.args)
            op = join if args.subcommand == "join" else meet
            print(label_to_text(op(l1, l2)))
        else:  # readers / writers
            sem = interpret_label(parse_label(args.args[0]), h)
            members = sem.readers if args.subcommand == "readers" else sem.writers
            print(_principal_set_text(members))
    except (LexError, ParseError, InvalidIdentifier, ValueError) as exc:
        raise _UsageError(str(exc)) from exc
    return 0


def _read_expectations(path: Path) -> list[tuple[str, int]]:
    """Sidecar lines of ``<code> <line>``; a missing sidecar means clean."""
    if not path.exists():
        return []
    expected = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not parts[1].isdecimal() or len(parts[1]) > MAX_INT_DIGITS:
            raise _UsageError(f"{path}:{lineno}: expected '<code> <line>'")
        expected.append((parts[0], int(parts[1])))
    return sorted(expected)


def cmd_corpus(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise _UsageError(f"not a directory: {root}")
    files = sorted(root.rglob("*.mjif"))
    if not files:
        print(f"warning: no .mjif files under {root}")
        return 0
    failures = 0
    for path in files:
        try:
            expected = _read_expectations(path.with_suffix(".expect"))
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"FAIL {path}: cannot read: {exc}")
            return 2
        try:
            program = parse_program(source, file=str(path))
            diagnostics = check_program(program)
        except (LexError, ParseError) as exc:
            print(f"FAIL {path}: parse error: {exc}")
            failures += 1
            continue
        actual = sorted((d.code, d.span.start[0]) for d in diagnostics)
        if actual == expected:
            print(f"ok   {path}")
        else:
            failures += 1
            print(f"FAIL {path}")
            print(f"    expected: {expected}")
            print(f"    actual:   {actual}")
    print(f"{len(files) - failures}/{len(files)} corpus files matched")
    return 1 if failures else 0


_ARITY = {"actsfor": 2, "leq": 2, "join": 2, "meet": 2, "readers": 1, "writers": 1}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minijif",
        description="Static information-flow checker for MiniJif programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check .mjif source files")
    check.add_argument("files", nargs="+", metavar="FILE")
    check.add_argument("--json", action="store_true", help="machine-readable diagnostics")
    check.add_argument("--hierarchy", metavar="FILE",
                       help="extra acts-for delegations to assume")
    check.add_argument("--no-trust-main", action="store_true",
                       help="do not grant 'main' its authority claims")
    check.add_argument("--max-errors", type=int, default=None, metavar="N")

    query = sub.add_parser("query", help="label-algebra and hierarchy queries")
    query.add_argument("--hierarchy", metavar="FILE")
    query.add_argument("subcommand", choices=list(_ARITY))
    query.add_argument("args", nargs="+")

    corpus = sub.add_parser("corpus", help="run .mjif files against .expect sidecars")
    corpus.add_argument("dir")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    # Checking builds only acyclic data (tokens, spans, AST nodes, labels),
    # which reference counting frees; the cyclic collector would only rescan
    # it again and again while it grows.  Callers in the same process get
    # their collector state back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "query":
            want = _ARITY[args.subcommand]
            if len(args.args) != want:
                raise _UsageError(f"query {args.subcommand} takes {want} argument(s)")
            return cmd_query(args)
        return cmd_corpus(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: exit 1 means diagnostics or corpus mismatches only
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
