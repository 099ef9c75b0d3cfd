"""Checker diagnostics: stable codes, human rendering, and JSON rendering."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .span import Span

# Stable catalog; codes are part of the external interface.
CATALOG = frozenset({
    "E-FLOW",          # explicit flow violation
    "E-FLOW-IMPLICIT", # flow violation caused by the program-counter label
    "E-PC-CALL",       # caller pc does not flow to the callee begin-label
    "E-PC-END",        # pc at a return does not flow to the end-label
    "E-DECL-FROM",     # declassified expression does not match the from-label
    "E-DECL-AUTH",     # missing authority for a declassified policy owner
    "E-DECL-INTEG",    # declassification strengthens integrity
    "E-AUTH-CLAIM",    # authority claimed without a grant (method claim or `new`)
    "E-UNDEF",         # unknown name (variable, field, class, principal)
    "E-TYPE",          # type mismatch or conflicting declaration
    "E-ARITY",         # wrong number of arguments
    "E-UNKNOWN-METHOD",# unknown method or builtin
    "E-UNSUPPORTED",   # recognized but unsupported feature (label variables)
})


class Diagnostic(NamedTuple("Diagnostic", [
        ("code", str), ("span", Span), ("message", str),
        ("from_label", Optional[str]), ("to_label", Optional[str])])):  # labels pretty-printed
    __slots__ = ()  # the catalog check needs __new__, which a NamedTuple body may not define

    def __new__(cls, code: str, span: Span, message: str,
                from_label: Optional[str] = None, to_label: Optional[str] = None):
        if code not in CATALOG:
            raise ValueError(f"unknown diagnostic code {code!r}")
        return super().__new__(cls, code, span, message, from_label, to_label)

    def sort_key(self) -> tuple:
        return (self.span.file, self.span.start, self.span.end, self.code, self.message)


def render_human(d: Diagnostic) -> str:
    line = f"{d.span}: error {d.code}: {d.message}"
    if d.from_label is not None and d.to_label is not None:
        line += f"\n    from label: {d.from_label}\n    to label:   {d.to_label}"
    return line


def to_json_obj(d: Diagnostic) -> dict:
    return {
        "code": d.code,
        "span": {
            "file": d.span.file,
            "start": list(d.span.start),
            "end": list(d.span.end),
        },
        "from": d.from_label,
        "to": d.to_label,
        "message": d.message,
    }


def render_json(diagnostics: list[Diagnostic]) -> str:
    import json  # only here: the import costs every other run milliseconds of start-up
    return json.dumps([to_json_obj(d) for d in diagnostics], indent=2)
