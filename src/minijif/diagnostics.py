"""Checker diagnostics: stable codes, human rendering, and JSON rendering."""

from __future__ import annotations

from _json import encode_basestring_ascii as _quote

from .span import Record, Span

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


class Diagnostic(Record):
    code: str
    span: Span
    message: str
    from_label: str | None  # labels pretty-printed
    to_label: str | None

    def __new__(cls, code: str, span: Span, message: str,
                from_label: str | None = None, to_label: str | None = None):
        if code not in CATALOG:
            raise ValueError(f"unknown diagnostic code {code!r}")
        return tuple.__new__(cls, (code, span, message, from_label, to_label))

    def sort_key(self) -> tuple:
        return (*self.span, self.code, self.message)  # by file, start, end, code, message


def render_human(d: Diagnostic) -> str:
    line = f"{d.span}: error {d.code}: {d.message}"
    if d.from_label is not None and d.to_label is not None:
        line += f"\n    from label: {d.from_label}\n    to label:   {d.to_label}"
    return line


# The layout of ``json.dumps([...], indent=2)``, written directly: ``json`` takes
# milliseconds to import, and with an indent its encoder runs in Python.  Each
# string goes through the C function that ``json.dumps`` applies to strings.
_JSON_ITEM = """  {
    "code": %s,
    "span": {
      "file": %s,
      "start": [
        %d,
        %d
      ],
      "end": [
        %d,
        %d
      ]
    },
    "from": %s,
    "to": %s,
    "message": %s
  }"""


def render_json(diagnostics: list[Diagnostic]) -> str:
    if not diagnostics:
        return "[]"
    return "[\n" + ",\n".join(_JSON_ITEM % (
        _quote(d.code), _quote(d.span[0]), *d.span[1:],
        "null" if d.from_label is None else _quote(d.from_label),
        "null" if d.to_label is None else _quote(d.to_label),
        _quote(d.message)) for d in diagnostics) + "\n]"
