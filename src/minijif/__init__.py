"""MiniJif: a static information-flow checker with decentralized security labels."""

from .checker import TrustConfig, check_program
from .diagnostics import Diagnostic
from .labels import (
    ConfPolicy,
    EMPTY,
    IntegPolicy,
    Label,
    SemLabel,
    equivalent,
    flows_to,
    interpret_conf,
    interpret_integ,
    interpret_label,
    join,
    label_to_text,
    meet,
)
from .parser import ParseError, parse_label, parse_program
from .principals import (
    BOTTOM,
    Named,
    PrincipalHierarchy,
    TOP,
    acts_for,
    add_delegation,
    all_principals,
    declare_principal,
)

__version__ = "0.1.0"

# The evaluator and the pretty printer are not needed to check a program, so
# they load on first use: importing ``minijif.cli`` does not import them.
_LAZY = {"evaluate_program": "interp", "pretty_print": "pretty"}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BOTTOM",
    "ConfPolicy",
    "Diagnostic",
    "EMPTY",
    "IntegPolicy",
    "Label",
    "Named",
    "ParseError",
    "PrincipalHierarchy",
    "SemLabel",
    "TOP",
    "TrustConfig",
    "acts_for",
    "add_delegation",
    "all_principals",
    "check_program",
    "declare_principal",
    "equivalent",
    "evaluate_program",
    "flows_to",
    "interpret_conf",
    "interpret_integ",
    "interpret_label",
    "join",
    "label_to_text",
    "meet",
    "parse_label",
    "parse_program",
    "pretty_print",
]
