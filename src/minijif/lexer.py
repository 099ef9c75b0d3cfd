"""Tokenizer for MiniJif source and label syntax."""

from __future__ import annotations

import re
from typing import NamedTuple

from .span import Span

KEYWORDS = {
    "principal", "actsfor", "class", "authority", "where", "meet", "to",
    "declassify", "new", "if", "else", "while", "return", "true", "false",
    "int", "boolean", "String", "void",
}

# longest match first
SYMBOLS = [
    "->", "<-", "&&", "||", "==", "!=", "<=", ">=",
    "{", "}", "[", "]", "(", ")", ";", ",", ".", ":",
    "=", "<", ">", "+", "-", "*", "/", "_",
]

ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# Source is matched one line at a time: no token spans a newline, and a `//`
# comment ends at one. Each match skips the blanks before a token, so a match
# without a token group ends the line or stops at a character no token starts.
# ASCII classes on purpose: \d and \w would also accept non-ASCII digits and letters.
# A string without its closing quote stops before the end of line or a bad escape.
_TOKEN = re.compile(
    r'[ \t\r]*(?:(?P<COMMENT>//)|(?P<INT>[0-9]+)'
    r'|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)'
    r'|(?P<STRING>"(?:[^"\\]|\\[nt"\\])*(?P<close>")?)'
    r'|(?P<SYM>' + "|".join(map(re.escape, SYMBOLS)) + "))?"
)
_ESCAPE = re.compile(r"\\(.)")


class LexError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class Token(NamedTuple):
    """One token; its span is computed on demand from ``line`` and ``col``."""

    kind: str  # IDENT, INT, STRING, EOF, a keyword, or a symbol
    text: str
    value: object  # decoded payload for INT/STRING, else None
    file: str
    line: int
    col: int

    @property
    def start(self) -> tuple[int, int]:
        return (self.line, self.col)

    @property
    def span(self) -> Span:
        # exact, since no token crosses a line
        return Span(self.file, (self.line, self.col), (self.line, self.col + len(self.text)))


def tokenize(source: str, file: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__
    lines = source.split("\n")
    for line_no, line in enumerate(lines, 1):
        for m in _TOKEN.finditer(line):
            kind = m.lastgroup
            if kind is None:  # blanks only: end of line or a stray character
                col = m.end()
                if col < len(line):
                    raise LexError(Span(file, (line_no, col + 1), (line_no, col + 2)),
                                   f"unexpected character {line[col]!r}")
                break
            if kind == "COMMENT":
                break
            start, end = m.span(kind)
            text = line[start:end]
            value: object = None
            if kind == "SYM" or (kind == "IDENT" and text in KEYWORDS):
                kind = text
            elif kind == "INT":
                value = int(text)
            elif kind == "STRING":
                if m["close"] is None:
                    if line.startswith("\\", end):
                        raise LexError(Span(file, (line_no, start + 1), (line_no, end + 2)),
                                       "bad string escape")
                    raise LexError(Span(file, (line_no, start + 1), (line_no, end + 1)),
                                   "unterminated string literal")
                value = _ESCAPE.sub(lambda e: ESCAPES[e[1]], text[1:-1])
            append(new(Token, (kind, text, value, file, line_no, start + 1)))
    append(new(Token, ("EOF", "", None, file, len(lines), len(lines[-1]) + 1)))
    return tokens
