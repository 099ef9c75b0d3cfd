"""Tokenizer for MiniJif source and label syntax."""

from __future__ import annotations

import re
from dataclasses import dataclass

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

# ASCII classes on purpose: \d and \w would also accept non-ASCII digits and letters.
# A string without its closing quote stops before the newline, EOF or bad escape.
_TOKEN = re.compile(
    r'(?P<SKIP>[ \t\r]+|//[^\n]*)|(?P<NEWLINE>\n)|(?P<INT>[0-9]+)'
    r'|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)'
    r'|(?P<STRING>"(?:[^"\\\n]|\\[nt"\\])*(?P<close>")?)'
    r'|(?P<SYM>' + "|".join(map(re.escape, SYMBOLS)) + ")"
)
_ESCAPE = re.compile(r"\\(.)")


class LexError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, STRING, EOF, a keyword, or a symbol
    text: str
    span: Span
    value: object = None  # decoded payload for INT/STRING


def tokenize(source: str, file: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0

    def span(start: int, end: int) -> Span:
        return Span(file, (line, start - line_start + 1), (line, end - line_start + 1))

    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            raise LexError(span(pos, pos + 1), f"unexpected character {source[pos]!r}")
        kind, text, end = m.lastgroup, m.group(), m.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, end
        elif kind != "SKIP":
            value: object = None
            if kind == "STRING":
                if m["close"] is None:
                    if source.startswith("\\", end):
                        raise LexError(span(pos, end + 1), "bad string escape")
                    raise LexError(span(pos, end), "unterminated string literal")
                value = _ESCAPE.sub(lambda e: ESCAPES[e[1]], text[1:-1])
            elif kind == "INT":
                value = int(text)
            elif kind == "SYM" or text in KEYWORDS:
                kind = text
            tokens.append(Token(kind, text, span(pos, end), value))
        pos = end
    tokens.append(Token("EOF", "", span(pos, pos)))
    return tokens
