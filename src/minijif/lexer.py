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

# One pass over the whole source. Each match skips the blanks and a `//` comment
# before a token; without a token it ends the source or stops at a character no
# token starts. No token spans a newline, nor does a comment.
# ASCII classes on purpose: \d and \w would also accept non-ASCII digits and letters.
# A string without its closing quote stops before the end of line or a bad escape.
_TOKEN = re.compile(
    r'[ \t\r]*(?://[^\n]*)?(?:([A-Za-z][A-Za-z0-9_]*|'
    + "|".join(map(re.escape, SYMBOLS)) + r')|(\n)|([0-9]+)'
    r'|("(?:[^"\\\n]|\\[nt"\\])*(")?))?'
)
_WORD, _NEWLINE, _INT, _STRING, _CLOSE = range(1, 6)  # m.lastindex values
_ESCAPE = re.compile(r"\\(.)")
MAX_INT_DIGITS = 4300  # int() refuses longer digit strings on CPython 3.10.7 and later
_KINDS = {word: word for word in (*KEYWORDS, *SYMBOLS)}  # any other word is an IDENT


class LexError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class Token(NamedTuple):
    """A view of one token, built on demand by ``Tokens[i]``."""

    kind: str  # IDENT, INT, STRING, EOF, a keyword, or a symbol
    text: str
    value: object  # decoded payload for INT/STRING, else None
    span: Span


class Tokens:
    """Tokens as parallel lists, EOF last: token ``i`` is a ``kinds[i]`` with source
    text ``texts[i]`` from ``(lines[i], cols[i])`` to ``(lines[i], cols[i] + len(texts[i]))``."""

    __slots__ = ("kinds", "texts", "lines", "cols", "file")

    def __init__(self, kinds, texts, lines, cols, file: str):
        self.kinds, self.texts, self.lines, self.cols, self.file = kinds, texts, lines, cols, file

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: "int | slice") -> "Token | list[Token]":
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        kind, text = self.kinds[i], self.texts[i]
        value = int(text) if kind == "INT" else unescape(text) if kind == "STRING" else None
        return Token(kind, text, value, self.span(i))

    def span(self, i: int) -> Span:
        line, col = self.lines[i], self.cols[i]
        return Span(self.file, (line, col), (line, col + len(self.texts[i])))


def unescape(text: str) -> str:
    """The value of a STRING token: its text without the quotes, escapes decoded."""
    return _ESCAPE.sub(lambda e: ESCAPES[e[1]], text[1:-1])


def tokenize(source: str, file: str = "<string>") -> Tokens:
    tokens = Tokens([], [], [], [], file)
    kinds, texts, lines, cols = tokens.kinds, tokens.texts, tokens.lines, tokens.cols
    line, base = 1, -1  # a column is an index minus base, the index before the line
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        if group is None:  # no token: the end of the source, or a stray character
            if m.end() < len(source):
                col = m.end() - base
                raise LexError(Span(file, (line, col), (line, col + 1)),
                               f"unexpected character {source[m.end()]!r}")
            break
        if group == _NEWLINE:
            line, base = line + 1, m.end() - 1
            continue
        start, end = m.span(group)
        text = source[start:end]
        if group == _WORD:
            kinds.append(_KINDS.get(text, "IDENT"))
        elif group == _INT:
            if end - start > MAX_INT_DIGITS:
                raise LexError(Span(file, (line, start - base), (line, end - base)),
                               "integer literal too long")
            kinds.append("INT")
        elif m[_CLOSE] is None:  # a bad escape's span runs through its backslash
            bad = source.startswith("\\", end)
            raise LexError(Span(file, (line, start - base), (line, end - base + bad)),
                           "bad string escape" if bad else "unterminated string literal")
        else:
            kinds.append("STRING")
        texts.append(text)
        lines.append(line)
        cols.append(start - base)
    kinds.append("EOF")
    texts.append("")
    lines.append(line)
    cols.append(len(source) - base)
    return tokens
