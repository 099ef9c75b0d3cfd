"""Tokenizer for MiniJif source and label syntax."""

from __future__ import annotations

import re

from .span import Record, Span

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

# One pass over the whole source. Each match skips the blanks before one piece,
# which group 1 holds: a `//` comment, a word, a symbol, digits, a closed string,
# or any other character, a newline among them. A keyword or symbol is its own
# kind; any other piece is classified by its first character. No piece spans a
# newline. The blanks are part of each match, not searched past: that is faster
# on indented code. ASCII classes on purpose: \d and \w would also accept
# non-ASCII digits and letters, which must be unexpected characters.
_STRING_START = r'"(?:[^"\\\n]|\\[nt"\\])*'  # stops before the end of line or a bad escape
_TOKEN = re.compile(
    r'[ \t\r]*(//[^\n]*|[A-Za-z][A-Za-z0-9_]*|'
    + "|".join(re.escape(s) for s in SYMBOLS if len(s) == 2)
    + "|[" + "".join(re.escape(s) for s in SYMBOLS if len(s) == 1) + "]"
    + r'|[0-9]+|' + _STRING_START + r'"|[^ \t\r])'
)
_OPEN_STRING = re.compile(_STRING_START)
_ESCAPE = re.compile(r"\\(.)")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
MAX_INT_DIGITS = 4300  # int() refuses longer digit strings on CPython 3.10.7 and later
_KINDS = {word: word for word in (*KEYWORDS, *SYMBOLS)}  # any other word is an IDENT


class LexError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class Token(Record):
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
    for m in _TOKEN.finditer(source):  # back to back: only trailing blanks match nothing
        text = m[1]
        kind = _KINDS.get(text)
        if kind is None:
            first = text[0]
            if first == "\n":
                line, base = line + 1, m.end() - 1
                continue
            if first in _LETTERS:
                kind = "IDENT"
            elif "0" <= first <= "9":
                if len(text) > MAX_INT_DIGITS:
                    start = m.start(1) - base
                    raise LexError(Span(file, (line, start), (line, start + len(text))),
                                   "integer literal too long")
                kind = "INT"
            elif first == '"' and len(text) > 1:
                kind = "STRING"
            elif first == "/":  # a comment
                continue
            else:  # a stray character, or the quote of a string that does not close
                start = m.start(1)
                if first != '"':
                    end, message = start + 1, f"unexpected character {first!r}"
                else:
                    end = _OPEN_STRING.match(source, start).end()
                    bad = source.startswith("\\", end)  # its span runs through the backslash
                    end += bad
                    message = "bad string escape" if bad else "unterminated string literal"
                raise LexError(Span(file, (line, start - base), (line, end - base)), message)
        kinds.append(kind)
        texts.append(text)
        lines.append(line)
        cols.append(m.start(1) - base)
    kinds.append("EOF")
    texts.append("")
    lines.append(line)
    cols.append(len(source) - base)
    return tokens
