"""Source positions shared by the lexer, parser, and diagnostics."""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    """Half-open source region; line/column are 1-based, end is exclusive."""

    file: str
    start: tuple[int, int]
    end: tuple[int, int]

    def __str__(self) -> str:
        return f"{self.file}:{self.start[0]}:{self.start[1]}"
