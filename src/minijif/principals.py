"""Principals and the acts-for delegation hierarchy.

A principal is its name: an identifier, or the text of the distinguished
top (``*``) or bottom (``_``) principal.  The hierarchy is a closed world: the
universe is exactly the declared names plus top and bottom.  Hierarchies are
interned like labels: operations return new ones, and equal hierarchies are
one object.  Each computes once who acts for each principal: acts-for and
policy members read those sets.
"""

from __future__ import annotations

import re
from functools import cached_property

from .interned import Interned

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class InvalidIdentifier(ValueError):
    """Raised when a principal name violates the identifier grammar."""


class UnknownPrincipal(ValueError):
    """Raised when a delegation endpoint is neither declared nor top/bottom."""


PrincipalId = str  # an identifier, TOP or BOTTOM
Edge = tuple[PrincipalId, PrincipalId]  # (superior, inferior)

TOP = "*"
BOTTOM = "_"
_TOP_ONLY = frozenset({TOP})
_RANK = {TOP: 1, BOTTOM: 2}


def principal_sort_key(p: PrincipalId) -> tuple[int, str]:
    """Identifiers alphabetically, then top, then bottom."""
    return (_RANK.get(p, 0), p)


def _check_name(name: str) -> None:
    if not IDENT_RE.match(name or ""):
        raise InvalidIdentifier(f"invalid principal name: {name!r}")


class PrincipalHierarchy(Interned):
    """Declared principals plus delegation edges (superior acts for inferior)."""

    # no __slots__: the cached properties below live in the instance __dict__
    __match_args__ = ("declared", "delegations")

    def __new__(cls, declared: frozenset[PrincipalId] = frozenset(),
                delegations: frozenset[Edge] = frozenset()):
        return super().__new__(cls, declared, delegations)

    @cached_property
    def universe(self) -> frozenset[PrincipalId]:
        return self.declared | {TOP, BOTTOM}

    @cached_property
    def _actors(self) -> dict[PrincipalId, frozenset[PrincipalId]]:
        # Who acts for each q: closure over the reversed explicit edges plus the
        # top/bottom axiom edges; exotic declarations such as p >= * are honored
        # transitively, otherwise the relation would not stay a preorder.
        universe = self.universe
        rev: dict[PrincipalId, set[PrincipalId]] = {q: {TOP} for q in universe}
        rev[BOTTOM] |= universe
        for sup, inf in self.delegations:
            rev[inf].add(sup)
        closure: dict[PrincipalId, frozenset[PrincipalId]] = {}
        for start in universe:
            seen = {start}
            todo = [start]
            while todo:
                for nxt in rev[todo.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            closure[start] = frozenset(seen)
        return closure

    def declare(self, *names: str) -> "PrincipalHierarchy":
        """Add named principals in one step; idempotent on re-declaration."""
        for name in names:
            _check_name(name)
        return PrincipalHierarchy(self.declared.union(names), self.delegations)

    def check_edge(self, superior: PrincipalId, inferior: PrincipalId) -> "Edge":
        """The edge ``superior >= inferior``, or UnknownPrincipal for an undeclared end."""
        for p in (superior, inferior):
            if p not in self.universe:
                raise UnknownPrincipal(f"undeclared principal: {p}")
        return superior, inferior

    def delegate(self, *edges: "Edge") -> "PrincipalHierarchy":
        """Record in one step that each edge's superior acts for its inferior."""
        return PrincipalHierarchy(self.declared, self.delegations.union(
            self.check_edge(*e) for e in edges))

    def actors(self, q: PrincipalId) -> frozenset[PrincipalId]:
        """Principals of the universe that act for ``q``; only top for an outsider."""
        return self._actors.get(q, _TOP_ONLY)

    def acts_for(self, p: PrincipalId, q: PrincipalId) -> bool:
        """Total query: reflexive-transitive delegation with top/bottom axioms."""
        if p == q or p == TOP or q == BOTTOM:
            return True
        return p in self.actors(q)


class HierarchyParseError(ValueError):
    """Malformed line in the hierarchy text format."""


def principal_from_token(tok: str) -> PrincipalId:
    """`*` is top, `_` is bottom, anything else must be an identifier."""
    if tok not in (TOP, BOTTOM):
        _check_name(tok)
    return tok


def parse_hierarchy(text: str) -> PrincipalHierarchy:
    """Parse the line-oriented format: ``principal <name>`` and
    ``actsfor <superior> >= <inferior>`` lines, ``#`` comments."""
    names: list[str] = []
    edges: list[tuple[int, Edge]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "principal" and len(parts) == 2:
                _check_name(parts[1])
                names.append(parts[1])
            elif parts[0] == "actsfor" and len(parts) == 4 and parts[2] == ">=":
                edge = (principal_from_token(parts[1]), principal_from_token(parts[3]))
                edges.append((lineno, edge))
            else:
                raise HierarchyParseError(f"line {lineno}: cannot parse {line!r}")
        except InvalidIdentifier as exc:
            raise HierarchyParseError(f"line {lineno}: {exc}") from exc
    # declarations first, so actsfor lines may precede their principals
    h = PrincipalHierarchy().declare(*names)
    for lineno, edge in edges:
        try:
            h.check_edge(*edge)
        except UnknownPrincipal as exc:
            raise HierarchyParseError(f"line {lineno}: {exc}") from exc
    return h.delegate(*(edge for _, edge in edges))

