"""Principals and the acts-for delegation hierarchy.

The hierarchy is a closed world: the universe is exactly the declared
principals plus the distinguished top (``*``) and bottom (``_``) principals.
All values are immutable, and principals are interned; operations return new
hierarchies.  Each computes once who acts for each principal: acts-for and
policy members read those sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property

from .interned import Interned

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class InvalidIdentifier(ValueError):
    """Raised when a principal name violates the identifier grammar."""


class UnknownPrincipal(ValueError):
    """Raised when a delegation endpoint is neither declared nor top/bottom."""


# Principals are interned (one object each); each hashes by its text, so the
# order of a set of principals does not depend on where the objects live.

class Named(Interned):
    __slots__ = __match_args__ = ("name",)

    def __hash__(self) -> int:
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


class Top(Interned):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash("*")

    def __str__(self) -> str:
        return "*"


class Bottom(Interned):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash("_")

    def __str__(self) -> str:
        return "_"


PrincipalId = Named | Top | Bottom
Edge = tuple[PrincipalId, PrincipalId]  # (superior, inferior)

TOP = Top()
BOTTOM = Bottom()
_TOP_ONLY = frozenset({TOP})


def principal_sort_key(p: PrincipalId) -> tuple[int, str]:
    """Named principals alphabetically, then top, then bottom."""
    return (0, p.name) if isinstance(p, Named) else (1 if p is TOP else 2, "")


def _check_name(name: str) -> None:
    if not IDENT_RE.match(name or ""):
        raise InvalidIdentifier(f"invalid principal name: {name!r}")


@dataclass(frozen=True)
class PrincipalHierarchy:
    """Declared principals plus delegation edges (superior acts for inferior)."""

    declared: frozenset[Named] = field(default_factory=frozenset)
    delegations: frozenset[Edge] = field(default_factory=frozenset)

    @cached_property
    def _universe(self) -> frozenset[PrincipalId]:
        return frozenset(self.declared) | {TOP, BOTTOM}

    @cached_property
    def _actors(self) -> dict[PrincipalId, frozenset[PrincipalId]]:
        # Who acts for each q: closure over the reversed explicit edges plus the
        # top/bottom axiom edges; exotic declarations such as p >= * are honored
        # transitively, otherwise the relation would not stay a preorder.
        universe = self._universe
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

    def all_principals(self) -> frozenset[PrincipalId]:
        return self._universe

    def declare(self, *names: str) -> "PrincipalHierarchy":
        """Add named principals in one step; idempotent on re-declaration."""
        for name in names:
            _check_name(name)
        declared = self.declared.union(map(Named, names))
        return self if len(declared) == len(self.declared) else replace(self, declared=declared)

    def check_edge(self, superior: PrincipalId, inferior: PrincipalId) -> "Edge":
        """The edge ``superior >= inferior``, or UnknownPrincipal for an undeclared end."""
        for p in (superior, inferior):
            if isinstance(p, Named) and p not in self.declared:
                raise UnknownPrincipal(f"undeclared principal: {p.name}")
        return superior, inferior

    def delegate(self, *edges: "Edge") -> "PrincipalHierarchy":
        """Record in one step that each edge's superior acts for its inferior."""
        return replace(self, delegations=self.delegations.union(
            self.check_edge(*e) for e in edges))

    def actors(self, q: PrincipalId) -> frozenset[PrincipalId]:
        """Principals of the universe that act for ``q``; only top for an outsider."""
        return self._actors.get(q, _TOP_ONLY)

    def acts_for(self, p: PrincipalId, q: PrincipalId) -> bool:
        """Total query: reflexive-transitive delegation with top/bottom axioms."""
        if p == q or isinstance(p, Top) or isinstance(q, Bottom):
            return True
        return p in self.actors(q)


class HierarchyParseError(ValueError):
    """Malformed line in the hierarchy text format."""


_PR_TOKEN = {"*": TOP, "_": BOTTOM}


def principal_from_token(tok: str) -> PrincipalId:
    """`*` is top, `_` is bottom, anything else must be an identifier."""
    if tok in _PR_TOKEN:
        return _PR_TOKEN[tok]
    _check_name(tok)
    return Named(tok)


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


def format_hierarchy(h: PrincipalHierarchy) -> str:
    lines = [f"principal {p.name}" for p in sorted(h.declared, key=principal_sort_key)]
    lines += [
        f"actsfor {sup} >= {inf}"
        for sup, inf in sorted(h.delegations, key=lambda e: (principal_sort_key(e[0]), principal_sort_key(e[1])))
    ]
    return "\n".join(lines) + ("\n" if lines else "")
