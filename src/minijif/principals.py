"""Principals and the acts-for delegation hierarchy.

A principal is its name: an identifier, or the text of the distinguished
top (``*``) or bottom (``_``) principal.  The hierarchy is a closed world: the
universe is exactly the declared names plus top and bottom.  Hierarchies are
interned like labels: operations return new ones, and equal hierarchies are
one object.  Each computes once who acts for each principal, as a bit mask
over its numbered universe; only ``decode`` names the members of a mask.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import cached_property, reduce
from itertools import repeat
from operator import or_

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
    def _index(self) -> dict[PrincipalId, int]:
        # the numbering: a function of the value alone, and decodes in query order
        return {p: i for i, p in enumerate(sorted(self.universe, key=principal_sort_key))}

    @cached_property
    def _actor_masks(self) -> dict[PrincipalId, int]:
        # Who acts for each q: q and whoever acts for one who directly acts for q,
        # over the declared and the axiom edges, so exotic ones such as p >= * hold
        # transitively.  Tarjan's algorithm, on its own stack for long chains, ends
        # a component after all it reaches: its mask is one OR per edge.
        index = self._index
        up = {q: [TOP] for q in index}
        up[BOTTOM] = list(index)  # so the walk from bottom reaches everyone
        for sup, inf in self.delegations:
            up[inf].append(sup)
        masks, low, stack = {}, {BOTTOM: 0}, [BOTTOM]
        work = [(BOTTOM, 0, 0, iter(up[BOTTOM]))]  # (q, its number, its stack index, next ups)
        while work:
            q, num, at, todo = work[-1]
            for p in todo:
                if p not in low:
                    low[p] = len(low)
                    work.append((p, low[p], len(stack), iter(up[p])))
                    stack.append(p)
                    break
                if p not in masks and low[p] < low[q]:  # p is on the stack: in q's component
                    low[q] = low[p]
            else:
                work.pop()
                if work and low[q] < low[work[-1][0]]:
                    low[work[-1][0]] = low[q]
                if low[q] == num:  # q roots a component: it is stack[at:]
                    component, mask = stack[at:], 0
                    del stack[at:]
                    for c in component:
                        mask |= 1 << index[c]
                        for p in up[c]:
                            mask |= masks.get(p, 0)
                    masks.update(dict.fromkeys(component, mask))
        return masks

    @cached_property
    def everyone(self) -> int:
        """The whole universe, as a mask: everyone acts for bottom."""
        return self._actor_masks[BOTTOM]

    @cached_property
    def top_bit(self) -> int:
        """Top alone, as a mask: who acts for an undeclared principal.  Not
        ``actor_mask(TOP)``, which also holds whoever has a ``p >= *`` edge."""
        return 1 << self._index[TOP]

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

    def mask(self, principals: Iterable[PrincipalId]) -> int:
        """The members of the universe among ``principals``, as a mask."""
        return reduce(or_, (1 << self._index[p] for p in principals if p in self._index), 0)

    def decode(self, mask: int) -> list[PrincipalId]:
        """The principals of a mask, in ``principal_sort_key`` order."""
        return [p for p, bit in zip(self._index, bin(mask)[:1:-1]) if bit == "1"]

    def actor_mask(self, q: PrincipalId) -> int:
        """Who acts for ``q``, as a mask; only top for an outsider."""
        return self._actor_masks.get(q, self.top_bit)

    def policy_members(self, owner: PrincipalId, listed: Iterable[PrincipalId]) -> int:
        """Who acts for ``owner`` or for any ``listed`` principal, as a mask: one
        C-level OR over the actor masks, with top alone for an undeclared one."""
        masks, outsider = self._actor_masks, self.top_bit
        return reduce(or_, map(masks.get, listed, repeat(outsider)), masks.get(owner, outsider))

    def acts_for(self, p: PrincipalId, q: PrincipalId) -> bool:
        """Total query: reflexive delegation with top/bottom axioms, transitive
        among declared principals.  Only top and ``q`` itself act for an
        undeclared ``q``, even when a declared principal acts for top."""
        # top needs no test of its own: every actor mask, and top_bit, holds top's bit
        return p == q or q == BOTTOM or bool(self.mask((p,)) & self.actor_mask(q))


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
    return PrincipalHierarchy(h.declared, frozenset(edge for _, edge in edges))

