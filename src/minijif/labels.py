"""Security labels: owner-based policies combined by join (``;``) and meet.

A label is a syntactic tree.  A join is the union of two sets of ``;``
components, so ``join`` keeps labels join-normal: a left-nested join spine
whose components are distinct, in first-occurrence order.  All flow decisions
go through a label's semantic interpretation under a principal hierarchy,
which is a pair of effective reader/writer sets over the closed universe.
The empty label is the distinguished public-trusted bottom element: readable
by everyone, writable only by the top principal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .principals import PrincipalHierarchy, PrincipalId, TOP


@dataclass(frozen=True)
class ConfPolicy:
    """``owner -> r1,...``: the owner permits the listed principals to read."""

    owner: PrincipalId
    readers: tuple[PrincipalId, ...]

    def __post_init__(self) -> None:
        if not self.readers:
            raise ValueError("confidentiality policy needs at least one reader")


@dataclass(frozen=True)
class IntegPolicy:
    """``owner <- w1,...``: the owner permits the listed principals to write."""

    owner: PrincipalId
    writers: tuple[PrincipalId, ...]

    def __post_init__(self) -> None:
        if not self.writers:
            raise ValueError("integrity policy needs at least one writer")


@dataclass(frozen=True)
class JoinNode:
    left: "Label"
    right: "Label"


@dataclass(frozen=True)
class MeetNode:
    left: "Label"
    right: "Label"


@dataclass(frozen=True)
class LabelVar:
    """Label variable from the generic begin-label form; recognized by the
    grammar but rejected by the checker as unsupported."""

    name: str


@dataclass(frozen=True)
class EmptyLabel:
    """The public-trusted label, written ``{}``."""


EMPTY: Label = EmptyLabel()

Label = Union[ConfPolicy, IntegPolicy, JoinNode, MeetNode, LabelVar, EmptyLabel]


@dataclass(frozen=True)
class SemLabel:
    """A label's meaning: effective reader and writer sets.

    Top is always a member of both sets (it acts for every owner).
    """

    readers: frozenset[PrincipalId]
    writers: frozenset[PrincipalId]


def _members(owner: PrincipalId, listed: tuple[PrincipalId, ...],
             h: PrincipalHierarchy) -> frozenset[PrincipalId]:
    """Anyone acting for the owner or for a listed principal."""
    return h.actors(owner).union(*map(h.actors, listed))


def interpret_conf(p: ConfPolicy, h: PrincipalHierarchy) -> frozenset[PrincipalId]:
    """Principals that may read: anyone acting for the owner or for a listed reader."""
    return _members(p.owner, p.readers, h)


def interpret_integ(p: IntegPolicy, h: PrincipalHierarchy) -> frozenset[PrincipalId]:
    """Principals that may write: anyone acting for the owner or for a listed writer."""
    return _members(p.owner, p.writers, h)


# labels and hierarchies are immutable values, so interpretation is cacheable
@lru_cache(maxsize=1 << 16)
def interpret_label(label: Label, h: PrincipalHierarchy) -> SemLabel:
    everyone = h.all_principals()
    match label:
        case EmptyLabel():
            return SemLabel(everyone, frozenset({TOP}))
        case ConfPolicy():
            return SemLabel(interpret_conf(label, h), everyone)
        case IntegPolicy():
            return SemLabel(everyone, interpret_integ(label, h))
        case JoinNode(left, right):
            a, b = interpret_label(left, h), interpret_label(right, h)
            return SemLabel(a.readers & b.readers, a.writers | b.writers)
        case MeetNode(left, right):
            a, b = interpret_label(left, h), interpret_label(right, h)
            return SemLabel(a.readers | b.readers, a.writers & b.writers)
        case LabelVar(name):
            raise ValueError(f"label variable {name!r} has no interpretation")
    raise TypeError(f"not a label: {label!r}")


def flows_to(l1: Label, l2: Label, h: PrincipalHierarchy) -> bool:
    """The flow order: the destination may only shrink readers and admit more writers."""
    a, b = interpret_label(l1, h), interpret_label(l2, h)
    return b.readers <= a.readers and a.writers <= b.writers


def equivalent(l1: Label, l2: Label, h: PrincipalHierarchy) -> bool:
    return flows_to(l1, l2, h) and flows_to(l2, l1, h)


def join(l1: Label, l2: Label) -> Label:
    """Least upper bound: appends ``l2``'s components missing from ``l1``."""
    if l1 == l2 or isinstance(l2, EmptyLabel):
        return l1
    if isinstance(l1, EmptyLabel):
        return l2
    seen = set(_flatten(l1, JoinNode))
    for c in _flatten(l2, JoinNode):
        if c not in seen:
            seen.add(c)
            l1 = JoinNode(l1, c)
    return l1


def meet(l1: Label, l2: Label) -> Label:
    if l1 == l2:
        return l1
    return MeetNode(l1, l2)


def join_all(labels: "list[Label] | tuple[Label, ...]") -> Label:
    out: Label = EMPTY
    for l in labels:
        out = join(out, l)
    return out


def _flatten(label: Label, through: "type | tuple[type, ...]") -> list[Label]:
    """Components of the tree left to right, descending through ``through`` nodes; ``{}`` has none."""
    out, stack = [], [label]
    while stack:
        node = stack.pop()
        if isinstance(node, through):
            stack += (node.right, node.left)
        elif not isinstance(node, EmptyLabel):
            out.append(node)
    return out


def leaves(label: Label) -> list[Label]:
    """Policies and label variables of the tree, left to right."""
    return _flatten(label, (JoinNode, MeetNode))


def conf_owners(label: Label) -> list[PrincipalId]:
    """Owners of all confidentiality policies in the tree, in syntactic order."""
    return list(dict.fromkeys(p.owner for p in leaves(label) if isinstance(p, ConfPolicy)))


def _policy_text(label: Label) -> str:
    match label:
        case ConfPolicy(owner, readers):
            return f"{owner}->" + ",".join(map(str, readers))
        case IntegPolicy(owner, writers):
            return f"{owner}<-" + ",".join(map(str, writers))
        case LabelVar(name):
            return name
        case MeetNode(left, right):
            return f"{_meet_operand_text(left)} meet {_meet_operand_text(right)}"
    raise TypeError(f"not printable as a component: {label!r}")


def _meet_operand_text(label: Label) -> str:
    # a join under a meet is not expressible in the base grammar; parenthesize
    if isinstance(label, (JoinNode, EmptyLabel)):
        return "(" + "; ".join(map(_policy_text, _flatten(label, JoinNode))) + ")"
    return _policy_text(label)


def label_to_text(label: Label) -> str:
    """Canonical surface syntax, echoing the programmer's notation."""
    return "{" + "; ".join(map(_policy_text, _flatten(label, JoinNode))) + "}"
