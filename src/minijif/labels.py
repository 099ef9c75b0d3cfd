"""Security labels: owner-based policies combined by join (``;``) and meet.

A label is a syntactic tree of interned nodes: building a node equal to a live
one returns that one, so labels compare by identity and hash in O(1) however
deep they are.  A join is the union of two sets of ``;`` components, so
``join`` keeps labels join-normal: a left-nested join spine whose components
are distinct, in first-occurrence order.  ``join``, ``label_to_text`` and
``interpret_label`` are pure functions of interned values, memoized in
bounded caches.  All flow decisions go through a label's semantic
interpretation under a principal hierarchy, which is a pair of effective
reader/writer sets over the closed universe, as the hierarchy's bit masks.
A policy's members, whoever acts for its owner or for a listed principal, are
one C-level OR over the hierarchy's actor masks.  An undeclared principal is
acted for by top alone, even when some principal acts for top.
The empty label is the distinguished public-trusted bottom element: readable
by everyone, writable only by the top principal.
"""

from __future__ import annotations

from functools import lru_cache
from weakref import WeakKeyDictionary

from .interned import Interned
from .principals import PrincipalHierarchy, PrincipalId
from .span import Record


class ConfPolicy(Interned):
    """``owner -> r1,...``: the owner permits the listed principals to read."""

    __slots__ = __match_args__ = ("owner", "readers")

    def __new__(cls, owner: PrincipalId, readers: tuple[PrincipalId, ...]):
        if not readers:
            raise ValueError("confidentiality policy needs at least one reader")
        return super().__new__(cls, owner, readers)


class IntegPolicy(Interned):
    """``owner <- w1,...``: the owner permits the listed principals to write."""

    __slots__ = __match_args__ = ("owner", "writers")

    def __new__(cls, owner: PrincipalId, writers: tuple[PrincipalId, ...]):
        if not writers:
            raise ValueError("integrity policy needs at least one writer")
        return super().__new__(cls, owner, writers)


class JoinNode(Interned):
    __slots__ = __match_args__ = ("left", "right")


class MeetNode(Interned):
    __slots__ = __match_args__ = ("left", "right")


class LabelVar(Interned):
    """Label variable from the generic begin-label form; recognized by the
    grammar but rejected by the checker as unsupported."""

    __slots__ = __match_args__ = ("name",)


class EmptyLabel(Interned):
    """The public-trusted label, written ``{}``."""

    __slots__ = ()


EMPTY: Label = EmptyLabel()

Label = ConfPolicy | IntegPolicy | JoinNode | MeetNode | LabelVar | EmptyLabel


class SemLabel(Record):
    """A label's meaning: effective reader and writer sets, as its hierarchy's masks.

    Top is always a member of both sets (it acts for every owner).
    """

    readers: int
    writers: int


_new = tuple.__new__  # builds a SemLabel without a Python frame for Record.__new__


# labels and hierarchies are immutable values, so interpretation is cacheable
@lru_cache(maxsize=1 << 16)
def interpret_label(label: Label, h: PrincipalHierarchy) -> SemLabel:
    kind, everyone = type(label), h.everyone
    if kind is ConfPolicy:
        return _new(SemLabel, (h.policy_members(label.owner, label.readers), everyone))
    if kind is IntegPolicy:
        return _new(SemLabel, (everyone, h.policy_members(label.owner, label.writers)))
    if kind is JoinNode or kind is EmptyLabel:
        # fold the `;` components onto the meaning of {}: a loop, since
        # the labels the checker builds may have any number of them
        readers, writers = everyone, h.top_bit
        for c in _flatten(label, JoinNode):
            sem = interpret_label(c, h)
            readers &= sem.readers
            writers |= sem.writers
        return _new(SemLabel, (readers, writers))
    if kind is MeetNode:
        a, b = interpret_label(label.left, h), interpret_label(label.right, h)
        return _new(SemLabel, (a.readers | b.readers, a.writers & b.writers))
    if kind is LabelVar:
        raise ValueError(f"label variable {label.name!r} has no interpretation")
    raise TypeError(f"not a label: {label!r}")


def flows_to(l1: Label, l2: Label, h: PrincipalHierarchy) -> bool:
    """The flow order: the destination may only shrink readers and admit more writers."""
    a, b = interpret_label(l1, h), interpret_label(l2, h)
    return not (b.readers & ~a.readers or a.writers & ~b.writers)


# For each label `join` builds, a dict from each of its components to its
# position, shared with the labels it extends: a label of n components owns
# the entries below n, and entries are only added at position len(dict).
_positions: "WeakKeyDictionary[Label, tuple[dict[Label, int], int]]" = WeakKeyDictionary()


def join(l1: Label, l2: Label) -> Label:
    """Least upper bound: appends ``l2``'s components missing from ``l1``.

    A join with itself or with ``{}`` is answered here, and never enters the memo."""
    if l1 is l2 or l2 is EMPTY:
        return l1
    if l1 is EMPTY:
        return l2
    return _join(l1, l2)


@lru_cache(maxsize=1 << 16)
def _join(l1: Label, l2: Label) -> Label:
    positions, n = _positions.get(l1) or (None, 0)
    if positions is None:
        positions = {c: i for i, c in enumerate(dict.fromkeys(_flatten(l1, JoinNode)))}
        n = len(positions)
    for c in _flatten(l2, JoinNode):
        if positions.get(c, n) < n:
            continue
        if len(positions) != n:  # another label extends l1: take its own copy
            positions = dict(zip(positions, range(n)))
        positions[c] = n
        n += 1
        l1 = JoinNode(l1, c)
        _positions[l1] = positions, n
    return l1


join.cache_info, join.cache_clear = _join.cache_info, _join.cache_clear


def meet(l1: Label, l2: Label) -> Label:
    if l1 is l2:
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
            return f"{owner}->" + ",".join(readers)
        case IntegPolicy(owner, writers):
            return f"{owner}<-" + ",".join(writers)
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


@lru_cache(maxsize=1 << 16)
def label_to_text(label: Label) -> str:
    """Canonical surface syntax, echoing the programmer's notation."""
    return "{" + "; ".join(map(_policy_text, _flatten(label, JoinNode))) + "}"


def clear_program_memos() -> None:
    """Empty the memos that keep a checked program's labels and hierarchies alive."""
    interpret_label.cache_clear()
    label_to_text.cache_clear()
