"""Independent brute-force oracles for the test suite.

These deliberately re-derive everything from first principles (Warshall
closure over raw delegation edges, set comprehensions over the universe)
rather than calling the production query paths, so they can arbitrate them.
``strip_spans`` and ``ast_equal`` compare ASTs modulo spans, for the parser's
round-trip checks; ``span_contains`` checks that spans nest.  ``equivalent``
and ``format_hierarchy`` are helpers that only the tests need: label
equivalence under the production order, and the inverse of
``parse_hierarchy``; ``actors`` and ``decoded`` name the members of masks.
``oracle_tokenize`` is the lexer as it was before it built parallel lists:
one ``Token`` tuple per token, one line at a time; ``token_views`` reads the
lexer's parallel lists back as such ``Token``s.
``RewalkingChecker`` is the checker as it was before a loop's pc was solved
at the loop's end: it walks a ``while`` again until a pass leaves the pc
unchanged and keeps only the last pass's diagnostics and records.
``to_json_obj`` is a diagnostic as the JSON object that ``render_json``
writes, for ``json.dumps`` to render as the reference.
``oracle_decide`` is ``decide`` by enumeration, with every record's labels
interpreted: no record is passed unread.
"""

from __future__ import annotations

import itertools
import random
import re

from minijif import syntax as ast
from minijif.checker import Checker, MethodContext, _types_match
from minijif.diagnostics import Diagnostic
from minijif.labels import (
    ConfPolicy,
    EmptyLabel,
    IntegPolicy,
    JoinNode,
    Label,
    MeetNode,
    SemLabel,
    conf_owners,
    flows_to,
    join,
    label_to_text,
)
from minijif.principals import (
    BOTTOM,
    PrincipalHierarchy,
    PrincipalId,
    TOP,
    principal_sort_key,
)
from minijif.lexer import ESCAPES, KEYWORDS, SYMBOLS, LexError, Tokens, unescape
from minijif.span import Record, Span


def oracle_closure(h: PrincipalHierarchy) -> set[tuple[PrincipalId, PrincipalId]]:
    """Reflexive-transitive closure of the delegation edges plus the
    top/bottom axiom edges, by Warshall's algorithm."""
    nodes = set(h.declared) | {TOP, BOTTOM}
    pairs = {(p, p) for p in nodes}
    pairs |= {(TOP, q) for q in nodes}
    pairs |= {(p, BOTTOM) for p in nodes}
    pairs |= set(h.delegations)
    for k in nodes:
        for i in nodes:
            if (i, k) not in pairs:
                continue
            for j in nodes:
                if (k, j) in pairs:
                    pairs.add((i, j))
    return pairs


def oracle_acts_for(h: PrincipalHierarchy, p: PrincipalId, q: PrincipalId) -> bool:
    if p == q or p == TOP or q == BOTTOM:
        return True
    return (p, q) in oracle_closure(h)


class SemOracle:
    """Reader/writer sets by direct enumeration; closure computed once."""

    def __init__(self, h: PrincipalHierarchy):
        self.universe = frozenset(h.declared) | {TOP, BOTTOM}
        self.pairs = oracle_closure(h)

    def geq(self, p: PrincipalId, q: PrincipalId) -> bool:
        return (p, q) in self.pairs

    def policy_members(self, owner: PrincipalId, listed) -> frozenset[PrincipalId]:
        return frozenset(
            q
            for q in self.universe
            if self.geq(q, owner) or any(self.geq(q, r) for r in listed)
        )

    def sem(self, label: Label) -> tuple[frozenset, frozenset]:
        if isinstance(label, EmptyLabel):
            return self.universe, frozenset({TOP})
        if isinstance(label, ConfPolicy):
            return self.policy_members(label.owner, label.readers), self.universe
        if isinstance(label, IntegPolicy):
            return self.universe, self.policy_members(label.owner, label.writers)
        ra, wa = self.sem(label.left)
        rb, wb = self.sem(label.right)
        if isinstance(label, JoinNode):
            return ra & rb, wa | wb
        if isinstance(label, MeetNode):
            return ra | rb, wa & wb
        raise TypeError(label)

    def flows(self, l1: Label, l2: Label) -> bool:
        r1, w1 = self.sem(l1)
        r2, w2 = self.sem(l2)
        return r2 <= r1 and w1 <= w2


def actors(h: PrincipalHierarchy, q: PrincipalId) -> frozenset[PrincipalId]:
    """The principals of ``h.actor_mask(q)``: who acts for ``q``."""
    return frozenset(h.decode(h.actor_mask(q)))


def decoded(sem: SemLabel, h: PrincipalHierarchy) -> tuple[frozenset, frozenset]:
    """A semantic label's reader and writer masks as sets of principals."""
    return frozenset(h.decode(sem.readers)), frozenset(h.decode(sem.writers))


def oracle_sem(label: Label, h: PrincipalHierarchy) -> tuple[frozenset, frozenset]:
    return SemOracle(h).sem(label)


def oracle_flows(l1: Label, l2: Label, h: PrincipalHierarchy) -> bool:
    return SemOracle(h).flows(l1, l2)


def oracle_decide(records: list, h: PrincipalHierarchy,
                  authority: frozenset[PrincipalId]) -> list[Diagnostic]:
    """``checker.decide`` over the enumerated reader and writer sets."""
    sem = SemOracle(h)

    def held(p: PrincipalId) -> bool:
        return any(sem.geq(a, p) for a in authority)

    out = []
    for code, source, pc, target, span, message in records:
        if code == "authority":
            if not held(source):
                out.append(Diagnostic("E-AUTH-CLAIM", span, message))
            continue
        joined = source if pc is None else join(source, pc)
        if code == "declassify":
            failed = [] if sem.flows(source, target) else [
                ("E-DECL-AUTH", f"declassification requires the authority of '{owner}'")
                for owner in conf_owners(source) if not held(owner)]
            if sem.sem(source)[1] - sem.sem(target)[1]:
                failed.append(("E-DECL-INTEG", "declassification must not strengthen integrity"))
        elif sem.flows(joined, target):
            continue
        elif pc is None:
            failed = [(code, message)]
        elif sem.flows(source, target):
            failed = [("E-FLOW-IMPLICIT", f"implicit flow into {message}: the program counter "
                                          "label does not flow to the target label")]
        else:
            failed = [(code, f"value does not flow to {message}")]
        out += [Diagnostic(c, span, m, label_to_text(joined), label_to_text(target))
                for c, m in failed]
    return out


def equivalent(l1: Label, l2: Label, h: PrincipalHierarchy) -> bool:
    return flows_to(l1, l2, h) and flows_to(l2, l1, h)


def format_hierarchy(h: PrincipalHierarchy) -> str:
    lines = [f"principal {p}" for p in sorted(h.declared)]
    lines += [
        f"actsfor {sup} >= {inf}"
        for sup, inf in sorted(h.delegations, key=lambda e: (principal_sort_key(e[0]), principal_sort_key(e[1])))
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ------------------------------------------------------------- generators

def hierarchy_from_edges(names, edges) -> PrincipalHierarchy:
    return PrincipalHierarchy().declare(*names).delegate(*edges)


def all_edge_subsets(names, edge_pool=None):
    """Every hierarchy over `names` built from subsets of the given edge pool
    (default: all directed edges between distinct named principals)."""
    if edge_pool is None:
        edge_pool = [(p, q) for p in names for q in names if p != q]
    for k in range(len(edge_pool) + 1):
        for combo in itertools.combinations(edge_pool, k):
            yield hierarchy_from_edges(names, combo)


def random_hierarchy(rng: random.Random, max_principals: int = 5,
                     acyclic: bool = False, allow_distinguished: bool = True,
                     min_principals: int = 0):
    n = rng.randint(min_principals, max_principals)
    names = [f"P{i}" for i in range(n)]
    endpoints: list[PrincipalId] = list(names)
    if allow_distinguished and rng.random() < 0.3:
        endpoints += [TOP, BOTTOM]
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        if not endpoints:
            break
        sup, inf = rng.choice(endpoints), rng.choice(endpoints)
        if acyclic and sup not in (TOP, BOTTOM) and inf not in (TOP, BOTTOM):
            # orient by index so named-to-named edges cannot form cycles
            if names.index(sup) >= names.index(inf):
                continue
        if sup != inf:
            edges.append((sup, inf))
    return hierarchy_from_edges(names, edges)


def random_principal(rng: random.Random, pool) -> PrincipalId:
    return rng.choice(pool)


def random_policy(rng: random.Random, pool) -> Label:
    owner = random_principal(rng, pool)
    members = tuple(
        random_principal(rng, pool) for _ in range(rng.randint(1, 2))
    )
    if rng.random() < 0.5:
        return ConfPolicy(owner, members)
    return IntegPolicy(owner, members)


def random_label(rng: random.Random, pool, depth: int = 3) -> Label:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return random_policy(rng, pool)
    if roll < 0.55:
        return EmptyLabel()
    node = JoinNode if rng.random() < 0.6 else MeetNode
    return node(random_label(rng, pool, depth - 1), random_label(rng, pool, depth - 1))


def strip_spans(node: object) -> tuple:
    """Span-free skeleton of an AST, for comparison modulo spans.

    The skeleton is a flat preorder tuple: each node becomes a
    ``(type name, field count)`` marker followed by its fields, each plain
    tuple a ``("tuple", length)`` marker followed by its items.  Every other
    value is a leaf, so the skeleton is unambiguous, and neither building nor
    comparing it recurses, however deep the program nests.
    """
    out: list = []
    todo = [node]
    while todo:
        x = todo.pop()
        if not isinstance(x, tuple):
            out.append(x)
            continue
        fields = getattr(x, "_fields", None)
        if fields is None:
            items = x
            out.append(("tuple", len(x)))
        else:
            items = [v for f, v in zip(fields, x) if f != "span"]
            out.append((type(x).__name__, len(items)))
        todo.extend(reversed(items))
    return tuple(out)


def ast_equal(a: object, b: object) -> bool:
    """Structural equality ignoring spans."""
    return strip_spans(a) == strip_spans(b)


def span_contains(outer: Span, inner: Span) -> bool:
    """Whether ``inner`` lies within ``outer`` (same file)."""
    return outer.start <= inner.start and inner.end <= outer.end


# ------------------------------------------------------------------ lexer

_TOKEN = re.compile(
    r'[ \t\r]*(?:(?P<COMMENT>//)|(?P<INT>[0-9]+)'
    r'|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)'
    r'|(?P<STRING>"(?:[^"\\]|\\[nt"\\])*(?P<close>")?)'
    r'|(?P<SYM>' + "|".join(map(re.escape, SYMBOLS)) + "))?"
)
_ESCAPE = re.compile(r"\\(.)")


class Token(Record):
    """One token, as ``oracle_tokenize`` and ``token_views`` give it."""

    kind: str  # IDENT, INT, STRING, EOF, a keyword, or a symbol
    text: str
    value: object  # decoded payload for INT/STRING, else None
    span: Span


def token_views(tokens: Tokens) -> list[Token]:
    """Each token of the lexer's parallel lists as a ``Token``."""
    views = []
    for i, (kind, text) in enumerate(zip(tokens.kinds, tokens.texts)):
        value = int(text) if kind == "INT" else unescape(text) if kind == "STRING" else None
        views.append(Token(kind, text, value, tokens.span(i)))
    return views


def oracle_tokenize(source: str, file: str = "<string>") -> list[Token]:
    """The reference lexer: each line of ``source`` matched on its own."""
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
            span = Span(file, (line_no, start + 1), (line_no, end + 1))
            append(new(Token, (kind, text, value, span)))
    eof = (len(lines), len(lines[-1]) + 1)
    append(new(Token, ("EOF", "", None, Span(file, eof, eof))))
    return tokens


class RewalkingChecker(Checker):
    """The body pass with the re-walking ``while`` fixpoint."""

    def check_branch(self, ctx: MethodContext, s: "ast.If | ast.While") -> None:
        saved_pc, returned = ctx.pc, ctx.returned
        mark, records = len(self.diagnostics), len(ctx.records)
        while True:
            start = ctx.pc
            ctype, clabel = self.check_expr(ctx, s.cond)
            if not _types_match(ctype, ast.BOOLEAN):
                self.add("E-TYPE", s.cond.span, f"condition must be boolean, got {ctype}")
            ctx.pc, ctx.returned = join(start, clabel), False
            if isinstance(s, ast.If):
                self._check_block(ctx, s.then)
                if s.orelse is not None:
                    self._check_block(ctx, s.orelse)
                break
            # A loop is one fixpoint: the condition and the body run again
            # only if the last condition held and no return fired, so each
            # pass starts at the pc the last one ended with, until a pass adds
            # no component to it (`join` then returns the pc itself); only the
            # last pass's diagnostics and records are kept.  A pass whose
            # condition raised the pc skips the body, checked at it next pass.
            if ctx.pc is start:
                self._check_block(ctx, s.body)
                if ctx.pc is start:
                    break
            del self.diagnostics[mark:], ctx.records[records:]
        # a body that may return keeps the raised pc (see the module docstring)
        if not ctx.returned:
            ctx.pc = saved_pc
        ctx.returned |= returned


# ------------------------------------------------------------------ diagnostics

def to_json_obj(d: Diagnostic) -> dict:
    return {
        "code": d.code,
        "span": {
            "file": d.span.file,
            "start": list(d.span.start),
            "end": list(d.span.end),
        },
        "from": d.from_label,
        "to": d.to_label,
        "message": d.message,
    }
