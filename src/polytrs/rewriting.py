"""Q-restricted rewriting and exhaustive derivation-height oracles.

A rule applies at a position only if the instantiated arguments of its
left-hand side are normal forms of Q.  Q empty gives plain rewriting, Q equal
to the rule set gives innermost rewriting.

The oracles answer "how many (strict) steps can a derivation from t take" by
exploring the reachable term graph up to a depth budget and taking longest
paths over its strongly connected components.  They exist to cross-check the
proof machinery on small inputs.  Successors are found in one walk per term
and memoised; the tests keep the obvious definitions (each position addressed
from the root, the runtime table recomputed for every size) as references.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .terms import (
    App,
    Position,
    Symbol,
    SymbolKind,
    Term,
    Var,
    apply_subst,
    match_term,
    render,
    size as term_size,
    variables,
)


@dataclass(frozen=True)
class Rule:
    lhs: App
    rhs: Term
    label: str
    is_dp: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise ValueError("left-hand side must not be a variable")
        extra = set(variables(self.rhs)) - set(variables(self.lhs))
        if extra:
            raise ValueError(
                f"rule {self.label}: right-hand side introduces {sorted(extra)}"
            )

    def __str__(self) -> str:
        return f"{render(self.lhs)} -> {render(self.rhs)}"


def check_labels(rules: Iterable[Rule]) -> None:
    seen: set[str] = set()
    for r in rules:
        if r.label in seen:
            raise ValueError(f"duplicate rule label {r.label!r}")
        seen.add(r.label)


@functools.lru_cache(maxsize=64)
def _redex_memo(q: tuple[Rule, ...]) -> dict[Term, bool]:
    """Per-Q memo of _has_redex, cleared with the other functools caches."""
    return {}


def _has_redex(t: Term, q: tuple[Rule, ...]) -> bool:
    memo = _redex_memo(q)
    if len(memo) > 200_000:
        memo.clear()
    # post-order: a node is decided by its root match, else by its children
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        s, expanded = stack.pop()
        if s.__class__ is Var or s in memo:
            continue
        if expanded:
            memo[s] = any(a.__class__ is App and memo[a] for a in s.args)
        elif any(match_term(r.lhs, s) is not None for r in q):
            memo[s] = True
        else:
            stack.append((s, True))
            stack.extend((a, False) for a in s.args)
    return t.__class__ is App and memo[t]


def is_q_normal_form(t: Term, q: Sequence[Rule]) -> bool:
    """No left-hand side of q matches any subterm of t."""
    return not _has_redex(t, tuple(q))


def q_successors(
    t: Term, rules: Sequence[Rule], q: Sequence[Rule]
) -> tuple[tuple[Position, Rule, Term], ...]:
    """All one-step reducts of t, leftmost-outermost positions, rules in order.

    A rule fires at p only when its lhs matches and every argument of the
    matched instance is a normal form of q.
    """
    return _successors(t, tuple(rules), tuple(q))


@functools.lru_cache(maxsize=200_000)
def _successors(
    t: Term, rules: tuple[Rule, ...], q: tuple[Rule, ...]
) -> tuple[tuple[Position, Rule, Term], ...]:
    by_root: dict[Symbol, list[Rule]] = {}
    for rule in rules:
        by_root.setdefault(rule.lhs.sym, []).append(rule)
    out: list[tuple[Position, Rule, Term]] = []
    # preorder, each subterm with its position and the terms above it, so a
    # reduct is rebuilt along that path only
    stack: list[tuple[Term, Position, tuple[App, ...]]] = [(t, (), ())]
    while stack:
        sub, pos, above = stack.pop()
        if sub.__class__ is Var:
            continue
        for rule in by_root.get(sub.sym, ()):
            sigma = match_term(rule.lhs, sub)
            if sigma is None or any(_has_redex(a, q) for a in sub.args):
                continue
            reduct = apply_subst(rule.rhs, sigma)
            for parent, i in zip(reversed(above), reversed(pos)):
                args = parent.args
                reduct = App(parent.sym, args[: i - 1] + (reduct,) + args[i:])
            out.append((pos, rule, reduct))
        above += (sub,)
        for i in range(len(sub.args), 0, -1):
            stack.append((sub.args[i - 1], pos + (i,), above))
    return tuple(out)


@dataclass(frozen=True)
class OracleResult:
    """Exact(n): the maximum is n.  AtLeast(b): search truncated at budget b."""

    value: int
    exact: bool

    @classmethod
    def exactly(cls, n: int) -> "OracleResult":
        return cls(n, True)

    @classmethod
    def at_least(cls, b: int) -> "OracleResult":
        return cls(b, False)

    def __str__(self) -> str:
        return f"Exact({self.value})" if self.exact else f"AtLeast({self.value})"


class TooLargeError(RuntimeError):
    """Start-term enumeration exceeded its cap."""


def _explore(
    t: Term, rules: tuple[Rule, ...], q: tuple[Rule, ...], budget: int
) -> tuple[dict[Term, int], list[tuple[int, Rule, int]], bool]:
    """Breadth-first reachable region up to distance budget.

    Returns (node index map, edges, truncated).  truncated means some node on
    the budget frontier has a successor outside the region.
    """
    index: dict[Term, int] = {t: 0}
    edges: list[tuple[int, Rule, int]] = []
    frontier = [t]
    truncated = False
    depth = 0
    while frontier:
        nxt: list[Term] = []
        for u in frontier:
            ui = index[u]
            for _, rule, v in q_successors(u, rules, q):
                vi = index.get(v)
                if vi is None:
                    if depth >= budget:
                        truncated = True
                        continue
                    vi = len(index)
                    index[v] = vi
                    nxt.append(v)
                edges.append((ui, rule, vi))
        frontier = nxt
        depth += 1
    return index, edges, truncated


def _sccs(n: int, succ: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns a component id per node, ids in reverse
    topological order (component 0 has no successors outside itself)."""
    idx = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    ncomp = 0
    for root in range(n):
        if idx[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                idx[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(succ[v])):
                w = succ[v][j]
                if idx[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], idx[w])
            if advanced:
                continue
            work.pop()
            if low[v] == idx[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comp


def strict_step_oracle(
    t: Term,
    strict: Sequence[Rule],
    weak: Sequence[Rule],
    q: Sequence[Rule],
    budget: int,
) -> OracleResult:
    """Maximum number of strict-rule applications over all derivations from t
    in the combined system, or AtLeast(budget) when the search is truncated or
    a pumpable loop through a strict step exists."""
    strict = tuple(strict)
    if not strict:
        return OracleResult.exactly(0)
    weak = tuple(weak)
    q = tuple(q)
    strict_set = set(strict)
    index, edges, truncated = _explore(t, strict + weak, q, budget)
    if truncated:
        return OracleResult.at_least(budget)
    n = len(index)
    succ: list[list[int]] = [[] for _ in range(n)]
    weighted: list[tuple[int, int, int]] = []
    for ui, rule, vi in edges:
        succ[ui].append(vi)
        weighted.append((ui, vi, 1 if rule in strict_set else 0))
    comp = _sccs(n, succ)
    for ui, vi, w in weighted:
        if comp[ui] == comp[vi] and w == 1:
            return OracleResult.at_least(budget)
    # Longest path over the component DAG; component ids are already in
    # reverse topological order, so a single sweep suffices.
    ncomp = max(comp) + 1 if n else 0
    best = [0] * ncomp
    for ui, vi, w in sorted(weighted, key=lambda e: comp[e[0]]):
        cu, cv = comp[ui], comp[vi]
        if cu != cv:
            best[cu] = max(best[cu], w + best[cv])
        # same-component edges are weight 0 here and contribute nothing
    return OracleResult.exactly(best[comp[0]] if n else 0)


def dh_oracle(t: Term, rules: Sequence[Rule], q: Sequence[Rule], budget: int) -> OracleResult:
    """Maximum derivation length from t, every step counted."""
    return strict_step_oracle(t, rules, (), q, budget)


def ground_terms(symbols: Iterable[Symbol], max_size: int, cap: int) -> list[Term]:
    """All ground terms over symbols up to max_size: by size, then by symbol
    (arity, name); TooLargeError once there are more than cap of them."""
    syms = sorted(symbols, key=lambda s: (s.arity, s.name))
    by_size: list[list[Term]] = [[] for _ in range(max_size + 1)]
    total = 0
    for sz in range(1, max_size + 1):
        for f in syms:
            if f.arity == 0:
                if sz == 1:
                    by_size[1].append(App(f))
                    total += 1
                continue
            for split in _size_splits(sz - 1, f.arity):
                for args in _arg_products(by_size, split):
                    by_size[sz].append(App(f, args))
                    total += 1
                    if total > cap:
                        raise TooLargeError(f"more than {cap} start terms")
    return [t for bucket in by_size for t in bucket]


def _size_splits(total: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _size_splits(total - first, k - 1):
            yield (first,) + rest


def _arg_products(
    by_size: list[list[Term]], split: tuple[int, ...]
) -> Iterator[tuple[Term, ...]]:
    if not split:
        yield ()
        return
    for head in by_size[split[0]]:
        for tail in _arg_products(by_size, split[1:]):
            yield (head,) + tail


def basic_terms(
    symbols: Iterable[Symbol], max_size: int, roots: SymbolKind, cap: int = 200_000
) -> list[Term]:
    """Ground basic terms (roots of the given kind, constructor arguments)."""
    symbols = list(symbols)
    heads = sorted(
        (s for s in symbols if s.kind is roots), key=lambda s: (s.arity, s.name)
    )
    ctors = (s for s in symbols if s.kind is SymbolKind.CONSTRUCTOR)
    grounds = ground_terms(ctors, max_size - 1, cap)
    by_size: list[list[Term]] = [[] for _ in range(max_size)]
    for g in grounds:
        by_size[term_size(g)].append(g)
    out: list[Term] = []
    for h in heads:
        if h.arity == 0:
            if max_size >= 1:
                out.append(App(h))
            continue
        for split in _size_splits_upto(max_size - 1, h.arity):
            for args in _arg_products(by_size, split):
                out.append(App(h, args))
                if len(out) > cap:
                    raise TooLargeError(f"more than {cap} start terms")
    return out


def _size_splits_upto(total: int, k: int) -> Iterator[tuple[int, ...]]:
    for used in range(k, total + 1):
        yield from _size_splits(used, k)
