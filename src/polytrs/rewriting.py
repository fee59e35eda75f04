"""Q-restricted rewriting and exhaustive derivation-height oracles.

A rule applies at a position only if the instantiated arguments of its
left-hand side are normal forms of Q.  Q empty gives plain rewriting, Q equal
to the rule set gives innermost rewriting.

The oracles, which cross-check the proof machinery on small inputs, answer
"how many (strict) steps can a derivation from t take" by exploring the
reachable term graph breadth-first up to a depth budget and taking longest
paths over its strongly connected components.  Heights answers the start
terms of one table together: it memoises the derivation height of each
reached term, and explores a term breadth-first only when its region has a
cycle or a path longer than the budget.  One shared system per (rules, Q)
memoises the steps of every subterm, assembled from its arguments' steps,
and numbers the reached terms, so that exploration runs over integers.
Steps carry no position: the oracles only count them.  The references (each
position addressed from the root, the table recomputed for every size) live
in the tests.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .terms import (
    App,
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


Step = tuple[Rule, Term]

_MEMO_CAP = 200_000


class _System:
    """The rewrite relation of (rules, q): per subterm, whether it has a
    Q-redex and its one-step reducts; reached terms numbered, with edges."""

    def __init__(self, rules: tuple[Rule, ...], q: tuple[Rule, ...]) -> None:
        self.rules = rules
        # per root symbol, each left-hand side to match: the rules' in rule
        # order, then Q's other ones; (lhs, rule or None, lhs is Q's)
        q_lhss = {r.lhs for r in q}
        q_only = [r.lhs for r in q if r.lhs not in {x.lhs for x in rules}]
        self.by_root: dict[Symbol, list[tuple[App, Optional[Rule], bool]]] = {}
        for lhs, r in [(r.lhs, r) for r in rules] + [(lhs, None) for lhs in q_only]:
            self.by_root.setdefault(lhs.sym, []).append((lhs, r, lhs in q_lhss))
        # per subterm (has a Q-redex, rule, reduct, rule, reduct, ...), flat
        # to stay small: there is one per subterm of every reached term
        self.memo: dict[App, tuple] = {}
        self.forget()

    def forget(self) -> None:
        self.ids: dict[Term, int] = {}
        # term i, replaced by its edges once they are computed
        self.nodes: list[Union[Term, tuple[tuple[Rule, int], ...]]] = []

    def steps(self, t: Term) -> Iterator[Step]:
        """One-step reducts of t in leftmost-outermost order, rules in order:
        the root steps (when every argument is Q-normal), then each
        argument's steps in place."""
        memo = self.memo
        if len(memo) > _MEMO_CAP:
            memo.clear()
        # post-order, so that each node's arguments are done before it
        stack: list[tuple[App, bool]] = [(t, False)] if t.__class__ is App else []
        while stack:
            s, expanded = stack.pop()
            if s in memo:
                continue
            args = s.args
            if not expanded:
                stack.append((s, True))
                stack.extend((a, False) for a in args if a.__class__ is App)
                continue
            hit = any(a.__class__ is App and memo[a][0] for a in args)
            out: list = []
            if not hit:  # every argument is Q-normal
                for lhs, rule, in_q in self.by_root.get(s.sym, ()):
                    sigma = match_term(lhs, s)
                    if sigma is not None:
                        hit = hit or in_q
                        if rule is not None:
                            out += (rule, apply_subst(rule.rhs, sigma))
            for i, a in enumerate(args):
                if a.__class__ is App:
                    for rule, r in _pairs(memo[a]):
                        out += (rule, App(s.sym, args[:i] + (r,) + args[i + 1 :]))
            memo[s] = (hit, *out)
        return _pairs(memo[t]) if t.__class__ is App else iter(())

    def number(self, t: Term) -> int:
        i = self.ids.setdefault(t, len(self.nodes))
        if i == len(self.nodes):
            self.nodes.append(t)
        return i

    def edges(self, i: int) -> tuple[tuple[Rule, int], ...]:
        """(rule, number of the reduct) per step of term i."""
        e = self.nodes[i]
        if e.__class__ is not tuple:
            steps = self.steps(e)
            e = self.nodes[i] = tuple((rule, self.number(r)) for rule, r in steps)
        return e


def _pairs(v: tuple) -> Iterator[Step]:
    return zip(v[1::2], v[2::2])


# one shared system per (rules, q), cleared with the other functools caches
_system = functools.lru_cache(maxsize=16)(_System)


def is_q_normal_form(t: Term, q: Sequence[Rule]) -> bool:
    """No left-hand side of q matches any subterm of t."""
    system = _system((), tuple(q))
    system.steps(t)  # fills system.memo for t
    return t.__class__ is Var or not system.memo[t][0]


def q_successors(t: Term, rules: Sequence[Rule], q: Sequence[Rule]) -> tuple[Step, ...]:
    """All one-step reducts of t as (rule, reduct): leftmost-outermost, rules
    in order.

    A rule fires at a subterm only when its lhs matches and every argument of
    the matched instance is a normal form of q.
    """
    return tuple(_system(tuple(rules), tuple(q)).steps(t))


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
    system: _System, t: Term, budget: int, counted: set[int]
) -> tuple[list[list[int]], list[tuple[int, int, int]], bool]:
    """Breadth-first reachable region from t (node 0) up to distance budget:
    successor lists, edges (u, v, 1 for a counted rule else 0), and whether
    a node on the budget frontier has a successor outside the region."""
    if len(system.nodes) > _MEMO_CAP:
        system.forget()  # between explorations only: edges hold numbers
    start = system.number(t)
    index: dict[int, int] = {start: 0}
    succ: list[list[int]] = [[]]
    edges: list[tuple[int, int, int]] = []
    frontier = [start]
    truncated = False
    depth = 0
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            ui = index[u]
            for rule, v in system.edges(u):
                vi = index.get(v)
                if vi is None:
                    if depth >= budget:
                        truncated = True
                        continue
                    vi = index[v] = len(succ)
                    succ.append([])
                    nxt.append(v)
                succ[ui].append(vi)
                edges.append((ui, vi, 1 if id(rule) in counted else 0))
        frontier = nxt
        depth += 1
    return succ, edges, truncated


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
    system = _system(strict + tuple(weak), tuple(q))
    # the system is shared by equal rule tuples and by every strict/weak
    # split of them, so strictness is decided on its own rule objects
    strict_set = set(strict)
    counted = {id(r) for r in system.rules if r in strict_set}
    succ, edges, truncated = _explore(system, t, budget, counted)
    if truncated:
        return OracleResult.at_least(budget)
    comp = _sccs(len(succ), succ)
    if any(w and comp[ui] == comp[vi] for ui, vi, w in edges):
        return OracleResult.at_least(budget)
    # Longest path over the component DAG; component ids are already in
    # reverse topological order, so a single sweep suffices.
    best = [0] * (max(comp) + 1)
    for ui, vi, w in sorted(edges, key=lambda e: comp[e[0]]):
        cu, cv = comp[ui], comp[vi]
        if cu != cv:
            best[cu] = max(best[cu], w + best[cv])
        # same-component edges are weight 0 here and contribute nothing
    return OracleResult.exactly(best[comp[0]])


def dh_oracle(t: Term, rules: Sequence[Rule], q: Sequence[Rule], budget: int) -> OracleResult:
    """Maximum derivation length from t, every step counted."""
    return strict_step_oracle(t, rules, (), q, budget)


class Heights:
    """strict_step_oracle(t, strict, weak, q, budget) for many t, each reached
    term solved once.  A node whose longest derivation is at most budget has a
    finite acyclic region within breadth-first distance budget, so its most
    strict steps are what strict_step_oracle counts; the other nodes (on a
    cycle, or with a longer derivation) go to strict_step_oracle."""

    def __init__(self, strict, weak, q, budget: int) -> None:
        self.args = (tuple(strict), tuple(weak), tuple(q), budget)
        self.system = _system(self.args[0] + self.args[1], self.args[2])
        self.counted = {id(r) for r in self.system.rules if r in self.args[0]}
        self.nodes, self.memo = None, {}

    def __call__(self, t: Term) -> OracleResult:
        if len(self.system.nodes) > _MEMO_CAP:
            self.system.forget()
        if self.system.nodes is not self.nodes:  # renumbered: the records are void
            self.nodes, self.memo = self.system.nodes, {}
        h = self._solve(self.system.number(t))
        return strict_step_oracle(t, *self.args) if h is None else OracleResult.exactly(h[1])

    def _solve(self, start: int) -> Optional[tuple[int, int]]:
        # memo: node -> (longest, strict), None when given up, () on the path
        memo, edges, counted, budget = self.memo, self.system.edges, self.counted, self.args[3]
        if start in memo:
            return memo[start]
        memo[start] = ()
        path, todo = [start], [iter(edges(start))]  # each node a successor of the last
        while path:
            for _, v in todo[-1]:
                if v not in memo:
                    if len(path) > budget:  # start goes too deep; the others may not
                        return self._give_up(path, 1)
                    memo[v] = ()
                    path.append(v)
                    todo.append(iter(edges(v)))
                    break
                if not memo[v]:  # given up, or a cycle
                    return self._give_up(path, len(path))
            else:  # every successor is solved
                longest = strict = 0
                for rule, v in edges(path[-1]):
                    n, s = memo[v]
                    longest, strict = max(longest, n + 1), max(strict, s + (id(rule) in counted))
                if longest > budget:
                    return self._give_up(path, len(path))
                memo[path.pop()] = (longest, strict)
                todo.pop()
        return memo[start]

    def _give_up(self, path: list[int], known: int) -> None:
        for u in path[known:]:  # unsolved
            del self.memo[u]
        self.memo.update(dict.fromkeys(path[:known]))


# Start-term enumeration raises TooLargeError past this many terms.
_START_TERMS_CAP = 200_000


def ground_terms(symbols: Iterable[Symbol], max_size: int) -> list[Term]:
    """All ground terms over symbols up to max_size: by size, then by symbol
    (arity, name); TooLargeError once there are more than _START_TERMS_CAP."""
    syms = sorted(symbols, key=lambda s: (s.arity, s.name))
    by_size: list[list[Term]] = [[]]  # the terms of each size, filled in order

    def terms() -> Iterator[Term]:
        for inner in range(max_size):
            by_size.append([])
            for f in syms:
                for t in _apps(f, by_size, inner):
                    by_size[-1].append(t)
                    yield t

    return _capped(terms())


def basic_terms(symbols: Iterable[Symbol], max_size: int, roots: SymbolKind) -> list[Term]:
    """Ground basic terms (roots of the given kind, constructor arguments) up
    to max_size: by root symbol (arity, name), then by size."""
    symbols = list(symbols)
    heads = sorted(
        (s for s in symbols if s.kind is roots), key=lambda s: (s.arity, s.name)
    )
    ctors = (s for s in symbols if s.kind is SymbolKind.CONSTRUCTOR)
    by_size: list[list[Term]] = [[] for _ in range(max_size)]
    for g in ground_terms(ctors, max_size - 1):
        by_size[term_size(g)].append(g)
    terms = (t for h in heads for inner in range(max_size) for t in _apps(h, by_size, inner))
    return _capped(terms)


def _apps(f: Symbol, by_size: list[list[Term]], inner: int) -> Iterator[App]:
    """Every f(t1, ..., tk) with arguments from by_size whose sizes sum to
    inner: the argument sizes in lexicographic order, then the arguments."""
    if f.arity == 0:
        if inner == 0:
            yield App(f)
        return
    for cuts in itertools.combinations(range(1, inner), f.arity - 1):
        bounds = (0, *cuts, inner)
        pools = [by_size[b - a] for a, b in zip(bounds, bounds[1:])]
        for args in itertools.product(*pools):
            yield App(f, args)


def _capped(terms: Iterator[Term]) -> list[Term]:
    out = list(itertools.islice(terms, _START_TERMS_CAP + 1))
    if len(out) > _START_TERMS_CAP:
        raise TooLargeError(f"more than {_START_TERMS_CAP} start terms")
    return out
