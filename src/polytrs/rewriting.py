"""The oracles: Q-restricted rewriting and exhaustive derivation heights.

A rule (terms.Rule) applies at a position only if the instantiated
arguments of its left-hand side are normal forms of Q.  Q empty gives plain
rewriting, Q equal to the rule set gives innermost rewriting.

The oracles, which cross-check the proof machinery on small inputs, answer
"how many (strict) steps can a derivation from t take" by exploring the
reachable term graph breadth-first up to a depth budget and taking longest
paths over its strongly connected components.  Heights answers the start
terms of one table together: it memoises the derivation height of each
reached term, and explores a term breadth-first only when its region has a
cycle or a path longer than the budget.  Reached terms are hash-consed
(Filliatre and Conchon, "Type-safe modular hash-consing", 2006) into nodes of
one shared system per (rules, Q), which memoises each node's steps: the
oracles run over integers, build no term and recurse on no reached term's
depth.  Steps carry no position: the oracles only count them.  The
references (each position addressed from the root, the table recomputed for
every size) live in the tests.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .terms import App, Rule, Symbol, SymbolKind, Term, Var, size as term_size


_MEMO_CAP = 200_000


class _System:
    """The rewrite relation of (rules, q) over a bank of hash-consed nodes.

    Node i is (symbol, argument nodes...) or (variable,); one dict maps each
    key to its node, so equal terms share a number, given after their
    arguments'.  Each node's (has a Q-redex, ((rule, reduct node), ...)) is
    computed once, from its arguments' steps; left-hand sides are matched on
    node numbers and right-hand sides built straight into nodes."""

    def __init__(self, rules: tuple[Rule, ...], q: tuple[Rule, ...]) -> None:
        self.rules = rules
        # per root symbol, each left-hand side to match: the rules' in rule
        # order, then Q's other ones; (lhs, rule or None, lhs is Q's)
        q_lhss = {r.lhs for r in q}
        q_only = [r.lhs for r in q if r.lhs not in {x.lhs for x in rules}]
        self.by_root: dict[Symbol, list[tuple[App, Optional[Rule], bool]]] = {}
        for lhs, r in [(r.lhs, r) for r in rules] + [(lhs, None) for lhs in q_only]:
            self.by_root.setdefault(lhs.sym, []).append((lhs, r, lhs in q_lhss))
        self.forget()

    def forget(self) -> None:
        self.ids: dict[Union[tuple, Term], int] = {}  # keys and numbered terms
        self.nodes: list[tuple] = []  # node i's key
        self.steps: list[Optional[tuple[bool, tuple[tuple[Rule, int], ...]]]] = []
        self.terms: list[Term] = []  # node i's term, built in node order

    def node(self, key: tuple) -> int:
        i = self.ids.setdefault(key, len(self.nodes))
        if i == len(self.nodes):
            self.nodes.append(key)
            self.steps.append(None)
        return i

    def number(self, t: Term) -> int:
        """t's node, in a new bank once this one holds more than _MEMO_CAP
        nodes; term objects are remembered, as start terms share arguments."""
        if len(self.nodes) > _MEMO_CAP:
            self.forget()
        done, todo = self.ids, [t]
        while todo:
            s = todo.pop()
            if s.__class__ is Var:
                done[s] = self.node((s,))
            elif s not in done:
                new = [a for a in s.args if a not in done]
                if new:
                    todo += [s, *new]
                else:
                    done[s] = self.node((s.sym, *[done[a] for a in s.args]))
        return done[t]

    def edges(self, i: int) -> tuple[tuple[Rule, int], ...]:
        """(rule, reduct node) per step of node i in leftmost-outermost
        order, rules in order: the root steps (when every argument is
        Q-normal), then each argument's steps in place."""
        return (self.steps[i] or self._fill(i))[1]

    def _fill(self, i: int) -> tuple[bool, tuple[tuple[Rule, int], ...]]:
        nodes, steps, todo = self.nodes, self.steps, [i]
        while todo:  # post-order, so that arguments have their steps first
            j = todo.pop()
            key = nodes[j]
            new = [a for a in key[1:] if steps[a] is None]
            if new:
                todo += [j, *new]
                continue
            if steps[j] is not None:
                continue
            hit = any([steps[a][0] for a in key[1:]])
            out = []
            if not hit:  # every argument is Q-normal
                for lhs, rule, in_q in self.by_root.get(key[0], ()):
                    sigma: dict[str, int] = {}
                    if all(map(self._match, lhs.args, key[1:], itertools.repeat(sigma))):
                        hit = hit or in_q
                        if rule is not None:
                            out.append((rule, self._build(rule.rhs, sigma)))
            for p in range(1, len(key)):
                for rule, r in steps[key[p]][1]:
                    out.append((rule, self.node(key[:p] + (r,) + key[p + 1 :])))
            steps[j] = (hit, tuple(out))
        return steps[i]

    def _match(self, p: Term, i: int, sigma: dict[str, int]) -> bool:
        """Bind sigma so that p instantiated is node i; recursive on a rule's term."""
        if p.__class__ is Var:
            return sigma.setdefault(p.name, i) == i
        f, *args = self.nodes[i]
        return f is p.sym and all(map(self._match, p.args, args, itertools.repeat(sigma)))

    def _build(self, t: Term, sigma: dict[str, int]) -> int:
        """The node of t instantiated by sigma; recursive on a rule's own term."""
        if t.__class__ is Var:
            return sigma[t.name]
        return self.node((t.sym, *[self._build(a, sigma) for a in t.args]))

    def term(self, i: int) -> Term:
        terms = self.terms
        while len(terms) <= i:  # nodes in order, so arguments come first
            f, *args = self.nodes[len(terms)]
            terms.append(f if f.__class__ is Var else App(f, tuple(terms[a] for a in args)))
        return terms[i]


# one shared system per (rules, q), cleared with the other functools caches
_system = functools.lru_cache(maxsize=16)(_System)


def is_q_normal_form(t: Term, q: Sequence[Rule]) -> bool:
    """No left-hand side of q matches any subterm of t."""
    system = _system((), tuple(q))
    return not system._fill(system.number(t))[0]


def q_successors(
    t: Term, rules: Sequence[Rule], q: Sequence[Rule]
) -> tuple[tuple[Rule, Term], ...]:
    """All one-step reducts of t as (rule, reduct): leftmost-outermost, rules
    in order.

    A rule fires at a subterm only when its lhs matches and every argument of
    the matched instance is a normal form of q.
    """
    system = _system(tuple(rules), tuple(q))
    return tuple((rule, system.term(v)) for rule, v in system.edges(system.number(t)))


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
    system: _System, start: int, budget: int, counted: set[int]
) -> Optional[dict[int, list[tuple[int, int]]]]:
    """Breadth-first reachable region from node start up to distance budget:
    per node its (successor, 1 for a counted rule else 0); None when a node
    on the budget frontier has a successor outside the region."""
    succ: dict[int, list[tuple[int, int]]] = {start: []}
    frontier = [start]
    for depth in range(budget + 1):
        nxt: list[int] = []
        for u in frontier:
            for rule, v in system.edges(u):
                if v not in succ:
                    if depth == budget:
                        return None
                    succ[v] = []
                    nxt.append(v)
                succ[u].append((v, 1 if id(rule) in counted else 0))
        frontier = nxt
    return succ


def _sccs(succ: dict[int, list[tuple[int, int]]], start: int) -> dict[int, int]:
    """Kosaraju: a component id per node, ids in topological order; every node
    is reachable from start, whose component is 0."""
    order: list[int] = []  # nodes as a depth-first search from start leaves them
    seen, work = {start}, [(start, iter(succ[start]))]
    while work:
        for w, _ in work[-1][1]:
            if w not in seen:
                seen.add(w)
                work.append((w, iter(succ[w])))
                break
        else:
            order.append(work.pop()[0])
    pred: dict[int, list[int]] = {u: [] for u in succ}
    for u, vs in succ.items():
        for v, _ in vs:
            pred[v].append(u)
    comp: dict[int, int] = {}
    ncomp = 0
    for root in reversed(order):  # each search of pred finds one component
        if root not in comp:
            comp[root], todo = ncomp, [root]
            while todo:
                for w in pred[todo.pop()]:
                    if w not in comp:
                        comp[w] = ncomp
                        todo.append(w)
            ncomp += 1
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
    counted = {id(r) for r in system.rules if r in strict}
    start = system.number(t)  # a new bank starts here if at all, as edges hold numbers
    succ = _explore(system, start, budget, counted)
    if succ is None:
        return OracleResult.at_least(budget)
    comp = _sccs(succ, start)
    # Longest path over the component DAG: components in reverse id order, so
    # that every edge out of one leads to a finished one.  An edge inside one
    # is weight 0 and adds nothing, unless it is strict and can be pumped.
    best = [0] * len(succ)
    for u in sorted(succ, key=comp.__getitem__, reverse=True):
        for v, w in succ[u]:
            if comp[u] != comp[v]:
                best[comp[u]] = max(best[comp[u]], w + best[comp[v]])
            elif w:
                return OracleResult.at_least(budget)
    return OracleResult.exactly(best[comp[start]])


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
        start = self.system.number(t)
        if self.system.nodes is not self.nodes:  # renumbered: the records are void
            self.nodes, self.memo = self.system.nodes, {}
        h = self._solve(start)
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
