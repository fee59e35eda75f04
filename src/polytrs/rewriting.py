"""The oracles: Q-restricted rewriting and exhaustive derivation heights.

A rule (terms.Rule) applies at a position only if the instantiated
arguments of its left-hand side are normal forms of Q.  Q empty gives plain
rewriting, Q equal to the rule set gives innermost rewriting.

Terms are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006) into the nodes of one system per oracle call, which
memoises each node's steps, into which start terms are enumerated, and which
raises TooLargeError rather than number more than _NODE_CAP nodes.
The oracles count steps over node numbers and recurse on no reached term's
depth: Heights summarises each reached node once, from its arguments' where
its root cannot step before them (see there), and strict_step_oracle is
Heights on one start term.  A budget bounds the length of the derivations
explored, weak steps included.  The references live in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .terms import App, Rule, Symbol, SymbolKind, Term, Var


_NODE_CAP = 200_000


class TooLargeError(RuntimeError):
    """An oracle call would number more than _NODE_CAP terms."""


class _System:
    """The rewrite relation of (rules, q) over a bank of hash-consed nodes.

    Node i is (symbol, argument nodes...) or (variable,); one dict maps each
    key to its node, so equal terms share a number, given after their
    arguments'.  Each node's (has a Q-redex, ((rule, reduct node), ...)) is
    computed once, from its arguments' steps; left-hand sides are matched on
    node numbers and right-hand sides built straight into nodes."""

    def __init__(self, rules: tuple[Rule, ...], q: tuple[Rule, ...]) -> None:
        # per root symbol, each left-hand side to match: the rules' in rule
        # order, then Q's other ones; (lhs, rule or None, lhs is Q's)
        q_lhss = {r.lhs for r in q}
        q_only = [r.lhs for r in q if r.lhs not in {x.lhs for x in rules}]
        self.by_root: dict[Symbol, list[tuple[App, Optional[Rule], bool]]] = {}
        for lhs, r in [(r.lhs, r) for r in rules] + [(lhs, None) for lhs in q_only]:
            self.by_root.setdefault(lhs.sym, []).append((lhs, r, lhs in q_lhss))
        # the roots that may step before their arguments are normal forms:
        # none when every redex is a Q-redex, else those of the rules
        self.eager = set() if all(r.lhs in q_lhss for r in rules) else {r.lhs.sym for r in rules}
        self.ids: dict[Union[tuple, Term], int] = {}  # keys and numbered terms
        self.nodes: list[tuple] = []  # node i's key
        self.steps: list[Optional[tuple[bool, tuple[tuple[Rule, int], ...]]]] = []
        self.terms: list[Term] = []  # node i's term, built in node order

    def node(self, key: tuple) -> int:
        i = self.ids.setdefault(key, len(self.nodes))
        if i == len(self.nodes):
            if i == _NODE_CAP:
                raise TooLargeError(f"more than {_NODE_CAP} terms")
            self.nodes.append(key)
            self.steps.append(None)
        return i

    def number(self, t: Term) -> int:
        """t's node; term objects are remembered, as a caller's terms may share arguments."""
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


def is_q_normal_form(t: Term, q: Sequence[Rule]) -> bool:
    """No left-hand side of q matches any subterm of t."""
    system = _System((), tuple(q))
    return not system._fill(system.number(t))[0]


def q_successors(
    t: Term, rules: Sequence[Rule], q: Sequence[Rule]
) -> tuple[tuple[Rule, Term], ...]:
    """All one-step reducts of t as (rule, reduct): leftmost-outermost, rules
    in order.

    A rule fires at a subterm only when its lhs matches and every argument of
    the matched instance is a normal form of q.
    """
    system = _System(tuple(rules), tuple(q))
    return tuple((rule, system.term(v)) for rule, v in system.edges(system.number(t)))


@dataclass(frozen=True)
class OracleResult:
    """Exact(n): the maximum is n.  AtLeast(b): a derivation takes more than
    budget b steps, or does not end."""

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


def strict_step_oracle(
    t: Term, strict: Sequence[Rule], weak: Sequence[Rule], q: Sequence[Rule], budget: int
) -> OracleResult:
    """Maximum number of strict-rule applications over all derivations from t
    in the combined system, or AtLeast(budget) when a derivation from t takes
    more than budget steps, weak ones included, or reaches a cycle."""
    if not strict:
        return OracleResult.exactly(0)
    heights = Heights(strict, weak, q, budget)
    h = heights(heights.system.number(t))
    return OracleResult.at_least(budget) if h is None else OracleResult.exactly(h)


def dh_oracle(t: Term, rules: Sequence[Rule], q: Sequence[Rule], budget: int) -> OracleResult:
    """Maximum derivation length from t, every step counted."""
    return strict_step_oracle(t, rules, (), q, budget)


Summary = dict[int, tuple[int, int]]  # normal form: (longest, strict)
_NONE, _STRICT, _WEAK = (0, 0), (1, 1), (1, 0)


class Heights:
    """strict_step_oracle's count for the start nodes of one table, None for
    AtLeast(budget), from one summary per reached node: per normal form, the
    longest derivation to it and the most strict steps on one.  A node whose
    root steps only after its arguments are normal forms (every rule's
    left-hand side is one of Q's) or never (no rule's root is its symbol)
    interleaves its arguments' steps, and steps at parallel positions
    commute (Baader and Nipkow, "Term Rewriting and All That", 1998), so its
    summary combines its stepping arguments' and goes on from f(their normal
    forms).  A start node's count is its summary's most strict steps when
    its longest derivation takes at most budget steps; it is None once a
    node is reached more than budget steps deep, or on a cycle."""

    def __init__(self, strict, weak, q, budget: int) -> None:
        strict = tuple(strict)
        self.system = _System(strict + tuple(weak), tuple(q))
        self.counted = set(map(id, strict))
        self.budget = budget
        self.memo: dict[int, Summary] = {}  # {} while on the stack

    def starts(
        self, symbols: Iterable[Symbol], max_size: int, roots: Optional[SymbolKind]
    ) -> list[tuple[int, int]]:
        """(size, node) per start term up to max_size (see _start_nodes), by size."""
        return sorted(_start_nodes(self.system, symbols, max_size, roots), key=itemgetter(0))

    def __call__(self, start: int) -> Optional[int]:
        summary = self._solve(start)
        if summary is not None:
            longest, strict = map(max, zip(*summary.values()))
            if longest <= self.budget:
                return strict
        return None

    def _solve(self, start: int) -> Optional[Summary]:
        memo = self.memo
        if start in memo:
            return memo[start]
        memo[start] = {}
        stack = [(start, 0, self._summary(start))]  # (node, steps from start, _summary)
        while stack:
            u, depth, summary = stack[-1]
            d, v = next(summary)
            if d is None:  # v is u's summary
                memo[u] = v
                stack.pop()
            elif v not in memo and depth + d <= self.budget:
                memo[v] = {}
                stack.append((v, depth + d, self._summary(v)))
            elif not memo.get(v):  # too deep, or on the stack: a cycle
                for frame in stack:  # to be solved again from another start
                    del memo[frame[0]]
                return None
        return memo[start]

    def _summary(self, u: int) -> Iterator[tuple]:
        """Yields (steps from u, node) per node whose summary u's reads and
        lacks, made by _solve before it resumes, then (None, u's summary)."""
        system, memo = self.system, self.memo
        f, *args = system.nodes[u]
        moving = [a for a in args if f not in system.eager and system.edges(a)]
        if moving:  # f(its arguments' normal forms), one node per combination
            yield from ((0, a) for a in moving if not memo.get(a))
            parts = [memo[a].items() if a in moving else ((a, _NONE),) for a in args]
            combos = (zip(*c) for c in itertools.product(*parts))
            pairs = [(tuple(map(sum, zip(*ds))), system.node((f, *nfs))) for nfs, ds in combos]
        else:
            pairs = [(_STRICT if id(r) in self.counted else _WEAK, v) for r, v in system.edges(u)]
        out: Summary = {}
        for (dn, ds), v in pairs:
            if not memo.get(v):
                yield 1, v
            for nf, (n, s) in memo[v].items():
                n, s = n + dn, s + ds
                if nf in out:
                    n, s = max(n, out[nf][0]), max(s, out[nf][1])
                out[nf] = (n, s)
        yield None, out or {u: _NONE}


def basic_terms(
    symbols: Iterable[Symbol], max_size: int, roots: Optional[SymbolKind]
) -> list[Term]:
    """Ground basic terms (roots of the given kind, constructor arguments) up
    to max_size: by root symbol (arity, name), then by size; with roots
    None, all ground terms: by size, then by symbol (arity, name)."""
    system = _System((), ())
    return [system.term(i) for _, i in _start_nodes(system, symbols, max_size, roots)]


def _start_nodes(
    system: _System, symbols: Iterable[Symbol], max_size: int, roots: Optional[SymbolKind]
) -> list[tuple[int, int]]:
    """(size, node) per term of basic_terms(symbols, max_size, roots), in
    its order, numbered in system."""
    syms = sorted(symbols, key=lambda s: (s.arity, s.name))
    by_size: list[list[int]] = [[]]  # the nodes of each size

    def ground(fs: list[Symbol], max_size: int) -> list[tuple[int, int]]:
        for k in range(max_size):
            by_size.append([i for f in fs for i in _apps(system, f, by_size, k)])
        return [(k, i) for k, nodes in enumerate(by_size) for i in nodes]

    if roots is None:
        return ground(syms, max_size)
    ground([s for s in syms if s.kind is SymbolKind.CONSTRUCTOR], max_size - 1)
    heads = [s for s in syms if s.kind is roots]
    return [
        (k + 1, i) for h in heads for k in range(max_size) for i in _apps(system, h, by_size, k)
    ]


def _apps(system: _System, f: Symbol, by_size: list[list[int]], inner: int) -> Iterator[int]:
    """The node of every f(t1, ..., tk) with arguments from by_size whose
    sizes sum to inner: the argument sizes in lexicographic order, then the
    arguments."""
    if f.arity == 0:
        if inner == 0:
            yield system.node((f,))
        return
    for cuts in itertools.combinations(range(1, inner), f.arity - 1):
        bounds = (0, *cuts, inner)
        pools = [by_size[b - a] for a, b in zip(bounds, bounds[1:])]
        for args in itertools.product(*pools):
            yield system.node((f, *args))

