"""The oracles: Q-restricted rewriting and exhaustive derivation heights.

A rule (terms.Rule) applies at a position only if the instantiated
arguments of its left-hand side are normal forms of Q.  Q empty gives plain
rewriting, Q equal to the rule set gives innermost rewriting.

Terms are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006) into the nodes of one system per oracle call, into
which start terms are enumerated by size, then by root symbol, and which
raises TooLargeError rather than number more than _NODE_CAP nodes.  Each
rule is compiled once per system into flat programs that match its
left-hand side over node keys and build its right-hand side into nodes, and
a node's facts are fixed when it is numbered (see _System).  The oracles
count steps over node numbers and recurse on no reached term's depth:
Heights summarises each reached node once, from its arguments' where its
root cannot step before them (see there), and strict_step_oracle is Heights
on one start term.  A budget bounds the length of the derivations explored,
weak steps included.  The references live in the tests.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .terms import App, Rule, Symbol, SymbolKind, Term, Var


_NODE_CAP = 200_000
_STEPS, _REDEX = 1, 2  # a node's flags: it has a step, it has a Q-redex


class TooLargeError(RuntimeError):
    """An oracle call would number more than _NODE_CAP terms."""


@functools.lru_cache(maxsize=4096)
def _programs(lhs: App, rhs: Optional[Term]) -> tuple:
    """lhs's match program over a node key, and rhs's build program.

    Matching starts with the key (symbol, argument nodes...) as registers.
    Each check (r, g) asks that register r's node have root g, and appends
    that node's arguments to the registers; a variable is the register it
    first occurs in, and same, None for a left-linear lhs, is a pair of
    getters that must agree on the registers of each repeated variable.
    The build program is rhs in postfix: (None, r) pushes register r, and
    (g, n) replaces the top n entries by the node g(them)."""
    checks, at, repeats = [], {}, []
    todo = list(enumerate(lhs.args, 1))
    for r, p in todo:  # breadth first, as the checks append registers
        if p.__class__ is not Var:
            todo += enumerate(p.args, len(todo) + 1)
            checks.append((r, p.sym))
        elif p.name in at:
            repeats.append((at[p.name], r))
        else:
            at[p.name] = r
    same = tuple(itemgetter(*column) for column in zip(*repeats)) if repeats else None
    build, todo = [], [] if rhs is None else [rhs]
    while todo:  # rhs in pre-order, arguments last first: its postfix reversed
        t = todo.pop()
        if t.__class__ is Var:
            build.append((None, at[t.name]))
        else:
            build.append((t.sym, len(t.args)))
            todo += t.args
    return tuple(checks), same, tuple(reversed(build))


class _System:
    """The rewrite relation of (rules, q) over a bank of hash-consed nodes.

    Node i is (symbol, argument nodes...) or (variable,); one dict maps each
    key to its node, so equal terms share a number, given after their
    arguments'.  Left-hand sides are matched and right-hand sides built by
    programs compiled once and cached (see _programs; Maranget, "Compiling
    pattern matching to good decision trees", 2008).  When node numbers a
    key it fixes the node's flags (has a step, has a Q-redex) and its root
    matches, from its arguments' flags: a root matches only when every
    argument is Q-normal.  A node's root reducts are built when first read,
    and its steps in context (edges) only on request, so a table numbers
    the reducts that it reads and no others."""

    def __init__(self, rules: tuple[Rule, ...], q: tuple[Rule, ...]) -> None:
        # per root symbol, each left-hand side to match: the rules' in rule
        # order, then Q's other ones; (checks, same, flags a match adds,
        # rule or None, build)
        q_lhss, lhss = {r.lhs for r in q}, {r.lhs for r in rules}
        q_only = [r.lhs for r in q if r.lhs not in lhss]
        self.by_root: dict[Symbol, list[tuple]] = {}
        for lhs, r in [(r.lhs, r) for r in rules] + [(lhs, None) for lhs in q_only]:
            checks, same, build = _programs(lhs, r and r.rhs)
            adds = (_REDEX if lhs in q_lhss else 0) | (_STEPS if r else 0)
            self.by_root.setdefault(lhs.sym, []).append((checks, same, adds, r, build))
        # the roots that may step before their arguments are normal forms:
        # none when every redex is a Q-redex, else those of the rules
        self.eager = set() if all(r.lhs in q_lhss for r in rules) else {r.lhs.sym for r in rules}
        self.ids: dict[Union[tuple, Term], int] = {}  # keys and numbered terms
        self.nodes: list[tuple] = []  # node i's key
        self.flags: list[int] = []  # node i's _STEPS and _REDEX
        # node i's root steps: (), a list of (rule, build, registers) per
        # match until read, then ((rule, reduct node), ...)
        self.roots: list[Union[tuple, list]] = []
        self.steps: dict[int, tuple[tuple[Rule, int], ...]] = {}  # edges(i), once asked
        self.terms: list[Term] = []  # node i's term, built in node order

    def node(self, key: tuple) -> int:
        i = self.ids.get(key)
        if i is not None:
            return i
        nodes, flags = self.nodes, self.flags
        i = self.ids[key] = len(nodes)
        if i == _NODE_CAP:
            raise TooLargeError(f"more than {_NODE_CAP} terms")
        nodes.append(key)
        fl, found = 0, ()
        for a in key[1:]:
            fl |= flags[a]
        if not fl & _REDEX:  # every argument is Q-normal
            for checks, same, adds, rule, build in self.by_root.get(key[0], ()):
                regs = key
                for r, g in checks:
                    k = nodes[regs[r]]
                    if k[0] is not g:
                        break
                    regs += k[1:]
                else:
                    if same is None or same[0](regs) == same[1](regs):
                        fl |= adds
                        if rule:
                            found = [*found, (rule, build, regs)]
        flags.append(fl)
        self.roots.append(found)
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

    def reducts(self, i: int) -> tuple[tuple[Rule, int], ...]:
        """(rule, reduct node) per root step of node i, rules in order."""
        found = self.roots[i]
        if found.__class__ is list:  # build the reducts, and drop the registers
            out = []
            for rule, build, regs in found:
                stack: list[int] = []
                for g, n in build:
                    if g is None:
                        stack.append(regs[n])
                    elif n:
                        stack[-n:] = [self.node((g, *stack[-n:]))]
                    else:
                        stack.append(self.node((g,)))
                out.append((rule, stack[0]))
            found = self.roots[i] = tuple(out)
        return found

    def edges(self, i: int) -> tuple[tuple[Rule, int], ...]:
        """(rule, reduct node) per step of node i in leftmost-outermost
        order, rules in order: the root steps, then each argument's steps
        in place."""
        nodes, flags, done, todo = self.nodes, self.flags, self.steps, [i]
        while todo:  # post-order over the subterms that step
            j = todo.pop()
            if j in done:
                continue
            key = nodes[j]
            new = [a for a in key[1:] if flags[a] & _STEPS and a not in done]
            if new:
                todo += [j, *new]
                continue
            out = list(self.reducts(j))
            for p in range(1, len(key)):
                for rule, r in done.get(key[p], ()):
                    out.append((rule, self.node(key[:p] + (r,) + key[p + 1 :])))
            done[j] = tuple(out)
        return done[i]

    def term(self, i: int) -> Term:
        terms = self.terms
        while len(terms) <= i:  # nodes in order, so arguments come first
            f, *args = self.nodes[len(terms)]
            terms.append(f if f.__class__ is Var else App(f, tuple(terms[a] for a in args)))
        return terms[i]


def is_q_normal_form(t: Term, q: Sequence[Rule]) -> bool:
    """No left-hand side of q matches any subterm of t."""
    system = _System((), tuple(q))
    return not system.flags[system.number(t)] & _REDEX


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
    node is reached more than budget steps deep, or on a cycle.  Summaries
    are solved on an explicit stack of (node, steps from the start)."""

    def __init__(self, strict, weak, q, budget: int) -> None:
        strict = tuple(strict)
        self.system = _System(strict + tuple(weak), tuple(q))
        self.counted = set(map(id, strict))
        self.budget = budget
        self.memo: dict[int, Summary] = {}  # {} while on the stack

    def __call__(self, start: int) -> Optional[int]:
        if not self.system.flags[start] & _STEPS:
            return 0
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
        stack = [(start, 0)]  # (node, steps from start)
        while stack:
            u, depth = stack[-1]
            got = self._summary(u, depth)
            if got.__class__ is dict:
                memo[u] = got
                stack.pop()
                continue
            d, v = got
            if v in memo or depth + d > self.budget:  # on the stack (a cycle), or too deep
                for w, _ in stack:  # to be solved again from another start
                    del memo[w]
                return None
            memo[v] = {}  # only v: a node pushed but not yet asked would look like a cycle
            stack.append((v, depth + d))
        return memo[start]

    def _summary(self, u: int, depth: int) -> Union[Summary, tuple[int, int]]:
        """u's summary, or (steps from u, node) for the first node whose
        summary u's reads and lacks, for _solve to solve before it asks u
        again; a normal form reached within the budget is answered here."""
        system, memo = self.system, self.memo
        key, flags = system.nodes[u], system.flags
        f = key[0]
        moving = () if f in system.eager else [a for a in key[1:] if flags[a] & _STEPS]
        if moving:  # f(its arguments' normal forms), one node per combination
            for a in moving:
                if not memo.get(a):
                    return 0, a
            parts = [memo[a].items() if a in moving else ((a, _NONE),) for a in key[1:]]
            combos = (zip(*c) for c in itertools.product(*parts))
            pairs = [(tuple(map(sum, zip(*ds))), system.node((f, *nfs))) for nfs, ds in combos]
        else:
            steps = system.edges(u) if f in system.eager else system.reducts(u)
            pairs = [(_STRICT if id(r) in self.counted else _WEAK, v) for r, v in steps]
        out: Summary = {}
        for (dn, ds), v in pairs:
            summary = memo.get(v)
            if not summary:
                if v in memo or flags[v] & _STEPS or depth + 1 > self.budget:
                    return 1, v
                summary = memo[v] = {v: _NONE}
            for nf, (n, s) in summary.items():
                n, s = n + dn, s + ds
                if nf in out:
                    n, s = max(n, out[nf][0]), max(s, out[nf][1])
                out[nf] = (n, s)
        return out or {u: _NONE}


def basic_terms(
    symbols: Iterable[Symbol], max_size: int, roots: Optional[SymbolKind]
) -> list[Term]:
    """Ground basic terms (roots of the given kind, constructor arguments) up
    to max_size, or with roots None all ground terms: by size, then by root
    symbol (arity, name), then by argument sizes and arguments (see _apps)."""
    system = _System((), ())
    return [system.term(i) for _, i in start_nodes(system, symbols, max_size, roots)]


def start_nodes(
    system: _System, symbols: Iterable[Symbol], max_size: int, roots: Optional[SymbolKind]
) -> list[tuple[int, int]]:
    """(size, node) per term of basic_terms(symbols, max_size, roots), in
    its order, numbered in system size by size."""
    syms = sorted(symbols, key=lambda s: (s.arity, s.name))
    heads = [s for s in syms if roots in (None, s.kind)]
    constructors = [s for s in syms if s.kind is SymbolKind.CONSTRUCTOR]
    by_size: list[list[int]] = [[]]  # the argument nodes of each size below max_size
    out: list[tuple[int, int]] = []
    for k in range(max_size):
        new = [i for f in heads for i in _apps(system, f, by_size, k)]
        out += [(k + 1, i) for i in new]
        if roots is not None and k + 1 < max_size:  # the arguments are constructor terms
            new = [i for f in constructors for i in _apps(system, f, by_size, k)]
        by_size.append(new)  # with roots None, every ground term is an argument
    return out


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

