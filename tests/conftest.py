from __future__ import annotations

import functools
import pathlib
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import pytest
from hypothesis import strategies as st

from polytrs.dependency_pairs import dt_problem
from polytrs.framework import Problem
from polytrs.interpretations import PolyInterp, SymbolPoly
from polytrs.parsing import parse_file
from polytrs.processors import default_strategy
from polytrs.rewriting import OracleResult, q_successors
from polytrs.terms import (
    App,
    Rule,
    SymbolKind,
    Term,
    Var,
    components,
    fresh_var,
    render,
    variables,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

# On all ground terms every symbol needs [f](x1..xn) = x1 + ... + xn + c.
# Without that shape, one search at cap 3 picks [f] = x, [g] = 3x + 3,
# which bounds no derivation, and the proof is lost.
FULL_START = """(VAR x)
(RULES
  g(c(f(x), f(z))) -> c(z, s(s(x)))
  g(s(f(x))) -> s(s(g(z)))
)
(STARTTERM FULL)
"""


# Positions address subterms by 1-based argument indices; () is the root.
# The library's steps carry no position; these are the tests' reference.
Position = tuple[int, ...]


class InvalidPositionError(ValueError):
    pass


def positions(t: Term) -> list[Position]:
    """All positions in leftmost-outermost (preorder) order."""
    out: list[Position] = []

    def walk(s: Term, p: Position) -> None:
        out.append(p)
        if isinstance(s, App):
            for i, a in enumerate(s.args, start=1):
                walk(a, p + (i,))

    walk(t, ())
    return out


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            raise InvalidPositionError(f"position {p} not in {render(t)}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, p: Position, s: Term) -> Term:
    if not p:
        return s
    if not isinstance(t, App) or not 1 <= p[0] <= len(t.args):
        raise InvalidPositionError(f"position {p} not in {render(t)}")
    i = p[0]
    args = list(t.args)
    args[i - 1] = replace_at(args[i - 1], p[1:], s)
    return App(t.sym, tuple(args))


def reference_heights(
    t: Term, strict: Sequence[Rule], weak: Sequence[Rule], q: Sequence[Rule], budget: int
) -> OracleResult:
    """The oracles' definition, over every interleaving of steps: the most
    strict steps on a derivation from t, or AtLeast(budget) when a derivation
    takes more than budget steps, weak ones included, or reaches a cycle."""
    rules, counted = (*strict, *weak), set(strict)
    memo: dict[Term, tuple[int, int]] = {}  # term: (longest, most strict)
    on_path: set[Term] = set()

    def walk(u: Term, depth: int) -> Optional[tuple[int, int]]:
        if u in memo:
            return memo[u]
        if u in on_path or depth > budget:
            return None
        on_path.add(u)
        longest = most = 0
        # rules are compared by equality: q_successors returns the rules of
        # a system shared by every equal rule tuple
        for rule, v in q_successors(u, rules, q):
            h = walk(v, depth + 1)
            if h is None:
                return None
            longest, most = max(longest, h[0] + 1), max(most, h[1] + (rule in counted))
        on_path.remove(u)
        memo[u] = longest, most
        return memo[u]

    h = walk(t, 0)
    if h is None or h[0] > budget:
        return OracleResult.at_least(budget)
    return OracleResult.exactly(h[1])


# Substitutions, which only the tests apply: the library asks only whether a
# unifier exists, and renames nothing.
Substitution = Mapping[str | int, Term]


def apply_subst(t: Term, sigma: Substitution) -> Term:
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    return App(t.sym, tuple(apply_subst(a, sigma) for a in t.args))


def apply_bindings(t: Term, sigma: Substitution) -> Term:
    """t under triangular bindings, such as unify_terms returns, applied
    until nothing changes."""
    while (u := apply_subst(t, sigma)) != t:
        t = u
    return t


def rename_apart(t: Term) -> Term:
    """Replace every variable of t consistently by a fresh one."""
    return apply_subst(t, {x: fresh_var() for x in variables(t)})


# Pointwise values of an interpretation, the reference for its polynomials.
def apply_values(sp: SymbolPoly, args: Sequence[int]) -> int:
    return sp.const + sum(l * v + s * v * v for v, l, s in zip(args, sp.lin, sp.sq))


def eval_term(interp: PolyInterp, t: Term, env: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        return env[t.name]
    return apply_values(interp.entries[t.sym], [eval_term(interp, a, env) for a in t.args])


def sym(problem, name, kind):
    for s in problem.signature:
        if s.name == name and s.kind is kind:
            return s
    raise LookupError(f"{name}/{kind} not in signature")


def constructor(problem, name):
    return sym(problem, name, SymbolKind.CONSTRUCTOR)


def defined(problem, name):
    return sym(problem, name, SymbolKind.DEFINED)


def marked_sym(problem, name):
    return sym(problem, name, SymbolKind.MARKED)


@pytest.fixture(scope="session")
def mult_problem():
    return parse_file(str(ROOT / "problems" / "mult.trs"))


@pytest.fixture(scope="session")
def exp_problem():
    return parse_file(str(ROOT / "problems" / "exp.trs"))


@pytest.fixture(scope="session")
def mult_dt(mult_problem):
    return dt_problem(mult_problem)


@pytest.fixture(scope="session")
def exp_dt(exp_problem):
    return dt_problem(exp_problem)


@pytest.fixture(scope="session")
def mult_proof(mult_problem):
    return default_strategy(mult_problem)


@pytest.fixture(scope="session")
def exp_proof(exp_problem):
    return default_strategy(exp_problem)


# Small constructor-based systems, as text, for the fuzzers.
CONSTRUCTORS = {"s": 1, "cons": 2}  # and the constants 0 and nil
DEFINED = {"f": 1, "g": 2, "h": 1}


def terms(leaves: list[str], arities: dict[str, int]) -> st.SearchStrategy[str]:
    """Small terms over the leaves and the symbols of the given arities, as
    text."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            *(
                st.tuples(*[inner] * n).map(lambda args, f=f: f"{f}({', '.join(args)})")
                for f, n in arities.items()
            )
        ),
        max_leaves=4,
    )


PATTERNS = terms(["x", "y", "0", "nil"], CONSTRUCTORS)
# per set of left-hand side variables
RIGHT_SIDES = {
    vs: terms([*vs, "0", "nil"], {**CONSTRUCTORS, **DEFINED})
    for vs in [(), ("x",), ("y",), ("x", "y")]
}


@st.composite
def rule_texts(draw) -> str:
    root = draw(st.sampled_from(sorted(DEFINED)))
    args = [draw(PATTERNS) for _ in range(DEFINED[root])]
    variables = tuple(sorted({v for a in args for v in re.findall(r"\b[xy]\b", a)}))
    return f"{root}({', '.join(args)}) -> {draw(RIGHT_SIDES[variables])}"


@st.composite
def systems(draw, weak: bool = False, extra: Sequence[str] = ()) -> str:
    """Innermost or not; up to two rules of extra beside the drawn ones; with
    weak, each rule is weak or strict."""
    rules = draw(st.lists(rule_texts(), min_size=1, max_size=3))
    if extra:
        rules += draw(st.lists(st.sampled_from(extra), max_size=2))
    if weak:
        rules = [r.replace(" -> ", " ->= ") if draw(st.booleans()) else r for r in rules]
    strategy = "(STRATEGY INNERMOST)" if draw(st.booleans()) else ""
    return f"(VAR x y)(RULES {' '.join(rules)}){strategy}(STARTTERM CONSTRUCTOR-BASED)"


# Derivation trees (the paper's reference for the dependency-pair
# transformations) and the chains along them, which the estimated
# dependency graph must cover.  The library does not use them.


@dataclass(frozen=True)
class DerivationTree:
    """A node labeled by a term; an applied rule rewrites the label to the
    grouped children.  Leaves carry no rule."""

    label: Term
    rule: Optional[Rule]
    children: tuple["DerivationTree", ...] = ()

    def __str__(self) -> str:
        if self.rule is None:
            return render(self.label)
        inner = ", ".join(str(c) for c in self.children)
        return f"{render(self.label)} -[{self.rule.label}]-> [{inner}]"


def leaf(t: Term) -> DerivationTree:
    return DerivationTree(t, None, ())


@functools.cache
def tree_edges(tr: DerivationTree) -> int:
    """Number of rule applications in the tree (each grouped step is one)."""
    own = 0 if tr.rule is None else 1
    return own + sum(tree_edges(c) for c in tr.children)


def tree_size_restricted(tr: DerivationTree, rules: Iterable[Rule]) -> int:
    """Number of applications of the given rules in the tree."""
    wanted = frozenset(rules)

    def count(node: DerivationTree) -> int:
        own = 1 if node.rule in wanted else 0
        return own + sum(count(c) for c in node.children)

    return count(tr)


def trim(tr: DerivationTree, rules: Iterable[Rule]) -> DerivationTree:
    """Drop every subtree hanging off an edge not labeled by the given rules."""
    wanted = frozenset(rules)

    def walk(node: DerivationTree) -> DerivationTree:
        if node.rule is None or node.rule not in wanted:
            return leaf(node.label)
        return DerivationTree(node.label, node.rule, tuple(walk(c) for c in node.children))

    return walk(tr)


def enumerate_derivation_trees(
    p: Problem, start: Term, budget: int
) -> Iterator[DerivationTree]:
    """All derivation trees from start with at most budget rule applications,
    structurally deduplicated, in a fixed deterministic order."""
    rules = p.all_rules
    q = p.q
    memo: dict[tuple[Term, int], tuple[DerivationTree, ...]] = {}

    def trees(u: Term, b: int) -> tuple[DerivationTree, ...]:
        key = (u, b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out: dict[DerivationTree, None] = {leaf(u): None}
        if b >= 1:
            for rule, v in q_successors(u, rules, q):
                for forest in forests(components(v), b - 1):
                    out.setdefault(DerivationTree(u, rule, forest), None)
        result = tuple(out)
        memo[key] = result
        return result

    def forests(
        parts: tuple[Term, ...], b: int
    ) -> Iterator[tuple[DerivationTree, ...]]:
        if not parts:
            yield ()
            return
        for head in trees(parts[0], b):
            rest_budget = b - tree_edges(head)
            for tail in forests(parts[1:], rest_budget):
                yield (head,) + tail

    yield from trees(start, budget)


def tree_size_oracle(p: Problem, start: Term, budget: int) -> OracleResult:
    """Largest strict-rule application count over derivation trees from start.

    Exact only when no enumerated tree already uses the whole edge budget;
    otherwise larger trees may have been cut off and the value is a lower
    bound.
    """
    strict = frozenset(p.strict)
    best = 0
    widest = 0
    for tr in enumerate_derivation_trees(p, start, budget):
        best = max(best, tree_size_restricted(tr, strict))
        widest = max(widest, tree_edges(tr))
    if widest >= budget:
        return OracleResult.at_least(best)
    return OracleResult.exactly(best)


def chains_of(tree: DerivationTree, p: Problem) -> frozenset[tuple[str, ...]]:
    """DP-labelled edge sequences along root-to-leaf paths of a tree.

    Every maximal path contributes the sequence of DP rules applied along
    it, in order; nodes rewritten with non-DP rules are passed through.
    Paths without any DP step contribute nothing.
    """
    dp_labels = {d.label for d in p.dps}
    chains: set[tuple[str, ...]] = set()

    def walk(node: DerivationTree, acc: tuple[str, ...]) -> None:
        if node.rule is not None and node.rule.label in dp_labels:
            acc = acc + (node.rule.label,)
        if not node.children:
            if acc:
                chains.add(acc)
            return
        for child in node.children:
            walk(child, acc)

    walk(tree, ())
    return frozenset(chains)
