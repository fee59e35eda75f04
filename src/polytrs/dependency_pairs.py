"""Dependency-pair and dependency-tuple transformations, plus the derivation
trees that justify them.

A weak dependency pair keeps only what lies below the maximal constructor
prefix of a right-hand side (variables included, so collapsing pairs happen).
A dependency tuple records every defined-rooted subterm of the right-hand
side and is only sound for innermost problems.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

from .framework import Problem, StartKind, is_innermost
from .rewriting import OracleResult, Rule, q_successors
from .terms import (
    App,
    SymbolKind,
    Term,
    com,
    components,
    mark,
    marked,
    render,
    subterms,
)


def constructor_prefix_components(t: Term) -> list[Term]:
    """Maximal subterms of t that do not sit below a non-constructor symbol:
    descend through constructor roots, stop at anything else."""
    if isinstance(t, App) and t.sym.kind is SymbolKind.CONSTRUCTOR:
        out: list[Term] = []
        for a in t.args:
            out.extend(constructor_prefix_components(a))
        return out
    return [t]


def defined_rooted_subterms(t: Term) -> list[Term]:
    """Subterms with a defined root, leftmost-outermost order."""
    return [
        s
        for s in subterms(t)
        if isinstance(s, App) and s.sym.kind is SymbolKind.DEFINED
    ]


def _marked_pair(
    rule: Rule, label: str, parts: Callable[[Term], list[Term]]
) -> Rule:
    rhs = com(tuple(mark(c) for c in parts(rule.rhs)))
    return Rule(App(marked(rule.lhs.sym), rule.lhs.args), rhs, label)


def weak_dependency_pair(rule: Rule, label: str) -> Rule:
    return _marked_pair(rule, label, constructor_prefix_components)


def dependency_tuple(rule: Rule, label: str) -> Rule:
    return _marked_pair(rule, label, defined_rooted_subterms)


def _dp_problem(
    p: Problem, pair: Callable[[Rule, str], Rule], rules_stay_strict: bool
) -> Problem:
    """One marked pair per rule, labelled 1, 2, ... over strict then weak
    rules; the original rules stay where they are or all become weak."""
    labels = map(str, itertools.count(1))
    strict_dps = tuple(pair(r, next(labels)) for r in p.strict)
    weak_dps = tuple(pair(r, next(labels)) for r in p.weak)
    return replace(
        p,
        strict_dps=strict_dps,
        strict_trs=p.strict if rules_stay_strict else (),
        weak_dps=weak_dps,
        weak_trs=p.weak if rules_stay_strict else p.strict + p.weak,
        start_terms=StartKind.MARKED_BASIC,
    )


def wdp_problem(p: Problem) -> Problem:
    """Replace the start terms by their marked versions and add the weak
    dependency pairs on top of the original rules."""
    if p.start_terms is not StartKind.BASIC:
        raise ValueError("weak dependency pairs need basic start terms")
    return _dp_problem(p, weak_dependency_pair, rules_stay_strict=True)


def dt_problem(p: Problem) -> Problem:
    """Dependency tuples: all defined activity moves into the marked layer,
    the original rules all become weak.  Innermost problems only."""
    if p.start_terms is not StartKind.BASIC:
        raise ValueError("dependency tuples need basic start terms")
    if not is_innermost(p):
        raise ValueError("dependency tuples need an innermost problem")
    return _dp_problem(p, dependency_tuple, rules_stay_strict=False)


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
