"""Dependency-pair and dependency-tuple transformations.

A weak dependency pair keeps only what lies below the maximal constructor
prefix of a right-hand side (variables included, so collapsing pairs happen).
A dependency tuple records every defined-rooted subterm of the right-hand
side and is only sound for innermost problems.  The derivation trees that
justify both are the tests' reference, in tests/conftest.py.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable

from .framework import Problem, StartKind, is_innermost
from .terms import App, Rule, SymbolKind, Term, com, mark, marked, subterms


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
    return [s for s in subterms(t) if isinstance(s, App) and s.sym.kind is SymbolKind.DEFINED]


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
