"""Complexity problems, asymptotic bounds, and judgements.

A problem is a pair of rule sets (strict rules to be counted, weak rules that
are free), a set Q restricting where rules may fire, and a class of start
terms.  The judgement "problem has bound f" says the longest derivation from
any start term of size n contains O(f(n)) strict steps.

A problem stores only its rule lists, Q and the kind of its start terms.  A
rule is a dependency pair because it sits in a *_dps list, and the signature
is the set of symbols its rules and Q use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Optional

from . import rewriting
from .rewriting import Heights, OracleResult, start_nodes
from .terms import (
    Rule, Symbol, SymbolKind, Term, check_labels, match_term, symbols_of, unmark
)


@dataclass(frozen=True)
class Bound:
    """Poly(degree) or Unknown; Unknown absorbs under both operations."""

    degree: Optional[int] = None

    @classmethod
    def poly(cls, degree: int) -> "Bound":
        if degree.__class__ is not int or degree < 0:  # also rejects bool
            raise ValueError(f"bound degree {degree!r} is not an integer >= 0")
        return cls(degree)

    @classmethod
    def unknown(cls) -> "Bound":
        return cls(None)

    @property
    def is_unknown(self) -> bool:
        return self.degree is None

    def __str__(self) -> str:
        if self.is_unknown:
            return "?"
        if self.degree == 0:
            return "O(1)"
        return f"O(n^{self.degree})"


def bound_add(a: Bound, b: Bound) -> Bound:
    """Bound for a sum of derivation counts: the larger degree."""
    if a.is_unknown or b.is_unknown:
        return Bound.unknown()
    return Bound.poly(max(a.degree, b.degree))


def bound_mul(a: Bound, b: Bound) -> Bound:
    """Bound for a product of derivation counts: degrees add."""
    if a.is_unknown or b.is_unknown:
        return Bound.unknown()
    return Bound.poly(a.degree + b.degree)


class StartKind(enum.Enum):
    """Basic terms (runtime), their marked versions after a dependency-pair
    transformation, or all ground terms (derivational)."""

    ALL = "all"
    BASIC = "basic"
    MARKED_BASIC = "marked_basic"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Problem:
    """<strict / weak, Q, start terms> with dependency pairs kept apart."""

    strict_dps: tuple[Rule, ...]
    strict_trs: tuple[Rule, ...]
    weak_dps: tuple[Rule, ...]
    weak_trs: tuple[Rule, ...]
    q: tuple[Rule, ...]
    start_terms: StartKind

    def __post_init__(self) -> None:
        check_labels(self.strict_dps + self.strict_trs + self.weak_dps + self.weak_trs)
        for r in self.strict_dps + self.weak_dps:
            if r.lhs.sym.kind is not SymbolKind.MARKED:
                raise ValueError(f"rule {r.label} is not a well-formed DP")

    @property
    def strict(self) -> tuple[Rule, ...]:
        return self.strict_dps + self.strict_trs

    @property
    def weak(self) -> tuple[Rule, ...]:
        return self.weak_dps + self.weak_trs

    @property
    def all_rules(self) -> tuple[Rule, ...]:
        return self.strict + self.weak

    @property
    def dps(self) -> tuple[Rule, ...]:
        return self.strict_dps + self.weak_dps

    @property
    def signature(self) -> frozenset[Symbol]:
        """The symbols of the rules and Q, compound symbols included."""
        return frozenset(
            s for r in self.all_rules + self.q for s in symbols_of(r.lhs) | symbols_of(r.rhs)
        )

    def is_dp_problem(self) -> bool:
        return self.start_terms is StartKind.MARKED_BASIC

    def __str__(self) -> str:
        def lbls(rs: tuple[Rule, ...]) -> str:
            return "{" + ",".join(r.label for r in rs) + "}"

        q = "Q=S+W" if set(self.q) == set(self.all_rules) else f"Q={len(self.q)} rules"
        return f"<{lbls(self.strict)} / {lbls(self.weak)}, {q}, {self.start_terms}>"


def problems_equal(a: Problem, b: Problem) -> bool:
    """Component-wise equality up to rule order."""
    return (
        set(a.strict_dps) == set(b.strict_dps)
        and set(a.strict_trs) == set(b.strict_trs)
        and set(a.weak_dps) == set(b.weak_dps)
        and set(a.weak_trs) == set(b.weak_trs)
        and set(a.q) == set(b.q)
        and a.start_terms == b.start_terms
    )


@dataclass(frozen=True)
class Judgement:
    problem: Problem
    bound: Bound


def is_innermost(p: Problem) -> bool:
    """Sufficient syntactic check: every lhs of strict+weak is an instance of
    some lhs of Q.  Marked roots are compared unmarked, so the property
    survives the dependency-pair transformations."""
    if not p.q:
        return not p.all_rules
    for r in p.all_rules:
        lhs = unmark(r.lhs)
        if not any(match_term(qr.lhs, lhs) is not None for qr in p.q):
            return False
    return True


def _start_symbols(p: Problem) -> tuple[frozenset[Symbol], Optional[SymbolKind]]:
    """basic_terms' symbols and root kind (None: all ground terms) for p's start terms."""
    roots = {StartKind.BASIC: SymbolKind.DEFINED, StartKind.MARKED_BASIC: SymbolKind.MARKED}
    symbols = frozenset(s for s in p.signature if s.kind is not SymbolKind.COMPOUND)
    return symbols, roots.get(p.start_terms)


def start_terms_up_to(p: Problem, n: int) -> list[Term]:
    """Concrete start terms of size at most n, for the oracles."""
    symbols, roots = _start_symbols(p)
    return rewriting.basic_terms(symbols, n, roots)


def cc_rows(p: Problem, n: int, budget: int) -> Iterator[OracleResult]:
    """cc_oracle(p, k, budget) for k = 0..n, each reached term solved once.

    Start terms are explored in size order, and row k is yielded as soon as
    every term of size at most k is done.  At the first start term with a
    derivation longer than budget steps, weak ones included, or a cycle, at
    size k, rows k..n are AtLeast(budget), as each of them would be.
    """
    heights = Heights(p.strict, p.weak, p.q, budget)
    symbols, roots = _start_symbols(p)
    best = done = 0  # done: rows yielded so far
    for k, start in start_nodes(heights.system, symbols, n, roots) if p.strict else ():
        if k > done:
            yield from repeat(OracleResult.exactly(best), k - done)
            done = k
        h = heights(start)
        if h is None:
            yield from repeat(OracleResult.at_least(budget), n + 1 - done)
            return
        best = max(best, h)
    yield from repeat(OracleResult.exactly(best), n + 1 - done)


def cc_oracle(p: Problem, n: int, budget: int) -> OracleResult:
    """Worst number of strict steps over all start terms of size at most n."""
    *_, last = cc_rows(p, n, budget)
    return last
