"""Dependency graph estimation.

Nodes are the DP rules of a problem.  An edge (d1, d2, i) says the i-th
right-hand side component of d1 may, after some non-DP rewriting, become an
instance of d2's left-hand side.  Reachability is over-approximated with
tcap: a subterm is replaced by a fresh variable whenever some non-DP rule
could rewrite it at the root.  Capped terms hold only fresh variables, so
nothing is renamed.  The chains of derivation trees that the estimate must
cover are the tests' reference, in tests/conftest.py.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Collection, Iterable

from .framework import Problem
from .terms import App, Rule, Term, Var, components, fresh_var, render, unify_terms


def tcap(t: Term, lhss: Collection[Term]) -> Term:
    """Cap t from below: fresh variable wherever a root step is possible.

    lhss are left-hand sides as written: the capped term's variables are all
    fresh, and no input variable is, so the two share none.
    """
    if isinstance(t, Var):
        return fresh_var()
    capped = App(t.sym, tuple(tcap(a, lhss) for a in t.args))
    for lhs in lhss:
        if unify_terms(capped, lhs) is not None:
            return fresh_var()
    return capped


Edge = tuple[Rule, Rule, int]


@dataclass(frozen=True)
class DepGraph:
    nodes: tuple[Rule, ...]
    edges: frozenset[Edge]

    def successors(self, dps: Iterable[Rule]) -> frozenset[Rule]:
        sources = set(dps)
        return frozenset(dst for src, dst, _ in self.edges if src in sources)

    def predecessors(self, dps: Iterable[Rule]) -> frozenset[Rule]:
        targets = set(dps)
        return frozenset(src for src, dst, _ in self.edges if dst in targets)

    def closure(self, dps: Iterable[Rule], step: Callable) -> frozenset[Rule]:
        """dps and all that step, successors or predecessors, reaches from them."""
        closed = frontier = frozenset(dps)
        while frontier:
            frontier = step(frontier) - closed
            closed |= frontier
        return closed


def estimate_dg(p: Problem) -> DepGraph:
    """Over-approximate the dependency graph of a DP problem.

    Only the non-DP rules drive tcap; the evaluation strategy is ignored,
    which keeps the estimate sound for every Q.
    """
    if not p.is_dp_problem():
        raise ValueError("dependency graph needs a DP problem")
    base = frozenset(r.lhs for r in p.strict_trs + p.weak_trs)
    return DepGraph(p.dps, _edges(frozenset(p.dps), base))


@functools.lru_cache(maxsize=64)
def _edges(dps: frozenset[Rule], base: frozenset[App]) -> frozenset[Edge]:
    """The edges among dps under the left-hand sides base: problems that
    differ only in which pairs are strict share them."""
    lhss = sorted(base, key=render)  # one order, so tcap does the same work in every run
    edges = set()
    for d1 in dps:
        for i, comp in enumerate(components(d1.rhs), start=1):
            capped = tcap(comp, lhss)
            for d2 in dps:
                if unify_terms(capped, d2.lhs) is not None:
                    edges.add((d1, d2, i))
    return frozenset(edges)


def sep(dps: Iterable[Rule]) -> tuple[Rule, ...]:
    """Split each DP into one rule per right-hand side component.

    The split rules over-approximate a single DP step projected to one
    component; labels get a suffix a, ..., z, aa, ab, ... to stay unique.
    """
    return tuple(
        Rule(d.lhs, comp, d.label + _suffix(i))
        for d in dps
        for i, comp in enumerate(components(d.rhs))
    )


def _suffix(i: int) -> str:
    """The i-th (from 0) of a, ..., z, aa, ab, ..., shorter ones first."""
    out = ""
    i += 1
    while i:
        i, letter = divmod(i - 1, 26)
        out = chr(ord("a") + letter) + out
    return out


def to_dot(g: DepGraph) -> str:
    """Render the graph in DOT format, deterministically ordered."""
    lines = ["digraph dependency_graph {"]
    for node in g.nodes:
        lines.append(f'  "{node.label}" [label="{node.label}: {node}"];')
    for src, dst, i in sorted(
        g.edges, key=lambda e: (e[0].label, e[1].label, e[2])
    ):
        lines.append(f'  "{src.label}" -> "{dst.label}" [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)
