"""Dependency graph estimation.

Nodes are the DP rules of a problem.  An edge (d1, d2, i) says the i-th
right-hand side component of d1 may, after some non-DP rewriting, become an
instance of d2's left-hand side.  Reachability is over-approximated with
tcap: a subterm is replaced by a fresh variable whenever some non-DP rule
could rewrite it at the root.  The chains of derivation trees that the
estimate must cover are the tests' reference, in tests/conftest.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .framework import Problem
from .rewriting import Rule
from .terms import App, Term, Var, components, fresh_var, rename_apart, unify_terms


def tcap(t: Term, lhss: Sequence[Term]) -> Term:
    """Cap t from below: fresh variable wherever a root step is possible.

    lhss are left-hand sides renamed apart once: the capped term has only
    variables made after them, and each unification keeps its own bindings.
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

    def is_forward_closed(self, dps: Iterable[Rule]) -> bool:
        members = set(dps)
        return self.successors(members) <= members

    def forward_closure(self, dps: Iterable[Rule]) -> frozenset[Rule]:
        closed = set(dps)
        frontier = list(closed)
        while frontier:
            nxt = self.successors(frontier) - closed
            closed |= nxt
            frontier = list(nxt)
        return frozenset(closed)


def estimate_dg(p: Problem) -> DepGraph:
    """Over-approximate the dependency graph of a DP problem.

    Only the non-DP rules drive tcap; the evaluation strategy is ignored,
    which keeps the estimate sound for every Q.
    """
    if not p.is_dp_problem():
        raise ValueError("dependency graph needs a DP problem")
    dps = p.dps
    base = [rename_apart(r.lhs) for r in p.strict_trs + p.weak_trs]
    targets = [(d2, rename_apart(d2.lhs)) for d2 in dps]
    edges = set()
    for d1 in dps:
        for i, comp in enumerate(components(d1.rhs), start=1):
            capped = tcap(comp, base)
            for d2, lhs in targets:
                if unify_terms(capped, lhs) is not None:
                    edges.add((d1, d2, i))
    return DepGraph(dps, frozenset(edges))


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
