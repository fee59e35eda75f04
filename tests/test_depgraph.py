from __future__ import annotations

import dataclasses

import pytest

from polytrs.dependency_pairs import dt_problem
from polytrs.depgraph import DepGraph, estimate_dg, sep, tcap, to_dot
from polytrs.framework import Problem
from polytrs.parsing import parse_file, parse_problem
from polytrs.processors import StrategyConfig, default_strategy
from polytrs.proofs import iter_nodes
from polytrs.terms import (
    App,
    SymbolKind,
    Var,
    components,
    fresh_var,
    rename_apart,
    render,
)
from tests.conftest import (
    ROOT,
    chains_of,
    constructor,
    enumerate_derivation_trees,
    leaf,
    marked_sym,
)
from tests.test_terms import reference_unify


def num(p, n):
    t = App(constructor(p, "0"))
    for _ in range(n):
        t = App(constructor(p, "s"), (t,))
    return t


def by_label(p, *labels):
    wanted = set(labels)
    return tuple(d for d in p.dps if d.label in wanted)


def edge_labels(g):
    return {(src.label, dst.label) for src, dst, _ in g.edges}


def lhss(rules):
    return [rename_apart(r.lhs) for r in rules]


# The per-pair-renaming tcap and estimate_dg over the substitute-every-step
# unifier, kept as the reference for the estimate's edges.
def reference_tcap(t, rules):
    if isinstance(t, Var):
        return fresh_var()
    capped = App(t.sym, tuple(reference_tcap(a, rules) for a in t.args))
    for r in rules:
        if reference_unify(capped, rename_apart(r.lhs)) is not None:
            return fresh_var()
    return capped


def reference_edges(p):
    dps = p.dps
    base = p.strict_trs + p.weak_trs
    edges = set()
    for d1 in dps:
        for i, comp in enumerate(components(d1.rhs), start=1):
            capped = reference_tcap(comp, base)
            for d2 in dps:
                if reference_unify(capped, rename_apart(d2.lhs)) is not None:
                    edges.add((d1, d2, i))
    return frozenset(edges)


CORPUS = sorted((ROOT / "bench" / "problems").glob("*.trs")) + sorted(
    (ROOT / "problems").glob("*.trs")
)


class TestTcap:
    def test_redex_shaped_term_collapses(self, mult_problem):
        rules = mult_problem.strict_trs
        t = App(defined_times(mult_problem), (Var("x"), Var("y")))
        assert isinstance(tcap(t, lhss(rules)), Var)

    def test_constructor_spine_survives(self, mult_problem):
        rules = mult_problem.strict_trs
        capped = tcap(num_term(mult_problem, 1), lhss(rules))
        assert isinstance(capped, App) and capped.sym.name == "s"
        assert isinstance(capped.args[0], App) and capped.args[0].sym.name == "0"

    def test_variables_are_refreshed(self, mult_problem):
        capped = tcap(Var("x"), lhss(mult_problem.strict_trs))
        assert isinstance(capped, Var) and capped != Var("x")

    def test_marked_root_keeps_shape_caps_arguments(self, mult_dt):
        t = App(
            marked_sym(mult_dt, "plus"),
            (Var("y"), App(defined_times(mult_dt), (Var("x"), Var("y")))),
        )
        capped = tcap(t, lhss(mult_dt.weak_trs))
        assert isinstance(capped, App) and capped.sym.kind is SymbolKind.MARKED
        assert all(isinstance(a, Var) for a in capped.args)

    def test_ground_redex_collapses(self, mult_problem):
        t = App(defined_plus(mult_problem), (num_term(mult_problem, 0),) * 2)
        assert isinstance(tcap(t, lhss(mult_problem.strict_trs)), Var)


def defined_times(p):
    return next(
        s for s in p.signature if s.name == "times" and s.kind is SymbolKind.DEFINED
    )


def defined_plus(p):
    return next(
        s for s in p.signature if s.name == "plus" and s.kind is SymbolKind.DEFINED
    )


def num_term(p, n):
    sig = {(s.name, s.kind): s for s in p.signature}
    t = App(sig[("0", SymbolKind.CONSTRUCTOR)])
    for _ in range(n):
        t = App(sig[("s", SymbolKind.CONSTRUCTOR)], (t,))
    return t


class TestEstimate:
    def test_requires_dp_problem(self, mult_problem):
        with pytest.raises(ValueError):
            estimate_dg(mult_problem)

    def test_mult_edges(self, mult_dt):
        g = estimate_dg(mult_dt)
        assert g.nodes == mult_dt.dps
        assert edge_labels(g) == {
            ("2", "1"),
            ("2", "2"),
            ("4", "1"),
            ("4", "2"),
            ("4", "3"),
            ("4", "4"),
        }

    def test_component_indices(self, mult_dt):
        g = estimate_dg(mult_dt)
        indexed = {(src.label, dst.label, i) for src, dst, i in g.edges}
        assert ("4", "1", 1) in indexed and ("4", "4", 2) in indexed

    def test_nullary_compound_has_no_successors(self, mult_dt):
        g = estimate_dg(mult_dt)
        assert g.successors(by_label(mult_dt, "1", "3")) == frozenset()

    def test_exp_after_simplification(self, exp_dt):
        trimmed = Problem(
            strict_dps=by_label(exp_dt, "2", "4"),
            strict_trs=(),
            weak_dps=(),
            weak_trs=exp_dt.weak_trs,
            q=exp_dt.q,
            start_terms=exp_dt.start_terms,
        )
        assert edge_labels(estimate_dg(trimmed)) == {
            ("2", "2"),
            ("4", "2"),
            ("4", "4"),
        }


class TestAgainstReference:
    @pytest.mark.parametrize(
        "path", CORPUS, ids=lambda path: str(path.relative_to(ROOT))
    )
    def test_corpus_proof_problems(self, path):
        # every DP problem of the degree-1/cap-1 proof, as the replay checks it
        config = StrategyConfig(degree_max=1, coeff_max=1)
        tree = default_strategy(parse_file(str(path)), config)
        problems = [
            node.judgement.problem
            for node in iter_nodes(tree)
            if node.judgement.problem.is_dp_problem()
        ]
        # plus_full starts from all terms: its proof is derivational, DP-free
        assert problems or path.name == "plus_full.trs"
        for p in problems:
            g = estimate_dg(p)
            assert g.nodes == p.dps
            assert g.edges == reference_edges(p)


class TestGraphQueries:
    @pytest.fixture()
    def graph(self, mult_dt):
        return estimate_dg(mult_dt)

    def test_predecessors(self, graph, mult_dt):
        pre = graph.predecessors(by_label(mult_dt, "1", "3"))
        assert {d.label for d in pre} == {"2", "4"}
        assert graph.predecessors(by_label(mult_dt, "4")) == frozenset(
            by_label(mult_dt, "4")
        )
        assert graph.predecessors(()) == frozenset()

    def test_forward_closed(self, graph, mult_dt):
        assert not graph.is_forward_closed(by_label(mult_dt, "2"))
        assert graph.is_forward_closed(by_label(mult_dt, "1", "2"))
        assert graph.is_forward_closed(by_label(mult_dt, "1", "3"))

    def test_forward_closure(self, graph, mult_dt):
        closure = graph.forward_closure(by_label(mult_dt, "2"))
        assert {d.label for d in closure} == {"1", "2"}
        everything = graph.forward_closure(by_label(mult_dt, "4"))
        assert everything == frozenset(mult_dt.dps)


class TestSep:
    def test_two_components(self, mult_dt):
        rules = sep(by_label(mult_dt, "4"))
        assert [(r.label, render(r.rhs)) for r in rules] == [
            ("4a", "plus#(y, times(x, y))"),
            ("4b", "times#(x, y)"),
        ]
        assert all(render(r.lhs) == "times#(s(x), y)" for r in rules)
        # DPs by their slot: a problem accepts them as weak DPs
        assert dataclasses.replace(mult_dt, weak_dps=rules).weak_dps == rules

    def test_nullary_compound_vanishes(self, mult_dt):
        assert sep(by_label(mult_dt, "1")) == ()

    def test_single_component_relabelled(self, mult_dt):
        (rule,) = sep(by_label(mult_dt, "2"))
        assert rule.label == "2a" and render(rule.rhs) == "plus#(x, y)"


    def test_labels_continue_after_z(self):
        # a tuple of 28 components keeps every one of them
        calls = ", ".join(f"g(s{i})" for i in range(28))
        text = f"(VAR x)(RULES f(x) -> c({calls}) g(x) -> x)(STRATEGY INNERMOST)"
        (d,) = by_label(dt_problem(parse_problem(text)), "1")
        rules = sep((d,))
        assert [r.rhs for r in rules] == list(components(d.rhs))
        assert len({r.label for r in rules}) == 28
        assert [r.label for r in rules[24:]] == ["1y", "1z", "1aa", "1ab"]


class TestChains:
    def test_leaf_has_no_chains(self, mult_dt):
        assert chains_of(leaf(num(mult_dt, 1)), mult_dt) == frozenset()

    def test_chain_union_from_small_start(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 1), num(mult_dt, 0)))
        union = set()
        for tr in enumerate_derivation_trees(mult_dt, start, 12):
            union |= chains_of(tr, mult_dt)
        assert union == {("4",), ("4", "1"), ("4", "3")}

    def test_chains_skip_non_dp_nodes(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 1), num(mult_dt, 0)))
        dp_labels = {d.label for d in mult_dt.dps}
        for tr in enumerate_derivation_trees(mult_dt, start, 12):
            for chain in chains_of(tr, mult_dt):
                assert set(chain) <= dp_labels


class TestDot:
    def test_structure_and_determinism(self, mult_dt):
        g = estimate_dg(mult_dt)
        dot = to_dot(g)
        assert dot == to_dot(estimate_dg(mult_dt))
        assert dot.splitlines()[0] == "digraph dependency_graph {"
        assert dot.splitlines()[-1] == "}"
        assert '  "4" -> "3" [label="2"];' in dot
        assert dot.count('" -> "') == len(g.edges)

    def test_empty_graph(self):
        assert to_dot(DepGraph((), frozenset())) == "digraph dependency_graph {\n}"
