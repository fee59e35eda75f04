from __future__ import annotations

import pytest

from polytrs.dependency_pairs import (
    constructor_prefix_components,
    defined_rooted_subterms,
    dependency_tuple,
    dt_problem,
    weak_dependency_pair,
    wdp_problem,
)
from polytrs.framework import StartKind, Problem
from polytrs.rewriting import OracleResult, q_successors, strict_step_oracle
from polytrs.terms import (
    App,
    SymbolKind,
    Var,
    com,
    components,
    compound,
    marked,
    render,
    symbols_of,
)
from tests.conftest import (
    DerivationTree,
    constructor,
    defined,
    enumerate_derivation_trees,
    leaf,
    marked_sym,
    tree_edges,
    tree_size_oracle,
    tree_size_restricted,
    trim,
)


def num(p, n):
    t = App(constructor(p, "0"))
    for _ in range(n):
        t = App(constructor(p, "s"), (t,))
    return t


class TestComponents:
    def test_prefix_stops_at_defined_root(self, mult_problem):
        rule = mult_problem.strict_trs[3]  # times(s(x), y) -> plus(y, times(x, y))
        assert constructor_prefix_components(rule.rhs) == [rule.rhs]

    def test_prefix_descends_constructors(self, exp_problem):
        rule = exp_problem.strict_trs[1]  # d(s(x)) -> s(s(d(x)))
        comps = constructor_prefix_components(rule.rhs)
        assert [render(c) for c in comps] == ["d(x)"]

    def test_variable_is_a_component(self, mult_problem):
        rule = mult_problem.strict_trs[0]  # plus(0, y) -> y
        assert constructor_prefix_components(rule.rhs) == [Var("y")]

    def test_defined_subterms_preorder(self, mult_problem):
        rule = mult_problem.strict_trs[3]
        subs = defined_rooted_subterms(rule.rhs)
        assert [render(t) for t in subs] == ["plus(y, times(x, y))", "times(x, y)"]


class TestTransforms:
    def test_wdp_single_component(self, mult_problem):
        dp = weak_dependency_pair(mult_problem.strict_trs[3], "w")
        assert render(dp.lhs) == "times#(s(x), y)"
        assert render(dp.rhs) == "plus#(y, times(x, y))"
        # a DP by its slot: the transformed problem lists it among its strict DPs
        assert weak_dependency_pair(mult_problem.strict_trs[3], "4") in (
            wdp_problem(mult_problem).strict_dps
        )

    def test_wdp_collapsing(self, mult_problem):
        dp = weak_dependency_pair(mult_problem.strict_trs[0], "w")
        assert dp.rhs == Var("y")

    def test_wdp_dt_coincide_on_exp_doubling(self, exp_problem):
        rule = exp_problem.strict_trs[1]
        assert weak_dependency_pair(rule, "x").rhs == dependency_tuple(rule, "x").rhs

    def test_dt_all_defined_subterms(self, mult_problem):
        dp = dependency_tuple(mult_problem.strict_trs[3], "t")
        assert render(dp.rhs) == "c_2(plus#(y, times(x, y)), times#(x, y))"

    def test_dt_no_calls_gives_nullary_compound(self, mult_problem):
        dp = dependency_tuple(mult_problem.strict_trs[2], "t")
        assert dp.rhs == App(compound(0))

    def test_dt_nested_call_order(self, exp_problem):
        dp = dependency_tuple(exp_problem.strict_trs[3], "t")
        assert render(dp.rhs) == "c_2(d#(e(x)), e#(x))"

    def test_dt_components_cover_nonvariable_wdp_components(
        self, mult_problem, exp_problem
    ):
        for p in (mult_problem, exp_problem):
            for rule in p.all_rules:
                wdp_comps = components(weak_dependency_pair(rule, "w").rhs)
                dt_comps = components(dependency_tuple(rule, "t").rhs)
                for c in wdp_comps:
                    if isinstance(c, Var):
                        continue
                    assert c in dt_comps


class TestProblemTransforms:
    def test_wdp_problem_shape(self, mult_problem):
        pw = wdp_problem(mult_problem)
        assert [r.label for r in pw.strict_dps] == ["1", "2", "3", "4"]
        assert pw.strict_trs == mult_problem.strict_trs
        assert pw.weak_dps == ()
        assert pw.start_terms is StartKind.MARKED_BASIC
        assert pw.q == mult_problem.q

    def test_dt_problem_shape(self, mult_dt, mult_problem):
        assert [r.label for r in mult_dt.strict_dps] == ["1", "2", "3", "4"]
        assert mult_dt.strict_trs == ()
        assert mult_dt.weak_trs == mult_problem.strict_trs
        assert mult_dt.start_terms is StartKind.MARKED_BASIC

    def test_wdp_requires_basic_starts(self, mult_problem):
        derivational = Problem(
            strict_dps=(),
            strict_trs=mult_problem.strict_trs,
            weak_dps=(),
            weak_trs=(),
            q=(),
            start_terms=StartKind.ALL,
        )
        with pytest.raises(ValueError):
            wdp_problem(derivational)

    def test_dt_requires_innermost(self, mult_problem):
        full = Problem(
            strict_dps=(),
            strict_trs=mult_problem.strict_trs,
            weak_dps=(),
            weak_trs=(),
            q=(),
            start_terms=StartKind.BASIC,
        )
        with pytest.raises(ValueError):
            dt_problem(full)

    def test_signature_gains_marked_and_compounds(self, mult_dt):
        kinds = {s.kind for s in mult_dt.signature}
        assert SymbolKind.MARKED in kinds and SymbolKind.COMPOUND in kinds


class TestDerivationTrees:
    def test_normal_form_single_leaf(self, mult_dt):
        t = num(mult_dt, 2)
        assert list(enumerate_derivation_trees(mult_dt, t, 10)) == [leaf(t)]

    def test_zero_budget_single_leaf(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 1), num(mult_dt, 1)))
        assert list(enumerate_derivation_trees(mult_dt, start, 0)) == [leaf(start)]

    def test_enumeration_deterministic(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 2), num(mult_dt, 1)))
        one = list(enumerate_derivation_trees(mult_dt, start, 12))
        two = list(enumerate_derivation_trees(mult_dt, start, 12))
        assert one == two

    def test_budget_bounds_edges(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 2), num(mult_dt, 1)))
        for tr in enumerate_derivation_trees(mult_dt, start, 9):
            assert tree_edges(tr) <= 9

    def test_full_normalization_tree_counts(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 2), num(mult_dt, 1)))
        trees = list(enumerate_derivation_trees(mult_dt, start, 20))
        assert len(trees) == 64
        counts = {tree_size_restricted(t, mult_dt.dps) for t in trees}
        assert 3 in counts
        assert max(counts) == 7

    def test_nodes_certified_by_rewrite_engine(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 1), num(mult_dt, 1)))

        def check(node: DerivationTree) -> None:
            if node.rule is None:
                assert node.children == ()
                return
            reducts = {
                v
                for rule, v in q_successors(node.label, mult_dt.all_rules, mult_dt.q)
                if rule == node.rule
            }
            assert com(tuple(c.label for c in node.children)) in reducts
            for c in node.children:
                check(c)

        for tr in enumerate_derivation_trees(mult_dt, start, 10):
            check(tr)

    def test_labels_free_of_compound_symbols(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 2), num(mult_dt, 1)))

        def labels(node):
            yield node.label
            for c in node.children:
                yield from labels(c)

        for tr in enumerate_derivation_trees(mult_dt, start, 12):
            for lab in labels(tr):
                assert all(s.kind is not SymbolKind.COMPOUND for s in symbols_of(lab))


class TestSizeAndTrim:
    def test_leaf_counts_zero(self, mult_dt):
        assert tree_size_restricted(leaf(num(mult_dt, 1)), mult_dt.all_rules) == 0

    def test_empty_rule_set_counts_zero(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 1), num(mult_dt, 1)))
        for tr in enumerate_derivation_trees(mult_dt, start, 8):
            assert tree_size_restricted(tr, ()) == 0

    def test_trim_identity_and_empty(self, mult_dt):
        start = App(marked_sym(mult_dt, "plus"), (num(mult_dt, 1), num(mult_dt, 0)))
        for tr in enumerate_derivation_trees(mult_dt, start, 8):
            assert trim(tr, mult_dt.all_rules) == tr
            assert trim(tr, ()) == leaf(tr.label)

    def test_trim_drops_suffix_below_other_edges(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 1), num(mult_dt, 1)))
        kept = mult_dt.dps
        for tr in enumerate_derivation_trees(mult_dt, start, 10):
            cut = trim(tr, kept)
            assert tree_size_restricted(cut, mult_dt.all_rules) == tree_size_restricted(
                cut, kept
            )
            assert tree_size_restricted(cut, kept) <= tree_size_restricted(tr, kept)


class TestTreeSizeOracle:
    def test_matches_strict_step_oracle(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 1), num(mult_dt, 1)))
        a = tree_size_oracle(mult_dt, start, 12)
        b = strict_step_oracle(start, mult_dt.strict, mult_dt.weak, mult_dt.q, 12)
        assert a.exact and b.exact and a.value == b.value

    def test_truncation_reported(self, mult_dt):
        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 2), num(mult_dt, 1)))
        assert not tree_size_oracle(mult_dt, start, 3).exact
        assert tree_size_oracle(mult_dt, start, 30) == OracleResult.exactly(
            strict_step_oracle(start, mult_dt.strict, mult_dt.weak, mult_dt.q, 30).value
        )
