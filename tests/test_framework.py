from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polytrs import rewriting
from polytrs.framework import (
    Bound,
    Problem,
    StartKind,
    bound_add,
    bound_mul,
    cc_oracle,
    cc_rows,
    is_innermost,
    problems_equal,
    start_terms_up_to,
)
from polytrs.parsing import parse_file, parse_problem
from polytrs.processors import default_strategy
from polytrs.proofs import Assumption, iter_nodes
from polytrs.rewriting import OracleResult
from polytrs.terms import App, SymbolKind
from tests.conftest import ROOT, defined, reference_heights, systems

bounds = st.one_of(
    st.just(Bound.unknown()), st.integers(min_value=0, max_value=6).map(Bound.poly)
)


class TestBoundLattice:
    def test_add_is_max_degree(self):
        assert bound_add(Bound.poly(1), Bound.poly(2)) == Bound.poly(2)

    def test_mul_is_degree_sum(self):
        assert bound_mul(Bound.poly(1), Bound.poly(1)) == Bound.poly(2)
        assert bound_mul(Bound.poly(0), Bound.poly(3)) == Bound.poly(3)

    def test_unknown_absorbs(self):
        assert bound_add(Bound.unknown(), Bound.poly(0)).is_unknown
        assert bound_mul(Bound.poly(2), Bound.unknown()).is_unknown

    @given(bounds, bounds)
    def test_commutative(self, a, b):
        assert bound_add(a, b) == bound_add(b, a)
        assert bound_mul(a, b) == bound_mul(b, a)

    @given(bounds, bounds, bounds)
    def test_associative(self, a, b, c):
        assert bound_add(bound_add(a, b), c) == bound_add(a, bound_add(b, c))
        assert bound_mul(bound_mul(a, b), c) == bound_mul(a, bound_mul(b, c))

    def test_poly_zero_identities(self):
        for d in range(4):
            assert bound_mul(Bound.poly(0), Bound.poly(d)) == Bound.poly(d)
            assert bound_add(Bound.poly(0), Bound.poly(d)) == Bound.poly(d)

    def test_str(self):
        assert str(Bound.poly(2)) == "O(n^2)"
        assert str(Bound.unknown()) == "?"

    @pytest.mark.parametrize("degree", [True, False, 1.0, -1, "2", None])
    def test_degree_is_an_int_at_least_zero(self, degree):
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            Bound.poly(degree)


class TestProblemValidation:
    def test_dp_slot_requires_dp_flag(self, mult_problem):
        rule = mult_problem.strict_trs[0]
        with pytest.raises(ValueError):
            Problem(
                strict_dps=(rule,),
                strict_trs=(),
                weak_dps=(),
                weak_trs=(),
                q=(),
                start_terms=StartKind.BASIC,
            )

    def test_duplicate_labels_rejected(self, mult_problem):
        rule = mult_problem.strict_trs[0]
        with pytest.raises(ValueError):
            Problem(
                strict_dps=(),
                strict_trs=(rule,),
                weak_dps=(),
                weak_trs=(rule,),
                q=(),
                start_terms=StartKind.BASIC,
            )

    def test_is_dp_problem_variants(self, mult_dt):
        assert mult_dt.is_dp_problem()

    def test_runtime_kinds(self, mult_problem, mult_dt):
        assert mult_problem.start_terms is StartKind.BASIC
        assert mult_dt.start_terms is StartKind.MARKED_BASIC
        assert not mult_problem.is_dp_problem()


class TestInnermost:
    def test_parsed_innermost_problem(self, mult_problem):
        assert is_innermost(mult_problem)

    def test_empty_q_full_rewriting(self, mult_problem):
        full = Problem(
            strict_dps=(),
            strict_trs=mult_problem.strict_trs,
            weak_dps=(),
            weak_trs=(),
            q=(),
            start_terms=StartKind.BASIC,
        )
        assert not is_innermost(full)

    def test_dt_output_stays_innermost(self, mult_dt):
        assert is_innermost(mult_dt)


class TestStartTerms:
    def test_basic_enumeration_sizes(self, mult_problem):
        assert start_terms_up_to(mult_problem, 2) == []
        assert len(start_terms_up_to(mult_problem, 3)) == 2

    def test_marked_enumeration(self, mult_dt):
        terms = start_terms_up_to(mult_dt, 3)
        assert len(terms) == 2
        assert all(t.sym.kind is SymbolKind.MARKED for t in terms)


class TestCcOracle:
    def test_empty_strict_is_constant(self, mult_problem):
        p = Problem(
            strict_dps=(),
            strict_trs=(),
            weak_dps=(),
            weak_trs=mult_problem.strict_trs,
            q=mult_problem.q,
            start_terms=StartKind.BASIC,
        )
        assert cc_oracle(p, 6, 50) == OracleResult.exactly(0)

    def test_small_sizes(self, mult_problem):
        assert cc_oracle(mult_problem, 1, 50) == OracleResult.exactly(0)
        assert cc_oracle(mult_problem, 3, 50) == OracleResult.exactly(1)


PLUS = """
(VAR x y)
(RULES
  plus(0, y) -> y
  plus(s(x), y) -> s(plus(x, y))
)
"""
LEN_APP = """
(VAR x xs ys)
(RULES
  len(nil) -> 0
  len(cons(x, xs)) -> s(len(xs))
  app(nil, ys) ->= ys
  app(cons(x, xs), ys) ->= cons(x, app(xs, ys))
)
(STRATEGY INNERMOST)
(STARTTERM CONSTRUCTOR-BASED)
"""

INLINE = {
    "plus_full": PLUS + "(STARTTERM FULL)",
    "len_app": LEN_APP,
    "plus_wdp": PLUS + "(STARTTERM CONSTRUCTOR-BASED)",
}
# a -> ci for each i, and c1 -> c2 -> ... -> c5: a's longest derivation has 5
# steps, though every term a reaches is one step away
CHAIN = """
(RULES
  a -> c1  a -> c2  a -> c3  a -> c4  a -> c5
  c1 -> c2  c2 -> c3  c3 -> c4  c4 -> c5
)
(STARTTERM FULL)
"""
# g(c5) reaches p(a, a), whose longest derivation takes 10 more steps, though
# every term it reaches is within 3 steps of g(c5)
CHAIN_PAIRS = """
(VAR x)
(RULES
  a -> c1  a -> c2  a -> c3  a -> c4  a -> c5
  c1 -> c2  c2 -> c3  c3 -> c4  c4 -> c5
  g(x) -> p(a, a)
)
(STRATEGY INNERMOST)
(STARTTERM CONSTRUCTOR-BASED)
"""
PLUS_COIN = """
(VAR x y)
(RULES
  plus(0, y) -> y
  plus(s(x), y) -> s(plus(x, y))
  c -> 0
  c -> s(0)
)
(STRATEGY INNERMOST)
(STARTTERM FULL)
"""
# f(s^k(0)) and g(s^k(0)) form a cycle of weak steps only
WEAK_CYCLE = """
(VAR x)
(RULES
  f(0) -> 0
  f(s(x)) -> f(x)
  f(x) ->= g(x)
  g(x) ->= f(x)
)
(STARTTERM CONSTRUCTOR-BASED)
"""
# g(0) -> f(s(0)) -> g(0), both steps strict
STRICT_CYCLE = """
(VAR x)
(RULES
  f(0) -> 0
  f(s(x)) -> g(x)
  g(x) -> f(s(x))
)
(STARTTERM CONSTRUCTOR-BASED)
"""


def open_leaf(name):
    """The problem of the one open leaf of name's default proof."""
    tree = default_strategy(parse_file(str(ROOT / "bench" / "problems" / f"{name}.trs")))
    (leaf,) = [n.judgement.problem for n in iter_nodes(tree) if isinstance(n, Assumption)]
    return leaf


def reference_rows(p, n, budget):
    """Row k is the worst reference_heights over the start terms of size at
    most k, or the first truncated result among them."""
    rows = []
    for k in range(n + 1):
        best = OracleResult.exactly(0)
        for t in start_terms_up_to(p, k) if p.strict else ():
            r = reference_heights(t, p.strict, p.weak, p.q, budget)
            if not r.exact:
                best = r
                break
            best = OracleResult.exactly(max(best.value, r.value))
        rows.append(best)
    return rows


class TestCcRows:
    @pytest.mark.parametrize(
        "name, n, budget",
        [
            ("mult", 7, 60),
            ("exp", 10, 200),  # row 10 is cut by the budget
            ("plus_full", 7, 60),  # all ground terms
            ("len_app", 7, 60),  # relative: weak app rules
            ("plus_wdp", 8, 60),  # Q empty
        ],
    )
    def test_rows_match_per_row_definition(self, request, name, n, budget):
        if name in INLINE:
            p = parse_problem(INLINE[name])
        else:
            p = request.getfixturevalue(f"{name}_problem")
        rows = list(cc_rows(p, n, budget))
        assert rows == reference_rows(p, n, budget)
        assert cc_oracle(p, n, budget) == rows[-1]
        if name == "exp":
            assert rows[-1] == OracleResult.at_least(200)
        if name == "plus_wdp":
            assert not p.q

    def test_budget_bounds_derivation_length_not_distance(self):
        p = parse_problem(CHAIN)
        for budget, last in [(4, OracleResult.at_least(4)), (5, OracleResult.exactly(5))]:
            rows = list(cc_rows(p, 2, budget))
            assert rows == reference_rows(p, 2, budget)
            assert rows[-1] == last

    def test_budget_cut_above_solved_successors(self):
        # a, b and c are solved first; d's derivation is one step too long
        p = parse_problem("(RULES d -> c c -> b b -> a)(STARTTERM FULL)")
        rows = list(cc_rows(p, 1, 2))
        assert rows == reference_rows(p, 1, 2)
        assert rows[-1] == OracleResult.at_least(2)

    def test_weak_cycle(self):
        # a cycle has derivations of every length, weak steps or not
        p = parse_problem(WEAK_CYCLE)
        rows = list(cc_rows(p, 6, 30))
        assert rows == reference_rows(p, 6, 30)
        assert rows[2:] == [OracleResult.at_least(30)] * 5

    def test_strict_cycle(self):
        p = parse_problem(STRICT_CYCLE)
        rows = list(cc_rows(p, 4, 30))
        assert rows == reference_rows(p, 4, 30)
        assert rows[1:] == [OracleResult.exactly(0)] + [OracleResult.at_least(30)] * 3

    def test_node_cap_ends_a_walk_with_too_large(self, monkeypatch):
        # at budget 100,000 the derivations of ack's open leaf <{2,3} /
        # {a,b,c}> from its size-8 start terms reach more nodes than the cap
        leaf = open_leaf("ack")
        monkeypatch.setattr(rewriting, "_NODE_CAP", 20_000)
        rows = cc_rows(leaf, 8, 100_000)
        want = [OracleResult.exactly(h) for h in (0, 0, 0, 0, 1, 3, 9, 59)]
        assert [next(rows) for _ in want] == want
        with pytest.raises(rewriting.TooLargeError, match="more than 20000 terms"):
            next(rows)

    @pytest.mark.parametrize(
        "name, n, budget, exact",
        [
            # <{2,3} / {a,b,c}>: the compound roots take no step
            ("ack", 9, 100, (0, 0, 0, 0, 1, 3, 9)),
            ("ack", 9, 1000, (0, 0, 0, 0, 1, 3, 9, 59)),
            # <{2,4} / {a,b,c,d}>
            ("exp", 10, 400, (0, 0, 0, 2, 5, 10, 19, 36, 69, 134)),
        ],
    )
    def test_open_leaf_rows(self, name, n, budget, exact):
        rows = list(cc_rows(open_leaf(name), n, budget))
        cut = [OracleResult.at_least(budget)] * (n + 1 - len(exact))
        assert rows == [OracleResult.exactly(h) for h in exact] + cut

    @pytest.mark.parametrize(
        "name, n, budget, last",
        [
            ("mult", 10, 100, OracleResult.exactly(21)),
            ("exp", 10, 200, OracleResult.at_least(200)),  # a normal form beyond the budget
            ("plus_full", 9, 60, OracleResult.exactly(10)),
        ],
    )
    def test_no_term_built_once_the_start_terms_are_enumerated(
        self, request, monkeypatch, name, n, budget, last
    ):
        # start terms are enumerated as nodes, so the whole table builds no term
        if name in INLINE:
            p = parse_problem(INLINE[name])
        else:
            p = request.getfixturevalue(f"{name}_problem")
        built = []
        post_init = App.__post_init__

        def counted(t):
            built.append(t)
            post_init(t)

        monkeypatch.setattr(App, "__post_init__", counted)
        rows = list(cc_rows(p, n, budget))
        monkeypatch.undo()
        assert built == []
        assert rows[-1] == last


    def test_table_numbers_only_the_reducts_it_reads(self, exp_problem, monkeypatch):
        # exp's corpus table numbered 786 nodes while every reached node
        # built its reducts in context, which argument-first summaries
        # never read; root reducts alone take 659
        systems = []
        init = rewriting._System.__init__

        def recorded(system, *args):
            init(system, *args)
            systems.append(system)

        monkeypatch.setattr(rewriting._System, "__init__", recorded)
        rows = list(cc_rows(exp_problem, 10, 200))
        assert rows[-2:] == [OracleResult.exactly(142), OracleResult.at_least(200)]
        (system,) = systems
        assert len(system.nodes) <= 659


class TestSummaries:
    """Heights answers every start term from its summary, and the rows are
    the reference's."""

    def test_close_normal_forms_far_along_a_derivation(self):
        # every term g(c5) reaches is within 3 steps, but its longest
        # derivation takes 11
        p = parse_problem(CHAIN_PAIRS)
        for budget, last in [(4, OracleResult.at_least(4)), (11, OracleResult.exactly(11))]:
            rows = list(cc_rows(p, 3, budget))
            assert rows == reference_rows(p, 3, budget)
            assert rows[-1] == last

    def test_start_solved_after_a_longer_one_is_cut(self):
        # a's walk is cut past c4, 4 steps deep; c1's derivations take 4
        p = parse_problem(CHAIN)
        heights = rewriting.Heights(p.strict, p.weak, p.q, 4)
        a, c1 = (heights.system.number(App(defined(p, c), ())) for c in ["a", "c1"])
        assert heights(a) is None
        assert heights(c1) == 4

    def test_argument_with_two_normal_forms(self):
        # c reduces to 0 and to s(0), so plus(c, c) goes on from four terms
        p = parse_problem(PLUS_COIN)
        rows = list(cc_rows(p, 5, 30))
        assert rows == reference_rows(p, 5, 30)
        assert rows[-1] == OracleResult.exactly(8)

    def test_term_rewritten_to_one_containing_it(self):
        # f(0) -> s(f(0)) -> s(s(f(0))) -> ...
        p = parse_problem(
            "(VAR x)(RULES f(x) -> s(f(x))  g(x) -> 0)(STRATEGY INNERMOST)"
            "(STARTTERM CONSTRUCTOR-BASED)"
        )
        rows = list(cc_rows(p, 3, 20))
        assert rows == reference_rows(p, 3, 20)
        assert rows[-1] == OracleResult.at_least(20)


# rules that recurse, loop or grow, so that derivations outrun small budgets
RECURSIVE = [
    "f(s(x)) -> f(x)",
    "g(s(x), y) -> g(x, s(y))",
    "f(cons(x, y)) -> g(f(x), f(y))",
    "h(s(x)) -> h(h(x))",
    "h(x) -> s(h(x))",
    "g(x, y) -> g(y, x)",
    "f(x) -> f(x)",
]


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(systems(weak=True, extra=RECURSIVE), st.integers(min_value=1, max_value=6))
def test_fuzzed_rows_match_per_row_definition(text, budget):
    p = parse_problem(text)
    assert list(cc_rows(p, 5, budget)) == reference_rows(p, 5, budget)


def test_fuzzed_proof_problems_match_per_row_definition(monkeypatch):
    # every problem of a default proof, DP problems among them: their
    # compound roots take no step, so their arguments are summarised first;
    # a small fuel keeps each proof search short
    monkeypatch.setattr("polytrs.interpretations._FUEL", 2_000)
    compound = []

    @settings(
        derandomize=True,
        database=None,
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(systems(extra=RECURSIVE), st.integers(min_value=1, max_value=12))
    def check(text, budget):
        for node in iter_nodes(default_strategy(parse_problem(text))):
            p = node.judgement.problem
            n = 4 if p.is_dp_problem() else 5
            assert list(cc_rows(p, n, budget)) == reference_rows(p, n, budget)
            if any(s.kind is SymbolKind.COMPOUND for s in p.signature):
                compound.append(p)

    check()
    assert len(compound) >= 50


class TestProblemsEqual:
    def test_reflexive_and_order_sensitive(self, mult_problem, mult_dt):
        assert problems_equal(mult_problem, mult_problem)
        assert not problems_equal(mult_problem, mult_dt)
