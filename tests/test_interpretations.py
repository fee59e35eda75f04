from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from polytrs.dependency_pairs import dt_problem, wdp_problem
from polytrs.framework import Bound, Problem, StartKind
from polytrs.interpretations import (
    PolyInterp,
    Polynomial,
    SymbolPoly,
    _candidates,
    check_orientation,
    eval_term,
    induced_bound,
    mu_monotone,
    needs_monotone,
    orients_strictly,
    orients_weakly,
    search_interpretation,
    synthesize,
    term_polynomial,
)
from polytrs.parsing import parse_problem
from polytrs.processors import apply_processor
from polytrs.rewriting import Rule
from polytrs.terms import App, Symbol, SymbolKind, Var, symbols_of
from tests.conftest import FULL_START


X = Polynomial.var("x")
Y = Polynomial.var("y")


def poly_value(poly: Polynomial, env: dict[str, int]) -> int:
    total = 0
    for mono, c in poly.coeffs.items():
        term = c
        for v, e in mono:
            term *= env[v] ** e
        total += term
    return total


class TestPolynomial:
    def test_zero_coefficients_dropped(self):
        assert Polynomial({(): 0}) == Polynomial()
        assert X - X == Polynomial()

    def test_ring_operations(self):
        p = (X + Y) * (X + Polynomial.const(2))
        assert p.coefficient((("x", 2),)) == 1
        assert p.coefficient((("x", 1), ("y", 1))) == 1
        assert p.coefficient((("x", 1),)) == 2
        assert p.coefficient((("y", 1),)) == 2
        assert p.coefficient(()) == 0

    def test_scale(self):
        assert (X + Y).scale(3) == X.scale(3) + Y.scale(3)
        assert X.scale(0) == Polynomial()

    def test_all_nonnegative(self):
        assert (X + Polynomial.const(1)).all_nonnegative()
        assert not (X - Polynomial.const(1)).all_nonnegative()

    def test_repr(self):
        assert repr(Polynomial()) == "0"
        assert repr(X * X) == "1*x^2"

    def test_evaluation_agrees_with_symbolic(self):
        rng = random.Random(7)
        p = (X + Y) * (X + Y) + X.scale(3) + Polynomial.const(5)
        for _ in range(50):
            x, y = rng.randrange(10), rng.randrange(10)
            assert poly_value(p, {"x": x, "y": y}) == (x + y) ** 2 + 3 * x + 5


class TestSymbolPoly:
    def test_degree(self):
        assert SymbolPoly((0, 0), (0, 0), 4).degree == 0
        assert SymbolPoly((1, 0), (0, 0), 0).degree == 1
        assert SymbolPoly((0, 0), (0, 1), 0).degree == 2

    def test_strongly_linear(self):
        assert SymbolPoly((1, 1), (0, 0), 3).strongly_linear
        assert not SymbolPoly((1, 2), (0, 0), 0).strongly_linear
        assert not SymbolPoly((1, 1), (1, 0), 0).strongly_linear

    def test_rejects_negative_and_ragged(self):
        with pytest.raises(ValueError):
            SymbolPoly((1,), (0,), -1)
        with pytest.raises(ValueError):
            SymbolPoly((1, 1), (0,), 0)

    def test_apply_values_matches_apply_polys(self):
        sp = SymbolPoly((2, 1), (1, 0), 3)
        rng = random.Random(3)
        for _ in range(50):
            a, b = rng.randrange(8), rng.randrange(8)
            sym = sp.apply_polys([X, Y])
            assert poly_value(sym, {"x": a, "y": b}) == sp.apply_values([a, b])

    def test_render(self):
        assert SymbolPoly((1, 2), (1, 0), 3).render("f") == "[f](x1, x2) = x1^2 + x1 + 2*x2 + 3"
        assert SymbolPoly((), (), 0).render("c") == "[c] = 0"


ZERO = Symbol("0", 0, SymbolKind.CONSTRUCTOR)
S = Symbol("s", 1, SymbolKind.CONSTRUCTOR)
PLUS = Symbol("plus", 2, SymbolKind.DEFINED)
TIMES = Symbol("times", 2, SymbolKind.DEFINED)


def nat(n: int):
    t = App(ZERO)
    for _ in range(n):
        t = App(S, (t,))
    return t


def counting_interp() -> PolyInterp:
    """[0] = 0, [s](x) = x, [plus](x, y) = y, [times](x, y) = 1."""
    return PolyInterp(
        {
            ZERO: SymbolPoly((), (), 0),
            S: SymbolPoly((1,), (0,), 0),
            PLUS: SymbolPoly((0, 1), (0, 0), 0),
            TIMES: SymbolPoly((0, 0), (0, 0), 1),
        }
    )


MULT_RULES = (
    Rule(App(PLUS, (App(ZERO), Var("y"))), Var("y"), "a"),
    Rule(
        App(PLUS, (App(S, (Var("x"),)), Var("y"))),
        App(PLUS, (Var("x"), Var("y"))),
        "b",
    ),
    Rule(App(TIMES, (App(ZERO), Var("y"))), App(ZERO), "c"),
    Rule(
        App(TIMES, (App(S, (Var("x"),)), Var("y"))),
        App(PLUS, (Var("y"), App(TIMES, (Var("x"), Var("y"))))),
        "d",
    ),
)

def relative_problem(strict_labels: set[str]) -> Problem:
    strict = tuple(r for r in MULT_RULES if r.label in strict_labels)
    weak = tuple(r for r in MULT_RULES if r.label not in strict_labels)
    return Problem(
        strict_dps=(),
        strict_trs=strict,
        weak_dps=(),
        weak_trs=weak,
        q=(),
        start_terms=StartKind.BASIC,
    )


def descending_problem() -> Problem:
    """plus(s(x), y) -> plus(x, y) alone, on all terms."""
    return Problem(
        strict_dps=(),
        strict_trs=(MULT_RULES[1],),
        weak_dps=(),
        weak_trs=(),
        q=(),
        start_terms=StartKind.ALL,
    )


class TestTermInterpretation:
    def test_eval_examples(self):
        interp = counting_interp()
        t = App(TIMES, (App(ZERO), Var("y")))
        assert eval_term(interp, t, {"y": 5}) == 1
        u = App(PLUS, (App(S, (Var("x"),)), Var("y")))
        assert eval_term(interp, u, {"x": 3, "y": 4}) == 4
        assert eval_term(interp, Var("z"), {"z": 9}) == 9

    def test_symbolic_matches_pointwise(self):
        interp = counting_interp()
        t = App(PLUS, (Var("y"), App(TIMES, (Var("x"), Var("y")))))
        sym = term_polynomial(interp, t)
        rng = random.Random(11)
        for _ in range(100):
            env = {"x": rng.randrange(12), "y": rng.randrange(12)}
            assert poly_value(sym, env) == eval_term(interp, t, env)

    def test_missing_symbol(self):
        with pytest.raises(KeyError):
            eval_term(PolyInterp({}), App(ZERO), {})


class TestOrientation:
    def test_counting_interp_orients_times_base_strictly(self):
        interp = counting_interp()
        a, b, c, d = MULT_RULES
        assert orients_weakly(interp, a) and not orients_strictly(interp, a)
        assert orients_weakly(interp, b)
        assert orients_strictly(interp, c)
        assert orients_weakly(interp, d) and not orients_strictly(interp, d)

    def test_check_orientation_on_relative_problem(self):
        p = relative_problem({"c"})
        assert check_orientation(counting_interp(), p)
        assert not check_orientation(counting_interp(), relative_problem({"a"}))

    def test_strict_decrease_pointwise(self):
        p = relative_problem({"c"})
        interp = counting_interp()
        rng = random.Random(23)
        for _ in range(200):
            env = {"x": rng.randrange(30), "y": rng.randrange(30)}
            for rule in p.strict:
                assert (
                    eval_term(interp, rule.lhs, env)
                    >= eval_term(interp, rule.rhs, env) + 1
                )
            for rule in p.weak:
                assert eval_term(interp, rule.lhs, env) >= eval_term(
                    interp, rule.rhs, env
                )

    def test_zero_interp_fails_strict(self):
        zero = PolyInterp(
            {
                ZERO: SymbolPoly((), (), 0),
                S: SymbolPoly((1,), (0,), 0),
                TIMES: SymbolPoly((0, 0), (0, 0), 0),
            }
        )
        assert not orients_strictly(zero, MULT_RULES[2])


class TestReplacementMaps:
    def test_dp_strict_part_needs_compounds_only(self, mult_dt):
        for s in mult_dt.signature:
            assert needs_monotone(mult_dt, s) == (s.kind is SymbolKind.COMPOUND)
        kinds = {s.kind for s in mult_dt.signature}
        assert {SymbolKind.MARKED, SymbolKind.DEFINED, SymbolKind.COMPOUND} <= kinds

    def test_non_dp_strict_part_needs_full_map(self, mult_problem, mult_dt):
        assert all(needs_monotone(mult_problem, s) for s in mult_problem.signature)
        # a plain strict rule next to the DPs makes every symbol rewritable
        with_rule = Problem(
            strict_dps=mult_dt.strict_dps,
            strict_trs=mult_dt.weak_trs[:1],
            weak_dps=mult_dt.weak_dps,
            weak_trs=mult_dt.weak_trs[1:],
            q=mult_dt.q,
            start_terms=mult_dt.start_terms,
        )
        assert all(needs_monotone(with_rule, s) for s in mult_dt.signature)


class TestMuMonotone:
    def test_full_map_wants_every_argument(self, mult_problem, mult_dt):
        # [plus](x, y) = y: not monotone in x, but plus is no compound symbol
        assert mu_monotone(counting_interp(), mult_dt)
        assert not mu_monotone(counting_interp(), mult_problem)

    def test_unit_coefficients_suffice(self, mult_problem):
        interp = PolyInterp(
            {PLUS: SymbolPoly((1, 1), (0, 0), 0), S: SymbolPoly((2,), (0,), 1)}
        )
        assert mu_monotone(interp, mult_problem)


class TestInducedBound:
    def mk(self, interp, kind_all=False):
        starts = StartKind.ALL if kind_all else StartKind.BASIC
        p = Problem(
            strict_dps=(),
            strict_trs=(MULT_RULES[2],),
            weak_dps=(),
            weak_trs=(),
            q=(),
            start_terms=starts,
        )
        return induced_bound(interp, p)

    def test_runtime_degree_from_defined_symbols(self):
        interp = PolyInterp(
            {
                ZERO: SymbolPoly((), (), 0),
                TIMES: SymbolPoly((1, 1), (0, 1), 2),
            }
        )
        assert self.mk(interp) == Bound.poly(2)

    def test_runtime_constant_degree(self):
        interp = PolyInterp({ZERO: SymbolPoly((), (), 0), TIMES: SymbolPoly((0, 0), (0, 0), 1)})
        assert self.mk(interp) == Bound.poly(0)

    def test_runtime_needs_strongly_linear_constructors(self):
        interp = PolyInterp(
            {
                ZERO: SymbolPoly((), (), 0),
                S: SymbolPoly((2,), (0,), 0),
                TIMES: SymbolPoly((1, 1), (0, 0), 0),
            }
        )
        assert self.mk(interp) == Bound.unknown()

    def test_derivational_needs_strongly_linear_everything(self):
        linear = PolyInterp(
            {
                ZERO: SymbolPoly((), (), 3),
                TIMES: SymbolPoly((1, 1), (0, 0), 1),
            }
        )
        assert self.mk(linear, kind_all=True) == Bound.poly(1)
        quadratic = PolyInterp(
            {
                ZERO: SymbolPoly((), (), 0),
                TIMES: SymbolPoly((1, 1), (0, 1), 0),
            }
        )
        assert self.mk(quadratic, kind_all=True) == Bound.unknown()


class TestSynthesize:
    def test_finds_pair_for_descending_rule(self):
        p = descending_problem()
        interp = synthesize(p, 1, 1)
        assert interp is not None
        assert check_orientation(interp, p)
        assert mu_monotone(interp, p)
        assert induced_bound(interp, p) == Bound.poly(1)

    def test_growing_rule_has_no_pair(self):
        g = Symbol("g", 1, SymbolKind.DEFINED)
        rule = Rule(App(g, (Var("x"),)), App(S, (App(g, (Var("x"),)),)), "r1")
        p = Problem(
            strict_dps=(),
            strict_trs=(rule,),
            weak_dps=(),
            weak_trs=(),
            q=(),
            start_terms=StartKind.BASIC,
        )
        assert synthesize(p, 2, 2) is None

    def test_monotonicity_blocks_duplicating_context(self):
        # plus must stay monotone in both arguments here, which makes the
        # right-hand side of rule d grow faster than its left-hand side.
        p = relative_problem({"c"})
        assert synthesize(p, 1, 2) is None
        assert synthesize(p, 2, 1) is None

    def test_rejects_other_degrees(self):
        with pytest.raises(ValueError):
            synthesize(relative_problem({"c"}), 3, 1)

    def test_search_limit_gives_up(self, monkeypatch):
        p = descending_problem()
        monkeypatch.setattr("polytrs.interpretations._NODE_LIMIT", 1)
        assert synthesize(p, 1, 3) is None
        assert search_interpretation(p, 1, 3).outcome == "budget"
        monkeypatch.undo()
        assert synthesize(p, 1, 3) is not None

    def test_deadline_gives_up(self):
        got = search_interpretation(descending_problem(), 2, 3, deadline=time.monotonic() - 1)
        assert (got.interp, got.outcome) == (None, "deadline")

    def test_refutation_is_exhaustive(self, monkeypatch):
        # absolute positiveness rules the box out by propagation alone
        monkeypatch.setattr("polytrs.interpretations._NODE_LIMIT", 1)
        got = search_interpretation(relative_problem({"b"}), 1, 3)
        assert (got.interp, got.outcome, got.nodes) == (None, "refuted", 0)

    def test_answer_depends_on_the_cap(self):
        # the first interpretation of a box need not lie in a smaller box
        # that holds one too: a larger cap can change the answer, not only
        # add answers where a smaller cap has none
        p = parse_problem("(VAR x)\n(RULES\n  g(s(x)) -> x\n  h(x) -> g(x)\n  h(g(x)) -> g(z)\n)\n")
        small, large = synthesize(p, 1, 1), synthesize(p, 1, 3)
        assert small != large
        assert small.largest_coefficient == 1 and large.largest_coefficient == 2
        assert induced_bound(small, p) == induced_bound(large, p) == Bound.poly(1)

    def test_acceptance_03_down_set_is_refuted(self, exp_dt):
        # the sub-problem of ACCEPTANCE 03 has no interpretation of either
        # degree with coefficients up to 3; the search proves it
        subs, _ = apply_processor("predecessor_estimation", {"rules": ["1", "3"]}, exp_dt)
        subs, _ = apply_processor("remove_weak_suffix", {"rules": ["1", "3"]}, subs[0])
        (_, p_down), _ = apply_processor(
            "dependency_graph_decomposition",
            {"strict_down": ["2"], "weak_down": []},
            subs[0],
        )
        for degree in (1, 2):
            got = search_interpretation(p_down, degree, 3)
            assert (got.interp, got.outcome) == (None, "refuted")
            assert got.nodes < 100


def enumerate_first(p: Problem, degree: int, coeff_max: int):
    """Reference search: every candidate of every symbol, in order.

    The candidates of a symbol come from itertools.product, sorted by
    coefficient sum, then (sq, lin, const); symbols are taken by (kind,
    arity, name).  Constructor and compound symbols, and every symbol when
    the start terms are all ground terms, take x1 + ... + xn + c.  Walking
    the product of all symbols flatly would take up to 10^10 steps here, so
    a prefix is dropped as soon as a rule whose symbols are all assigned
    fails term_polynomial's orientation check, which no extension can
    repair.  Nothing else is pruned.
    """
    rank = {
        SymbolKind.CONSTRUCTOR: 0,
        SymbolKind.COMPOUND: 0,
        SymbolKind.DEFINED: 1,
        SymbolKind.MARKED: 2,
    }
    used = {r: symbols_of(r.lhs) | symbols_of(r.rhs) for r in p.all_rules}
    order = sorted(set().union(*used.values()), key=lambda s: (rank[s.kind], s.arity, s.name))

    def candidates(sym):
        n = sym.arity
        if rank[sym.kind] == 0 or p.start_terms is StartKind.ALL:
            return [SymbolPoly((1,) * n, (0,) * n, c) for c in range(coeff_max + 1)]
        lin_lo = 1 if needs_monotone(p, sym) else 0
        sqs = itertools.product(range(coeff_max + 1), repeat=n if degree == 2 else 0)
        out = [
            SymbolPoly(lin, sq or (0,) * n, c)
            for sq in sqs
            for lin in itertools.product(range(lin_lo, coeff_max + 1), repeat=n)
            for c in range(coeff_max + 1)
        ]
        return sorted(out, key=lambda sp: (sum(sp.lin + sp.sq) + sp.const, sp.sq, sp.lin, sp.const))

    # a rule is checked at the position of its last symbol
    checks: list[list[tuple[Rule, bool]]] = [[] for _ in order]
    for rule in p.all_rules:
        used[rule] = sorted(used[rule], key=order.index)
        checks[order.index(used[rule][-1])].append((rule, rule in p.strict))
    seen: dict[tuple, bool] = {}

    def holds(rule: Rule, strict: bool, assignment: dict) -> bool:
        key = (rule, strict, tuple(assignment[s] for s in used[rule]))
        if key not in seen:
            orients = orients_strictly if strict else orients_weakly
            seen[key] = orients(PolyInterp(assignment), rule)
        return seen[key]

    def first(k: int, assignment: dict):
        if k == len(order):
            return PolyInterp(dict(assignment))
        for cand in candidates(order[k]):
            assignment[order[k]] = cand
            if all(holds(r, strict, assignment) for r, strict in checks[k]):
                found = first(k + 1, assignment)
                if found is not None:
                    return found
        del assignment[order[k]]
        return None

    return first(0, {})


HALF = """(VAR x)
(RULES
  half(0) -> 0
  half(s(0)) -> 0
  half(s(s(x))) -> s(half(x))
  double(0) -> 0
  double(s(x)) -> s(s(double(x)))
)
(STRATEGY INNERMOST)
(STARTTERM CONSTRUCTOR-BASED)
"""

PLUS_WDP = """(VAR x y)
(RULES
  plus(0, y) -> y
  plus(s(x), y) -> s(plus(x, y))
)
(STARTTERM CONSTRUCTOR-BASED)
"""

LEN_APP = """(VAR x xs ys)
(RULES
  len(nil) -> 0
  len(cons(x, xs)) -> s(len(xs))
  app(nil, ys) ->= ys
  app(cons(x, xs), ys) ->= cons(x, app(xs, ys))
)
(STRATEGY INNERMOST)
(STARTTERM CONSTRUCTOR-BASED)
"""

BOXES = [(1, 1), (1, 2), (2, 1), (2, 2)]
DP_PROBLEMS = {
    "half_dt": lambda: dt_problem(parse_problem(HALF)),
    "half_wdp": lambda: wdp_problem(parse_problem(HALF)),
    "plus_wdp": lambda: wdp_problem(parse_problem(PLUS_WDP)),
    "len_app_dt": lambda: dt_problem(parse_problem(LEN_APP)),
    "len_app_wdp": lambda: wdp_problem(parse_problem(LEN_APP)),
}
# every split of the mult rules into strict and weak; the box (2, 2) is left
# out, where the reference takes several seconds per split
RELATIVE = [
    "".join(labels)
    for k in range(5)
    for labels in itertools.combinations("abcd", k)
]


class TestSolverAgainstEnumeration:
    @pytest.mark.parametrize("box", BOXES, ids=lambda b: f"{b[0]}-{b[1]}")
    @pytest.mark.parametrize("name", list(DP_PROBLEMS))
    def test_dp_problems(self, name, box):
        p = DP_PROBLEMS[name]()
        got = search_interpretation(p, *box)
        assert got.outcome in ("found", "refuted")
        assert got.interp == enumerate_first(p, *box)

    @pytest.mark.parametrize("box", BOXES + [(1, 3), (2, 3)], ids=lambda b: f"{b[0]}-{b[1]}")
    def test_all_start_terms(self, box):
        p = parse_problem(FULL_START)
        got = search_interpretation(p, *box)
        assert got.outcome == "found"
        assert got.interp == enumerate_first(p, *box)
        assert induced_bound(got.interp, p) == Bound.poly(1)

    def test_candidates_by_sum_first(self):
        # s needs a positive constant for g's pair; f then fits with lin 1,
        # const 0 (sum 1) and with lin 0, const 2 (sum 2)
        p = dt_problem(
            parse_problem(
                "(VAR x)\n(RULES\n  g(s(x)) -> g(x)\n  f(s(s(x))) ->= s(s(0))\n)\n"
                "(STRATEGY INNERMOST)\n(STARTTERM CONSTRUCTOR-BASED)\n"
            )
        )
        got = search_interpretation(p, 1, 2)
        assert got.interp == enumerate_first(p, 1, 2)
        f = next(s for s in got.interp.entries if s.name == "f" and s.kind is SymbolKind.DEFINED)
        assert got.interp.for_symbol(f) == SymbolPoly((1,), (0,), 0)

    def test_candidate_with_only_a_bounds_consistent_rest(self):
        # [k] = 1 and [a] + [b] + [d] + 2[c] = 1 with [b] = [d].  With [a] = 0
        # every domain end of b and d has support, yet b + d = 1 has no
        # solution with b = d: only the search refutes that candidate.
        z = Symbol("z", 0, SymbolKind.CONSTRUCTOR)
        c = Symbol("c", 2, SymbolKind.CONSTRUCTOR)
        a, b, d, k = (App(Symbol(n, 0, SymbolKind.DEFINED)) for n in "abdk")
        total = App(c, (a, App(c, (b, d))))
        p = Problem(
            strict_dps=(),
            strict_trs=(Rule(k, App(z), "1"),),
            weak_dps=(),
            weak_trs=(
                Rule(b, d, "2"),
                Rule(d, b, "3"),
                Rule(k, total, "4"),
                Rule(total, k, "5"),
            ),
            q=(),
            start_terms=StartKind.ALL,
        )
        got = search_interpretation(p, 1, 1)
        assert got.interp == enumerate_first(p, 1, 1)
        assert got.interp.for_symbol(a.sym).const == 1

    @pytest.mark.parametrize("box", BOXES[:3], ids=lambda b: f"{b[0]}-{b[1]}")
    @pytest.mark.parametrize("strict", RELATIVE, ids=lambda s: f"strict_{s or 'none'}")
    def test_relative_problems(self, strict, box):
        p = relative_problem(set(strict))
        got = search_interpretation(p, *box)
        assert got.outcome in ("found", "refuted")
        assert got.interp == enumerate_first(p, *box)


class TestCandidateOrder:
    @settings(derandomize=True, max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5))
    def test_lazy_order_is_the_sorted_box(self, bounds):
        lo = [l for l, _ in bounds]
        hi = [l + w for l, w in bounds]
        box = itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        assert list(_candidates(lo, hi)) == sorted(box, key=lambda v: (sum(v), v))

    def test_wide_box_is_not_built(self):
        # at degree 2, cap 3, the box of g/5 holds up to 4^11 vectors, and
        # extraction tries only the first few
        xs = ", ".join(f"x{i}" for i in range(5))
        p = parse_problem(f"(VAR {xs.replace(',', '')})(RULES g({xs}) -> x0)")
        tracemalloc.start()
        try:
            got = search_interpretation(p, 2, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.outcome == "found"
        assert peak < 20_000_000


class TestSynthesizedPairSemantics:
    def test_sampled_decrease_on_dp_subproblem(self, mult_dt):
        plus_dps = tuple(d for d in mult_dt.dps if d.label in {"1", "2"})
        p = Problem(
            strict_dps=plus_dps,
            strict_trs=(),
            weak_dps=(),
            weak_trs=(),
            q=mult_dt.q,
            start_terms=mult_dt.start_terms,
        )
        interp = synthesize(p, 1, 1)
        assert interp is not None and check_orientation(interp, p)
        rng = random.Random(5)
        for _ in range(200):
            env = {"x": rng.randrange(40), "y": rng.randrange(40)}
            for dp in plus_dps:
                lhs = eval_term(interp, dp.lhs, env)
                rhs = (
                    env[dp.rhs.name]
                    if isinstance(dp.rhs, Var)
                    else eval_term(interp, dp.rhs, env)
                )
                assert lhs >= rhs + 1
