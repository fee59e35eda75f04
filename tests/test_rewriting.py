from __future__ import annotations

import pytest

from polytrs import rewriting
from polytrs.framework import cc_rows, start_terms_up_to
from polytrs.parsing import parse_problem
from polytrs.rewriting import (
    OracleResult,
    Rule,
    basic_terms,
    check_labels,
    dh_oracle,
    ground_terms,
    is_q_normal_form,
    q_successors,
    strict_step_oracle,
)
from polytrs.terms import (
    App,
    Symbol,
    SymbolKind,
    Var,
    apply_subst,
    match_term,
    subterms,
)
from tests.conftest import positions, replace_at, subterm_at

ZERO = Symbol("0", 0, SymbolKind.CONSTRUCTOR)
S = Symbol("s", 1, SymbolKind.CONSTRUCTOR)
PLUS = Symbol("plus", 2, SymbolKind.DEFINED)
TIMES = Symbol("times", 2, SymbolKind.DEFINED)
X = Var("x")
Y = Var("y")


def num(n):
    t = App(ZERO)
    for _ in range(n):
        t = App(S, (t,))
    return t


def plus(a, b):
    return App(PLUS, (a, b))


def times(a, b):
    return App(TIMES, (a, b))


MULT_RULES = (
    Rule(plus(App(ZERO), Y), Y, "a"),
    Rule(plus(App(S, (X,)), Y), plus(X, Y), "b"),
    Rule(times(App(ZERO), Y), App(ZERO), "c"),
    Rule(times(App(S, (X,)), Y), plus(Y, times(X, Y)), "d"),
)


class TestRuleChecks:
    def test_variable_condition(self):
        with pytest.raises(ValueError):
            Rule(plus(X, X), Y, "bad")

    def test_lhs_must_be_application(self):
        with pytest.raises(Exception):
            Rule(X, X, "bad")  # type: ignore[arg-type]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            check_labels([MULT_RULES[0], MULT_RULES[0]])


class TestQNormalForms:
    def test_constructor_terms_are_normal(self):
        assert is_q_normal_form(num(3), MULT_RULES)

    def test_redex_detected_anywhere(self):
        assert not is_q_normal_form(plus(App(ZERO), App(ZERO)), MULT_RULES)
        assert not is_q_normal_form(App(S, (plus(App(ZERO), App(ZERO)),)), MULT_RULES)

    def test_empty_q_everything_normal(self):
        assert is_q_normal_form(plus(App(ZERO), App(ZERO)), ())


class TestQSuccessors:
    def test_innermost_single_root_step(self):
        t = times(num(1), num(1))
        succs = q_successors(t, MULT_RULES, MULT_RULES)
        assert len(succs) == 1
        rule, reduct = succs[0]
        assert rule.label == "d"
        assert reduct == plus(num(1), times(num(0), num(1)))

    def test_outer_step_blocked_until_argument_normal(self):
        t = plus(num(1), times(num(0), num(1)))
        succs = q_successors(t, MULT_RULES, MULT_RULES)
        assert [(r.label, v) for r, v in succs] == [("c", plus(num(1), num(0)))]

    def test_empty_q_allows_outer_step_too(self):
        t = plus(num(1), times(num(0), num(1)))
        steps = {(r.label, v) for r, v in q_successors(t, MULT_RULES, ())}
        assert ("b", plus(num(0), times(num(0), num(1)))) in steps
        assert ("c", plus(num(1), num(0))) in steps


PLUS_FULL = """
(VAR x y)
(RULES
  plus(0, y) -> y
  plus(s(x), y) -> s(plus(x, y))
)
(STARTTERM FULL)
"""

# every f-term is a redex of both f-rules, so their order shows in the output
OVERLAP = """
(VAR x y)
(RULES
  f(x, y) -> x
  f(x, y) -> y
  f(s(x), 0) -> f(x, s(0))
)
(STARTTERM FULL)
"""


# relative: the app rules are weak
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

INLINE = {"plus_full": PLUS_FULL, "overlap": OVERLAP, "len_app": LEN_APP}


def reference_successors(t, rules, q):
    """q_successors by its definition, each position addressed from the root."""
    out = []
    for p in positions(t):
        sub = subterm_at(t, p)
        if isinstance(sub, Var):
            continue
        normal_args = all(
            match_term(r.lhs, s) is None for a in sub.args for s in subterms(a) for r in q
        )
        for rule in rules:
            sigma = match_term(rule.lhs, sub)
            if sigma is not None and normal_args:
                out.append((p, rule, replace_at(t, p, apply_subst(rule.rhs, sigma))))
    return tuple(out)


class TestSuccessorsAgainstReference:
    @pytest.mark.parametrize(
        "name, innermost",
        [
            ("mult", True),
            ("mult", False),
            ("plus_full", False),
            ("overlap", True),
            ("len_app", True),
            ("exp", True),
        ],
    )
    def test_every_reached_term(self, request, name, innermost):
        if name in INLINE:
            p = parse_problem(INLINE[name])
        else:
            p = request.getfixturevalue(f"{name}_problem")
        rules = p.all_rules
        q = rules if innermost else ()
        # exp's reached terms grow exponentially with the start size
        todo = list(start_terms_up_to(p, 7 if name == "exp" else 8))
        seen = set()
        while todo:
            t = todo.pop()
            if t in seen:
                continue
            seen.add(t)
            want = reference_successors(t, rules, q)
            assert q_successors(t, rules, q) == tuple((r, v) for _, r, v in want)
            todo.extend(v for _, _, v in want)
        assert len(seen) > 100


class TestSharedSystem:
    """Equal rule tuples share one memoised system, whatever the split into
    strict and weak rules and whichever rule objects built it."""

    def test_each_split_counts_its_own_strict_rules(self):
        a, b = MULT_RULES[0], MULT_RULES[1]
        t = plus(num(2), num(0))  # b, b, then a
        calls = {
            "b strict": lambda: strict_step_oracle(t, (b,), (a,), (b, a), 10),
            "both strict": lambda: strict_step_oracle(t, (b, a), (), (b, a), 10),
        }
        want = {"b strict": OracleResult.exactly(2), "both strict": OracleResult.exactly(3)}
        for order in (["b strict", "both strict"], ["both strict", "b strict"]):
            rewriting._system.cache_clear()
            assert {name: calls[name]() for name in order} == want
            assert rewriting._system.cache_info().misses == 1

    def test_equal_rules_of_another_parse_give_the_cold_table(self):
        first, second = parse_problem(LEN_APP), parse_problem(LEN_APP)
        assert first.strict == second.strict
        assert first.strict[0] is not second.strict[0]
        rewriting._system.cache_clear()
        cold = list(cc_rows(second, 7, 60))
        assert cold[-1] == OracleResult.exactly(3)
        rewriting._system.cache_clear()
        list(cc_rows(first, 7, 60))
        assert list(cc_rows(second, 7, 60)) == cold
        assert rewriting._system.cache_info().misses == 1


class TestOracles:
    def test_dh_plus(self):
        assert dh_oracle(plus(num(1), num(0)), MULT_RULES, MULT_RULES, 10) == OracleResult.exactly(2)

    def test_dh_times(self):
        assert dh_oracle(times(num(1), num(1)), MULT_RULES, MULT_RULES, 10) == OracleResult.exactly(4)

    def test_dh_normal_form(self):
        assert dh_oracle(num(0), MULT_RULES, MULT_RULES, 10) == OracleResult.exactly(0)

    def test_dh_budget_monotone(self):
        t = times(num(2), num(2))
        small = dh_oracle(t, MULT_RULES, MULT_RULES, 50)
        big = dh_oracle(t, MULT_RULES, MULT_RULES, 80)
        assert small.exact and small == big

    def test_strict_oracle_counts_only_strict(self):
        bot = App(Symbol("bot", 0, SymbolKind.CONSTRUCTOR))
        g = Symbol("g", 1, SymbolKind.DEFINED)
        f = Symbol("f", 1, SymbolKind.DEFINED)
        strict = (Rule(App(g, (App(S, (X,)),)), App(g, (X,)), "1"),)
        weak = (
            Rule(App(f, (X,)), App(f, (App(S, (X,)),)), "2"),
            Rule(App(f, (X,)), App(g, (X,)), "3"),
        )
        start = App(g, (App(S, (App(S, (bot,)),)),))
        assert strict_step_oracle(start, strict, weak, (), 20) == OracleResult.exactly(2)
        for b in (5, 12):
            r = strict_step_oracle(App(f, (bot,)), strict, weak, (), b)
            assert r == OracleResult.at_least(b)

    def test_strict_oracle_no_strict_rules(self):
        assert strict_step_oracle(num(2), (), MULT_RULES, (), 5) == OracleResult.exactly(0)

    def test_strict_oracle_with_empty_weak_matches_dh(self):
        for t in (plus(num(1), num(0)), times(num(1), num(1)), num(2)):
            a = dh_oracle(t, MULT_RULES, MULT_RULES, 30)
            b = strict_step_oracle(t, MULT_RULES, (), MULT_RULES, 30)
            assert a == b

    def test_loop_with_strict_step_reports_at_least(self):
        h = Symbol("h", 0, SymbolKind.DEFINED)
        loop = (Rule(App(h), App(h), "1"),)
        assert strict_step_oracle(App(h), loop, (), (), 7) == OracleResult.at_least(7)


class TestEnumeration:
    def test_ground_constructor_terms(self):
        got = ground_terms([ZERO, S], 3)
        assert got == [num(0), num(1), num(2)]

    def test_basic_terms_smallest(self):
        got = basic_terms(frozenset({ZERO, S, PLUS, TIMES}), 3, SymbolKind.DEFINED)
        assert set(got) == {plus(num(0), num(0)), times(num(0), num(0))}

    def test_basic_terms_counts_grow(self):
        sig = frozenset({ZERO, S, PLUS, TIMES})
        sizes = [len(basic_terms(sig, n, SymbolKind.DEFINED)) for n in range(1, 7)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 0 and sizes[2] == 2
