from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from polytrs.framework import Problem, StartKind, is_innermost, problems_equal
from polytrs.parsing import ParseError, parse_problem
from polytrs.terms import SymbolKind, Var, render
from tests.conftest import ROOT


MULT = """\
(VAR x y)
(RULES
  plus(0, y) -> y
  plus(s(x), y) -> plus(x, y)
  times(0, y) -> 0
  times(s(x), y) -> plus(y, times(x, y))
)
(STRATEGY INNERMOST)
(STARTTERM CONSTRUCTOR-BASED)
"""


class TestHappyPath:
    def test_mult_system(self):
        p = parse_problem(MULT)
        assert [r.label for r in p.strict_trs] == ["a", "b", "c", "d"]
        assert p.weak_trs == () and p.dps == ()
        assert p.q == p.all_rules
        assert is_innermost(p)
        assert p.start_terms is StartKind.BASIC
        kinds = {s.name: s.kind for s in p.signature}
        assert kinds["plus"] is SymbolKind.DEFINED
        assert kinds["times"] is SymbolKind.DEFINED
        assert kinds["0"] is SymbolKind.CONSTRUCTOR
        assert kinds["s"] is SymbolKind.CONSTRUCTOR
        rule = p.strict_trs[3]
        assert render(rule.lhs) == "times(s(x), y)"
        assert render(rule.rhs) == "plus(y, times(x, y))"

    def test_weak_arrow(self):
        p = parse_problem(
            "(VAR x)(RULES f(x) -> g(x) g(x) ->= x)(STARTTERM CONSTRUCTOR-BASED)"
        )
        assert [r.label for r in p.strict_trs] == ["a"]
        assert [r.label for r in p.weak_trs] == ["b"]
        assert render(p.weak_trs[0].lhs) == "g(x)"

    def test_defaults(self):
        p = parse_problem("(VAR x)(RULES f(x) -> x)")
        assert p.q == ()
        assert not is_innermost(p)
        assert p.start_terms is StartKind.BASIC

    def test_full_start_terms(self):
        p = parse_problem("(VAR x)(RULES f(x) -> x)(STARTTERM FULL)")
        assert p.start_terms is StartKind.ALL

    def test_comment_section_skipped(self):
        p = parse_problem(
            "(COMMENT anything goes (even (nested)) here)\n" + MULT
        )
        assert len(p.strict_trs) == 4

    def test_var_section_after_rules(self):
        p = parse_problem("(RULES f(x) -> x)(VAR x)")
        assert p.strict_trs[0].lhs.args == (Var("x"),)

    def test_many_rules_get_numbered_labels(self):
        rules = " ".join(f"f(c{i}) -> c{i}" for i in range(30))
        p = parse_problem(f"(RULES {rules})")
        assert p.strict_trs[0].label == "a"
        assert p.strict_trs[25].label == "z"
        assert p.strict_trs[26].label == "r27"


def sections(text: str) -> list[str]:
    """The top-level parenthesized sections of text, in order."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            start = i if depth == 0 else start
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                out.append(text[start : i + 1])
    return out


PROBLEM_FILES = [ROOT / "problems" / "mult.trs", *sorted(ROOT.glob("bench/problems/*.trs"))]


class TestSectionOrder:
    @pytest.mark.parametrize(
        "path", PROBLEM_FILES, ids=lambda path: str(path.relative_to(ROOT))
    )
    def test_every_order_gives_the_same_problem(self, path):
        # the sections hold every token of the file, so a permutation of
        # them is the same file with its sections reordered
        text = path.read_text(encoding="utf-8")
        parts = sections(text)
        assert "".join("".join(parts).split()) == "".join(text.split())
        p = parse_problem(text)
        for order in itertools.permutations(parts):
            q = parse_problem("\n".join(order))
            assert (q.strict_trs, q.weak_trs, q.q, q.start_terms) == (
                p.strict_trs, p.weak_trs, p.q, p.start_terms
            )


def error_at(source: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_problem(source)
    return info.value


class TestErrors:
    def test_fresh_rhs_variable(self):
        err = error_at("(VAR x y)(RULES\n  f(x) -> g(y)\n)")
        assert "introduces y" in str(err)
        assert err.line == 2 and err.column == 3

    def test_lhs_variable(self):
        err = error_at("(VAR x)(RULES x -> x)")
        assert "left-hand side must not be a variable" in str(err)
        assert (err.line, err.column) == (1, 15)

    def test_variable_with_arguments(self):
        err = error_at("(VAR x)(RULES f(x(a)) -> a)")
        assert "used with arguments" in str(err)

    def test_arity_mismatch(self):
        err = error_at("(VAR x y)(RULES f(x) -> x f(x, y) -> x)")
        assert "arity" in str(err)

    def test_unknown_section(self):
        err = error_at("(THEORY ac)(RULES f(a) -> a)")
        assert "unknown section THEORY" in str(err)
        assert err.line == 1

    def test_duplicate_section(self):
        err = error_at("(VAR x)(VAR y)(RULES f(x) -> x)")
        assert "duplicate section VAR" in str(err)

    def test_unbalanced(self):
        err = error_at("(RULES f(a) -> a")
        assert "unbalanced" in str(err)

    def test_unsupported_strategy(self):
        err = error_at("(RULES f(a) -> a)(STRATEGY OUTERMOST)")
        assert "unsupported strategy OUTERMOST" in str(err)

    def test_unsupported_start_terms(self):
        err = error_at("(RULES f(a) -> a)(STARTTERM AUTOMATON)")
        assert "unsupported start terms" in str(err)

    def test_strategy_takes_one_word(self):
        err = error_at("(RULES f(a) -> b)(STRATEGY INNERMOST OUTERMOST)")
        assert "expected end of section, found 'OUTERMOST'" in str(err)
        assert (err.line, err.column) == (1, 38)

    def test_start_terms_take_one_word(self):
        err = error_at("(RULES f(a) -> b)(STARTTERM FULL (junk) CONSTRUCTOR-BASED)")
        assert "expected end of section, found '('" in str(err)
        assert (err.line, err.column) == (1, 34)

    def test_empty_option_names_the_expected_word(self):
        err = error_at("(RULES f(a) -> b)(STRATEGY)")
        assert "expected INNERMOST, found end of section" in str(err)
        assert (err.line, err.column) == (1, 27)
        err = error_at("(RULES f(a) -> b)\n(STARTTERM\n)")
        assert "expected CONSTRUCTOR-BASED or FULL, found end of section" in str(err)
        assert (err.line, err.column) == (3, 1)

    def test_end_of_section_is_its_closing_parenthesis(self):
        err = error_at("(RULES f(a) ->)\n(STRATEGY INNERMOST)")
        assert "expected a term, found end of section" in str(err)
        assert (err.line, err.column) == (1, 15)
        err = error_at("(RULES\n  f(a) ->\n  )\n(STARTTERM FULL)")
        assert (err.line, err.column) == (3, 3)

    def test_var_section_names_the_expected_word(self):
        err = error_at("(VAR x ->)(RULES f(x) -> x)")
        assert "expected a variable, found '->'" in str(err)
        assert (err.line, err.column) == (1, 8)

    def test_missing_arrow(self):
        err = error_at("(RULES f(a) g(a))")
        assert "expected -> or ->=" in str(err)

    def test_stray_token_outside_section(self):
        err = error_at("fnord (RULES f(a) -> a)")
        assert "expected section" in str(err)


# the format's tokens, and terms, rules and sections made of them, so that
# inputs get past the section structure to every kind of parse error
TOKENS = [
    *"(),", "->", "->=", "x", "y", "f", "g", "s", "0", "\n",
    "VAR", "RULES", "STRATEGY", "INNERMOST", "STARTTERM", "CONSTRUCTOR-BASED",
    "FULL", "COMMENT",
]
TERMS = ["x", "y", "0", "f(x)", "g(x, y)", "s(0)", "f(s(x))", "f(x, y)", "x(0)"]


def flat(parts):
    return [t for part in parts for t in part]


BODIES = st.lists(st.sampled_from(TOKENS), max_size=10)
RULES = st.lists(
    st.tuples(st.sampled_from(TERMS), st.sampled_from(["->", "->="]), st.sampled_from(TERMS)),
    max_size=3,
).map(flat)
SECTIONS = st.one_of(
    st.just(["(", "VAR", "x", "y", ")"]),
    st.tuples(
        st.sampled_from(["VAR", "RULES", "STRATEGY", "STARTTERM", "COMMENT", "x"]),
        st.one_of(BODIES, RULES),
    ).map(lambda s: ["(", s[0], *s[1], ")"]),
)
INPUTS = st.lists(SECTIONS, max_size=3).map(flat)


class TestFuzz:
    @settings(derandomize=True, database=None, max_examples=500)
    @given(INPUTS, st.sampled_from([" ", "", "\n"]))
    def test_tokens_give_a_problem_or_a_parse_error(self, tokens, sep):
        try:
            assert isinstance(parse_problem(sep.join(tokens)), Problem)
        except ParseError:
            pass
