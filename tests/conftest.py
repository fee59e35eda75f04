from __future__ import annotations

import pathlib
import re
from typing import Sequence

import pytest
from hypothesis import strategies as st

from polytrs.dependency_pairs import dt_problem
from polytrs.parsing import parse_file
from polytrs.processors import default_strategy
from polytrs.terms import App, SymbolKind, Term, render

ROOT = pathlib.Path(__file__).resolve().parent.parent

# On all ground terms every symbol needs [f](x1..xn) = x1 + ... + xn + c.
# Without that shape, one search at cap 3 picks [f] = x, [g] = 3x + 3,
# which bounds no derivation, and the proof is lost.
FULL_START = """(VAR x)
(RULES
  g(c(f(x), f(z))) -> c(z, s(s(x)))
  g(s(f(x))) -> s(s(g(z)))
)
(STARTTERM FULL)
"""


# Positions address subterms by 1-based argument indices; () is the root.
# The library's steps carry no position; these are the tests' reference.
Position = tuple[int, ...]


class InvalidPositionError(ValueError):
    pass


def positions(t: Term) -> list[Position]:
    """All positions in leftmost-outermost (preorder) order."""
    out: list[Position] = []

    def walk(s: Term, p: Position) -> None:
        out.append(p)
        if isinstance(s, App):
            for i, a in enumerate(s.args, start=1):
                walk(a, p + (i,))

    walk(t, ())
    return out


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            raise InvalidPositionError(f"position {p} not in {render(t)}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, p: Position, s: Term) -> Term:
    if not p:
        return s
    if not isinstance(t, App) or not 1 <= p[0] <= len(t.args):
        raise InvalidPositionError(f"position {p} not in {render(t)}")
    i = p[0]
    args = list(t.args)
    args[i - 1] = replace_at(args[i - 1], p[1:], s)
    return App(t.sym, tuple(args))


def sym(problem, name, kind):
    for s in problem.signature:
        if s.name == name and s.kind is kind:
            return s
    raise LookupError(f"{name}/{kind} not in signature")


def constructor(problem, name):
    return sym(problem, name, SymbolKind.CONSTRUCTOR)


def defined(problem, name):
    return sym(problem, name, SymbolKind.DEFINED)


def marked_sym(problem, name):
    return sym(problem, name, SymbolKind.MARKED)


@pytest.fixture(scope="session")
def mult_problem():
    return parse_file(str(ROOT / "problems" / "mult.trs"))


@pytest.fixture(scope="session")
def exp_problem():
    return parse_file(str(ROOT / "problems" / "exp.trs"))


@pytest.fixture(scope="session")
def mult_dt(mult_problem):
    return dt_problem(mult_problem)


@pytest.fixture(scope="session")
def exp_dt(exp_problem):
    return dt_problem(exp_problem)


@pytest.fixture(scope="session")
def mult_proof(mult_problem):
    return default_strategy(mult_problem)


@pytest.fixture(scope="session")
def exp_proof(exp_problem):
    return default_strategy(exp_problem)


# Small constructor-based systems, as text, for the fuzzers.
CONSTRUCTORS = {"s": 1, "cons": 2}  # and the constants 0 and nil
DEFINED = {"f": 1, "g": 2, "h": 1}


def terms(leaves: list[str], arities: dict[str, int]) -> st.SearchStrategy[str]:
    """Small terms over the leaves and the symbols of the given arities, as
    text."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            *(
                st.tuples(*[inner] * n).map(lambda args, f=f: f"{f}({', '.join(args)})")
                for f, n in arities.items()
            )
        ),
        max_leaves=4,
    )


PATTERNS = terms(["x", "y", "0", "nil"], CONSTRUCTORS)
# per set of left-hand side variables
RIGHT_SIDES = {
    vs: terms([*vs, "0", "nil"], {**CONSTRUCTORS, **DEFINED})
    for vs in [(), ("x",), ("y",), ("x", "y")]
}


@st.composite
def rule_texts(draw) -> str:
    root = draw(st.sampled_from(sorted(DEFINED)))
    args = [draw(PATTERNS) for _ in range(DEFINED[root])]
    variables = tuple(sorted({v for a in args for v in re.findall(r"\b[xy]\b", a)}))
    return f"{root}({', '.join(args)}) -> {draw(RIGHT_SIDES[variables])}"


@st.composite
def systems(draw, weak: bool = False, extra: Sequence[str] = ()) -> str:
    """Innermost or not; up to two rules of extra beside the drawn ones; with
    weak, each rule is weak or strict."""
    rules = draw(st.lists(rule_texts(), min_size=1, max_size=3))
    if extra:
        rules += draw(st.lists(st.sampled_from(extra), max_size=2))
    if weak:
        rules = [r.replace(" -> ", " ->= ") if draw(st.booleans()) else r for r in rules]
    strategy = "(STRATEGY INNERMOST)" if draw(st.booleans()) else ""
    return f"(VAR x y)(RULES {' '.join(rules)}){strategy}(STARTTERM CONSTRUCTOR-BASED)"
