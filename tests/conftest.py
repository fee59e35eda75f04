from __future__ import annotations

import pathlib

import pytest

from polytrs.dependency_pairs import dt_problem
from polytrs.parsing import parse_file
from polytrs.processors import default_strategy
from polytrs.terms import SymbolKind

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
