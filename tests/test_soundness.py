"""Complexity-pair certificates against the step oracle.

A complexity pair is sound only if the number of strict steps from a start
term is at most the term's interpretation.  For every complexity_pair node
of the default proofs of bench/problems, and of a system on all ground
terms, this checks that inequality on every start term of size up to 7.
A fuzz over small constructor-based systems, with recursive rules mixed
in, checks it, up to size 5, on every closed proof, after the proof has
gone through JSON and the validator.  Two systems pin side conditions whose
loss would give a bound that is too low.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings

from polytrs.framework import Bound, cc_rows, start_terms_up_to
from polytrs.interpretations import eval_term
from polytrs.parsing import parse_file, parse_problem
from polytrs.processors import (
    StrategyConfig,
    apply_processor,
    default_strategy,
    interp_from_json,
)
from polytrs.proofs import (
    Inference,
    is_closed,
    iter_nodes,
    proof_from_json,
    proof_to_json,
    validate_proof,
)
from polytrs.rewriting import strict_step_oracle
from tests.conftest import FULL_START, ROOT, systems

PROBLEMS = sorted((ROOT / "bench" / "problems").glob("*.trs"))


def check_complexity_pairs(proof, size: int) -> list[int]:
    """Check the inequality at every complexity_pair node of proof, on its
    start terms up to size; the strict steps of each term checked."""
    nodes = [
        n
        for n in iter_nodes(proof)
        if isinstance(n, Inference) and n.processor == "complexity_pair"
    ]
    counted = []
    for node in nodes:
        sub = node.judgement.problem
        interp = interp_from_json(node.params["interpretation"])
        for t in start_terms_up_to(sub, size):
            steps = strict_step_oracle(t, sub.strict, sub.weak, sub.q, 200)
            assert steps.exact, t
            if t.sym in interp.entries:
                assert steps.value <= eval_term(interp, t, {}), t
            else:
                # a root the interpretation leaves out must take no step
                assert steps.value == 0, t
            counted.append(steps.value)
    return counted


@pytest.mark.parametrize(
    "source", [*PROBLEMS, FULL_START], ids=[*(p.stem for p in PROBLEMS), "full_start"]
)
def test_strict_steps_bounded_by_interpretation(source):
    p = parse_problem(source) if source is FULL_START else parse_file(str(source))
    proof = default_strategy(p)
    assert check_complexity_pairs(proof, 7) or not is_closed(proof)


# The drawn rules alone rarely match the reducts they build, so without
# these almost every checked derivation has 0 or 1 strict steps.
RECURSIVE = [
    "f(s(x)) -> s(f(x))",
    "g(s(x), y) -> s(g(x, y))",
    "h(cons(x, y)) -> cons(x, h(y))",
]


def test_fuzzed_proofs_replay_and_bound_strict_steps():
    counted: list[int] = []

    @settings(
        derandomize=True,
        database=None,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(systems(extra=RECURSIVE))
    def check(text):
        proof = default_strategy(parse_problem(text), StrategyConfig(timeout=2.0))
        if not is_closed(proof):
            return
        blob = json.dumps(proof_to_json(proof), sort_keys=True)
        back = proof_from_json(json.loads(blob))
        assert json.dumps(proof_to_json(back), sort_keys=True) == blob
        assert validate_proof(back).ok
        counted.extend(check_complexity_pairs(back, 5))

    check()
    # the inequality is tested on derivations longer than one step
    assert sum(1 for n in counted if n >= 2) >= 100


def test_decomposition_needs_the_callers_of_the_down_set_strict():
    # the weak tuple 3 (f#) calls g# (1) from the up part, so {1} is no
    # down-set: f#(s^n(a)) makes n calls of g#, each of up to n steps
    p = parse_problem(
        "(VAR x)(RULES f(s(x)) ->= c(f(x), g(x)) g(s(x)) -> g(x) h(x) -> a)"
        "(STRATEGY INNERMOST)"
    )
    proof = default_strategy(p)
    assert is_closed(proof) and proof.judgement.bound == Bound.poly(2)
    # quadratic: f(s^n(a)) takes n(n-1)/2 steps; size 10 (28) takes 10 s
    rows = list(cc_rows(p, 9, 200))
    assert all(r.exact for r in rows)
    assert [r.value for r in rows] == [0, 0, 1, 1, 2, 3, 6, 10, 15, 21]
    (node,) = {
        n.judgement.problem
        for n in iter_nodes(proof)
        if str(n.judgement.problem).startswith("<{1,2} / {3,b,c,a}")
    }
    params = {"strict_down": ["1"], "weak_down": []}
    assert apply_processor("dependency_graph_decomposition", params, node) is None


def test_tuple_of_27_components_keeps_the_last():
    # splitting the tuple of f used to drop every component after the 26th,
    # here f#(x, d(y)), and the proof closed at O(n^3); the derivation
    # heights from f(s^k(0), s(0)) grow exponentially in k
    calls = ", ".join(["h(x)"] * 25)
    p = parse_problem(
        f"(VAR x y)(RULES f(s(x), y) -> c({calls}, g(y), f(x, d(y))) d(0) -> 0 "
        "d(s(y)) -> s(s(d(y))) g(s(y)) -> g(y) h(x) -> a)(STRATEGY INNERMOST)"
    )
    proof = default_strategy(p, StrategyConfig(degree_max=1, coeff_max=2))
    assert not is_closed(proof) or proof.judgement.bound.is_unknown
