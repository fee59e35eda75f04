"""Complexity-pair certificates of the corpus against the step oracle.

A complexity pair is sound only if the number of strict steps from a start
term is at most the term's interpretation.  For every complexity_pair node
of the default proofs of bench/problems, and of a system on all ground
terms, this checks that inequality on every start term of size up to 7.
"""

from __future__ import annotations

import pytest

from polytrs.framework import start_terms_up_to
from polytrs.interpretations import eval_term
from polytrs.parsing import parse_file, parse_problem
from polytrs.processors import default_strategy, interp_from_json
from polytrs.proofs import Inference, is_closed, iter_nodes
from polytrs.rewriting import strict_step_oracle
from tests.conftest import FULL_START, ROOT

PROBLEMS = sorted((ROOT / "bench" / "problems").glob("*.trs"))


def complexity_pairs(proof) -> list[Inference]:
    return [
        n
        for n in iter_nodes(proof)
        if isinstance(n, Inference) and n.processor == "complexity_pair"
    ]


@pytest.mark.parametrize(
    "source", [*PROBLEMS, FULL_START], ids=[*(p.stem for p in PROBLEMS), "full_start"]
)
def test_strict_steps_bounded_by_interpretation(source):
    p = parse_problem(source) if source is FULL_START else parse_file(str(source))
    proof = default_strategy(p)
    nodes = complexity_pairs(proof)
    assert nodes or not is_closed(proof)
    for node in nodes:
        sub = node.judgement.problem
        interp = interp_from_json(node.params["interpretation"])
        for t in start_terms_up_to(sub, 7):
            steps = strict_step_oracle(t, sub.strict, sub.weak, sub.q, 200)
            assert steps.exact, t
            if t.sym in interp.entries:
                assert steps.value <= eval_term(interp, t, {}), t
            else:
                # a symbol without rules, like len_app's app#, takes no step
                assert steps.value == 0, t
