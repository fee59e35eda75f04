from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polytrs import dependency_pairs, depgraph, interpretations, processors, proofs, terms
from polytrs.dependency_pairs import dt_problem, wdp_problem
from polytrs.depgraph import DepGraph, estimate_dg
from polytrs.framework import (
    Bound,
    Problem,
    StartKind,
    is_innermost,
    problems_equal,
)
from polytrs.interpretations import synthesize
from polytrs.parsing import parse_file, parse_problem
from polytrs.processors import (
    StrategyConfig,
    apply_processor,
    default_strategy,
)
from polytrs.proofs import (
    Assumption,
    Axiom,
    Inference,
    interp_from_json,
    interp_to_json,
    is_closed,
    iter_nodes,
    proof_from_json,
    proof_to_json,
    render_proof,
    validate_proof,
)
from polytrs.terms import App, Rule, components
from tests.conftest import (
    ROOT,
    constructor,
    enumerate_derivation_trees,
    marked_sym,
    systems,
    tree_size_restricted,
    trim,
)
from tests.test_depgraph import CORPUS
from tests.test_framework import RECURSIVE

P0 = Bound.poly(0)
P1 = Bound.poly(1)
P2 = Bound.poly(2)
UNK = Bound.unknown()


def nested_f(k: int) -> str:
    """g(s(x)) -> f^k(x) and f(s(x)) -> s(f(x)), runtime complexity."""
    return f"(VAR x)\n(RULES\n  g(s(x)) -> {'f(' * k}x{')' * k}\n  f(s(x)) -> s(f(x))\n)\n"


def chain(k: int) -> str:
    """h_i(s(x), y) -> h_i(x, y) and h_i(0, y) -> h_{i+1}(y, y) for i < k,
    h_k(x, y) -> y, innermost; its runtime is linear."""
    rules = [f"h{k}(x, y) -> y"]
    for i in range(k):
        rules += [f"h{i}(s(x), y) -> h{i}(x, y)", f"h{i}(0, y) -> h{i + 1}(y, y)"]
    return "(VAR x y)\n(RULES\n  " + "\n  ".join(rules) + "\n)\n(STRATEGY INNERMOST)\n"


def pair_chain(k: int) -> str:
    """f_i(s(x)) -> f_{i+1}(x) for i < k and f_k(x) -> x, innermost; its
    runtime is constant."""
    rules = [f"f{i}(s(x)) -> f{i + 1}(x)" for i in range(k)] + [f"f{k}(x) -> x"]
    return "(VAR x)\n(RULES\n  " + "\n  ".join(rules) + "\n)\n(STRATEGY INNERMOST)\n"


def num(p, n):
    t = App(constructor(p, "0"))
    for _ in range(n):
        t = App(constructor(p, "s"), (t,))
    return t


def cp_params(interpretation) -> dict:
    """complexity_pair parameters: the interpretation is the whole of them."""
    return {"interpretation": interpretation}


def strict_labels(p: Problem) -> list[str]:
    return [r.label for r in p.strict]


def weak_labels(p: Problem) -> list[str]:
    return [r.label for r in p.weak]


class TestCombine:
    """The bound functions processors return next to their sub-problems."""

    def test_const(self, mult_dt):
        p = plus_only(mult_dt)
        obj = interp_to_json(synthesize(p, 1, 1))
        _, bound_of = apply_processor("complexity_pair", cp_params(obj), p)
        assert bound_of([]) == P1
        assert bound_of([P2, UNK]) == P1
        # [s](x) = 2x + 1 still orients, but [s^n(0)] grows exponentially in n
        (s_entry,) = (e for e in obj if e["symbol"] == "s/1/constructor")
        s_entry["lin"] = [2]
        _, bound_of = apply_processor("complexity_pair", cp_params(obj), p)
        assert bound_of([P1]) == UNK

    def test_identity(self, mult_problem):
        _, bound_of = apply_processor("weak_dependency_pairs", {}, mult_problem)
        assert bound_of([P2]) == P2
        assert bound_of([UNK]) == UNK

    def test_sum_takes_max_degree(self, mult_problem):
        _, bound_of = apply_processor("decompose", {"strict_part": ["c"]}, mult_problem)
        assert bound_of([P1, P2, P0]) == P2
        assert bound_of([]) == P0
        assert bound_of([P1, UNK]) == UNK

    def test_product_adds_degrees(self, mult_dt):
        params = {"strict_down": ["2"]}
        p = simplified(mult_dt)
        _, bound_of = apply_processor("dependency_graph_decomposition", params, p)
        assert bound_of([P1, P2]) == Bound.poly(3)
        assert bound_of([P1]) == P1
        assert bound_of([UNK, P0]) == UNK
        assert bound_of([]) == P0


class TestInterpJson:
    def test_roundtrip(self, mult_dt):
        interp = synthesize(
            Problem(
                strict_dps=tuple(d for d in mult_dt.dps if d.label in {"1", "2"}),
                strict_trs=(),
                weak_dps=(),
                weak_trs=(),
                q=mult_dt.q,
                start_terms=mult_dt.start_terms,
            ),
            1,
            1,
        )
        assert interp is not None
        obj = interp_to_json(interp)
        assert interp_from_json(obj).entries == dict(interp.entries)

    def test_sorted_output(self, mult_dt):
        interp = synthesize(
            Problem(
                strict_dps=tuple(d for d in mult_dt.dps if d.label in {"1", "2"}),
                strict_trs=(),
                weak_dps=(),
                weak_trs=(),
                q=mult_dt.q,
                start_terms=mult_dt.start_terms,
            ),
            1,
            1,
        )
        obj = interp_to_json(interp)
        symbols = list(interp_from_json(obj).entries)
        keys = [(sym.kind.value, sym.name) for sym in symbols]
        assert keys == sorted(keys)

    def test_second_entry_for_a_symbol_is_rejected(self):
        entry = {"symbol": "s/1/constructor", "lin": [1], "sq": [0], "const": 1}
        with pytest.raises(ValueError, match="second interpretation of s"):
            interp_from_json([entry, dict(entry, const=2)])


class TestDispatch:
    def test_unknown_processor_raises(self, mult_problem):
        with pytest.raises(ValueError):
            apply_processor("shrink", {}, mult_problem)

    def test_malformed_params_reject(self, mult_dt, mult_proof):
        assert apply_processor("predecessor_estimation", {}, mult_dt) is None
        assert apply_processor("complexity_pair", {}, mult_dt) is None
        assert apply_processor("predecessor_estimation", {"rules": 5}, mult_dt) is None
        for entry in (
            {"symbol": "plus/2/marked", "lin": None, "sq": [0, 0], "const": 0},
            {"symbol": "c_2/2/compound", "lin": [], "sq": [], "const": 0},
        ):
            # each is rejected for its shape, not for its symbol
            assert len(interp_from_json([dict(entry, lin=[0, 0], sq=[0, 0])]).entries) == 1
            assert apply_processor("complexity_pair", cp_params([entry]), mult_dt) is None
        # on mult's certificate, each of these edits used to validate
        def dgd(proof):
            return proof["premises"][0]["premises"][0]["premises"][0]

        def s_entry(proof):
            interp = dgd(proof)["premises"][0]["params"]["interpretation"]
            (e,) = [e for e in interp if e["symbol"] == "s/1/constructor"]
            return e

        # params that are not an object are the decoder's to reject
        obj = proof_to_json(mult_proof)
        obj["proof"]["params"] = "junk"
        with pytest.raises(ValueError, match="params 'junk' is not an object"):
            proof_from_json(obj)
        for edit in (
            # read as its characters, "12" would name the rules 1 and 2
            lambda proof: dgd(proof)["params"].update(strict_down="2"),
            lambda proof: s_entry(proof).update(const=1.0),
            lambda proof: s_entry(proof).update(const=True),
        ):
            obj = proof_to_json(mult_proof)
            edit(obj["proof"])
            assert not validate_proof(proof_from_json(obj)).ok

    def test_input_problem_unchanged(self, mult_dt):
        snapshot = Problem(
            strict_dps=mult_dt.strict_dps,
            strict_trs=mult_dt.strict_trs,
            weak_dps=mult_dt.weak_dps,
            weak_trs=mult_dt.weak_trs,
            q=mult_dt.q,
            start_terms=mult_dt.start_terms,
        )
        apply_processor("predecessor_estimation", {"rules": ["1", "3"]}, mult_dt)
        assert problems_equal(mult_dt, snapshot)


def no_strict(p: Problem) -> Problem:
    return Problem(
        strict_dps=(),
        strict_trs=(),
        weak_dps=(),
        weak_trs=p.strict_trs,
        q=p.q,
        start_terms=p.start_terms,
    )


class TestDecompose:
    def test_splits_relative_to_rest(self, mult_problem):
        subs, bound_of = apply_processor(
            "decompose", {"strict_part": ["c"]}, mult_problem
        )
        assert bound_of([P1, P2]) == P2
        first, second = subs
        assert strict_labels(first) == ["c"]
        assert weak_labels(first) == ["a", "b", "d"]
        assert strict_labels(second) == ["a", "b", "d"]
        assert weak_labels(second) == ["c"]
        for sub in subs:
            assert sub.q == mult_problem.q
            assert sub.start_terms == mult_problem.start_terms

    def test_rejects_improper_splits(self, mult_problem):
        for bad in ([], ["a", "b", "c", "d"], ["nope"], ["a", "a"]):
            assert (
                apply_processor("decompose", {"strict_part": bad}, mult_problem)
                is None
            )


class TestDpTransforms:
    def test_weak_dependency_pairs(self, mult_problem):
        subs, bound_of = apply_processor("weak_dependency_pairs", {}, mult_problem)
        assert bound_of([P2]) == P2
        assert problems_equal(subs[0], wdp_problem(mult_problem))

    def test_dependency_tuples(self, mult_problem):
        subs, bound_of = apply_processor("dependency_tuples", {}, mult_problem)
        assert bound_of([P2]) == P2
        assert problems_equal(subs[0], dt_problem(mult_problem))

    def test_rejects_existing_dps(self, mult_dt):
        assert apply_processor("weak_dependency_pairs", {}, mult_dt) is None
        assert apply_processor("dependency_tuples", {}, mult_dt) is None

    def test_rejects_basic_problem_with_dps(self, mult_problem, mult_dt):
        # marking the DPs' marked roots again fails, so neither transform
        # needs a check of its own for DPs
        for dps in (mult_dt, wdp_problem(mult_problem)):
            basic = dataclasses.replace(dps, start_terms=StartKind.BASIC)
            assert apply_processor("weak_dependency_pairs", {}, basic) is None
            assert apply_processor("dependency_tuples", {}, basic) is None

    @pytest.mark.parametrize(
        "proc",
        ["predecessor_estimation", "remove_weak_suffix", "dependency_graph_decomposition"],
    )
    def test_graph_processors_reject_basic_problem_with_dps(self, mult_dt, proc):
        # estimate_dg is the one check of the problem kind
        p, params = {
            "predecessor_estimation": (mult_dt, {"rules": ["1", "3"]}),
            "remove_weak_suffix": (pe_then(mult_dt), {"rules": ["1", "3"]}),
            "dependency_graph_decomposition": (simplified(mult_dt), {"strict_down": ["2"]}),
        }[proc]
        assert apply_processor(proc, params, p) is not None
        basic = dataclasses.replace(p, start_terms=StartKind.BASIC)
        assert apply_processor(proc, params, basic) is None

    def test_dependency_tuples_need_innermost(self, mult_problem):
        full = Problem(
            strict_dps=(),
            strict_trs=mult_problem.strict_trs,
            weak_dps=(),
            weak_trs=(),
            q=(),
            start_terms=StartKind.BASIC,
        )
        assert apply_processor("dependency_tuples", {}, full) is None
        subs, _ = apply_processor("weak_dependency_pairs", {}, full)
        assert not is_innermost(subs[0])


class TestPredecessorEstimation:
    def test_moves_sinks_behind_their_sources(self, mult_dt):
        subs, bound_of = apply_processor(
            "predecessor_estimation", {"rules": ["1", "3"]}, mult_dt
        )
        assert bound_of([P2]) == P2
        (sub,) = subs
        assert [d.label for d in sub.strict_dps] == ["2", "4"]
        assert [d.label for d in sub.weak_dps] == ["1", "3"]
        assert sub.weak_trs == mult_dt.weak_trs
        assert sub.q == mult_dt.q

    def test_self_looping_target_makes_no_progress(self, mult_dt):
        subs, _ = apply_processor(
            "predecessor_estimation", {"rules": ["4"]}, mult_dt
        )
        assert problems_equal(subs[0], mult_dt)

    def test_refusals(self, mult_dt, mult_problem):
        assert (
            apply_processor("predecessor_estimation", {"rules": []}, mult_dt) is None
        )
        assert (
            apply_processor("predecessor_estimation", {"rules": ["9"]}, mult_dt)
            is None
        )
        assert (
            apply_processor(
                "predecessor_estimation", {"rules": ["1", "1"]}, mult_dt
            )
            is None
        )
        assert (
            apply_processor("predecessor_estimation", {"rules": ["a"]}, mult_problem)
            is None
        )

    @pytest.mark.parametrize("name", ["mult_dt", "exp_dt"])
    def test_splits_as_the_theorem_says(self, request, name):
        """For every nonempty S1 of the strict pairs S: the strict pairs
        become (S - S1) | Pre(S1), and every other pair is weak, in p.dps
        order."""
        p = request.getfixturevalue(name)
        edges = estimate_dg(p).edges
        for k in range(1, len(p.strict_dps) + 1):
            for s1 in itertools.combinations(p.strict_dps, k):
                pre = {src for src, dst, _ in edges if dst in s1}
                strict = [
                    d for d in p.dps if (d in p.strict_dps and d not in s1) or d in pre
                ]
                weak = tuple(d for d in p.dps if d not in strict)
                want = dataclasses.replace(p, strict_dps=tuple(strict), weak_dps=weak)
                rules = [d.label for d in s1]
                subs, _ = apply_processor("predecessor_estimation", {"rules": rules}, p)
                assert subs == [want], rules


def pe_then(p: Problem) -> Problem:
    subs, _ = apply_processor("predecessor_estimation", {"rules": ["1", "3"]}, p)
    return subs[0]


class TestRemoveWeakSuffix:
    def test_drops_closed_weak_set(self, mult_dt):
        p = pe_then(mult_dt)
        subs, bound_of = apply_processor("remove_weak_suffix", {"rules": ["1", "3"]}, p)
        assert bound_of([P2]) == P2
        (sub,) = subs
        assert sub.weak_dps == ()
        assert sub.strict_dps == p.strict_dps
        assert sub.weak_trs == p.weak_trs

    def test_rejects_open_suffix(self, mult_dt):
        shuffled = Problem(
            strict_dps=tuple(d for d in mult_dt.dps if d.label == "2"),
            strict_trs=(),
            weak_dps=tuple(d for d in mult_dt.dps if d.label != "2"),
            weak_trs=mult_dt.weak_trs,
            q=mult_dt.q,
            start_terms=mult_dt.start_terms,
        )
        assert (
            apply_processor("remove_weak_suffix", {"rules": ["4"]}, shuffled) is None
        )
        subs, _ = apply_processor(
            "remove_weak_suffix", {"rules": ["1", "3"]}, shuffled
        )
        assert [d.label for d in subs[0].weak_dps] == ["4"]

    def test_needs_all_dp_strict_part(self, mult_dt, mult_problem):
        p = wdp_problem(mult_problem)  # strict part still contains TRS rules
        assert apply_processor("remove_weak_suffix", {"rules": []}, p) is None
        assert apply_processor("remove_weak_suffix", {"rules": ["1"]}, p) is None
        assert (
            apply_processor("remove_weak_suffix", {"rules": []}, mult_dt) is None
        )


def weak_suffix_reference(p: Problem, g: DepGraph) -> list[Rule]:
    """The weak pairs whose forward closure stays weak, by one forward
    closure per pair: the definition of the weak suffix, kept as reference."""
    weak, suffix = set(p.weak_dps), []
    for w in p.weak_dps:
        closed, todo = {w}, [w]
        while todo:
            new = g.successors((todo.pop(),)) - closed
            closed |= new
            todo += new
        if closed <= weak:
            suffix.append(w)
    return suffix


class TestWeakSuffixIsOneWalk:
    """The weak pairs outside one backward closure from the strict pairs are
    exactly the pairs from which no strict pair is reachable."""

    @staticmethod
    def check(tree) -> tuple[int, int]:
        """(pairs dropped, pairs kept) over the DP problems of tree."""
        dropped = kept = 0
        for node in iter_nodes(tree):
            p = node.judgement.problem
            if not p.is_dp_problem():
                continue
            g = estimate_dg(p)
            reaches_strict = g.closure(p.strict_dps, g.predecessors)
            suffix = [w for w in p.weak_dps if w not in reaches_strict]
            assert suffix == weak_suffix_reference(p, g)
            dropped += len(suffix)
            kept += len(p.weak_dps) - len(suffix)
        return dropped, kept

    def test_corpus_proofs(self):
        counts = [self.check(default_strategy(parse_file(str(path)))) for path in CORPUS]
        assert all(map(sum, zip(*counts)))  # some pairs dropped, some kept

    def test_fuzzed_proofs(self, monkeypatch):
        # the systems, fuel and draws of test_framework's
        # test_fuzzed_proof_problems_match_per_row_definition
        monkeypatch.setattr("polytrs.interpretations._FUEL", 2_000)
        counts = []

        @settings(
            derandomize=True,
            database=None,
            max_examples=100,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(systems(extra=RECURSIVE), st.integers(min_value=1, max_value=12))
        def check(text, budget):
            counts.append(self.check(default_strategy(parse_problem(text))))

        check()
        assert sum(dropped for dropped, _ in counts)


def simplified(mult_dt: Problem) -> Problem:
    p = pe_then(mult_dt)
    subs, _ = apply_processor("remove_weak_suffix", {"rules": ["1", "3"]}, p)
    return subs[0]


class TestDgDecomposition:
    def test_splits_along_closed_down_set(self, mult_dt):
        p = simplified(mult_dt)
        subs, bound_of = apply_processor(
            "dependency_graph_decomposition",
            {"strict_down": ["2"], "weak_down": []},
            p,
        )
        assert bound_of([P1, P2]) == Bound.poly(3)
        up, down = subs
        assert [d.label for d in up.strict_dps] == ["4"]
        assert up.weak_dps == ()
        assert [d.label for d in down.strict_dps] == ["2"]
        assert [d.label for d in down.weak_dps] == ["4a", "4b"]
        assert {
            (d.label, len(components(d.rhs))) for d in down.weak_dps
        } == {("4a", 1), ("4b", 1)}
        assert up.weak_trs == p.weak_trs and down.weak_trs == p.weak_trs

    def test_strict_dps_are_partitioned(self, mult_dt):
        p = simplified(mult_dt)
        subs, _ = apply_processor(
            "dependency_graph_decomposition", {"strict_down": ["2"]}, p
        )
        up, down = subs
        assert set(up.strict_dps) | set(down.strict_dps) == set(p.strict_dps)
        assert not set(up.strict_dps) & set(down.strict_dps)

    def test_refusals(self, mult_dt, mult_problem):
        p = simplified(mult_dt)
        for bad in (
            {"strict_down": ["2", "4"]},  # nothing left upstairs
            {"strict_down": ["4"]},  # not forward closed
            {"strict_down": []},
            {"strict_down": ["7"]},
            {"strict_down": ["2"], "weak_down": ["9"]},
        ):
            assert (
                apply_processor("dependency_graph_decomposition", bad, p) is None
            )
        assert (
            apply_processor(
                "dependency_graph_decomposition",
                {"strict_down": ["a"]},
                mult_problem,
            )
            is None
        )

    def test_every_forward_closed_down_set_is_a_candidate(self):
        # ten independent self-loops: each pair alone is a down-set, smallest
        # first, then by label; the fuel, not a count, bounds how many are tried
        rules = "\n  ".join(f"f{i}(s(x)) -> f{i}(x)" for i in range(10))
        p = dt_problem(parse_problem(f"(VAR x)\n(RULES\n  {rules}\n)\n(STRATEGY INNERMOST)\n"))
        labels = sorted(d.label for d in p.strict_dps)
        assert len(labels) == 10
        assert processors._dgd_candidates(p, estimate_dg(p)) == [([d], []) for d in labels]

    def test_desk_scale_soundness(self, mult_dt):
        """Tree-size inequality behind the product combinator, checked on
        every derivation tree from a small start term."""
        p = simplified(mult_dt)
        down_rules = tuple(d for d in p.strict_dps if d.label == "2")
        up_rules = tuple(d for d in p.strict_dps if d.label == "4")
        keep_up = tuple(r for r in p.all_rules if r not in down_rules)
        width = max(len(components(d.rhs)) for d in p.dps)

        def topmost_down(node):
            if node.rule is not None and node.rule in down_rules:
                yield node
                return
            for child in node.children:
                yield from topmost_down(child)

        start = App(marked_sym(mult_dt, "times"), (num(mult_dt, 2), num(mult_dt, 1)))
        checked = 0
        for tr in enumerate_derivation_trees(p, start, 14):
            total = tree_size_restricted(tr, p.strict)
            up = tree_size_restricted(trim(tr, keep_up), up_rules)
            down = max(
                (tree_size_restricted(t, down_rules) for t in topmost_down(tr)),
                default=0,
            )
            assert total <= up + max(1, up * width) * down
            checked += 1
        assert checked > 1


def plus_only(mult_dt: Problem) -> Problem:
    return Problem(
        strict_dps=tuple(d for d in mult_dt.dps if d.label in {"1", "2"}),
        strict_trs=(),
        weak_dps=(),
        weak_trs=(),
        q=mult_dt.q,
        start_terms=mult_dt.start_terms,
    )


class TestComplexityPairProcessor:
    def test_accepts_synthesized_pair(self, mult_dt):
        p = plus_only(mult_dt)
        interp = synthesize(p, 1, 1)
        params = cp_params(interp_to_json(interp))
        subs, bound_of = apply_processor("complexity_pair", params, p)
        assert subs == []
        assert bound_of([]) == P1

    def test_rejects_non_orienting_interp(self, mult_dt):
        p = plus_only(mult_dt)
        interp = synthesize(p, 1, 1)
        obj = interp_to_json(interp)
        for entry in obj:
            entry["lin"] = [0] * len(entry["lin"])
            entry["const"] = 0
        assert (
            apply_processor("complexity_pair", cp_params(obj), p) is None
        )

    def test_rejects_non_monotone_interp(self, mult_problem):
        # [times](x, y) = 1 orients the base case but is not monotone, and
        # the strict part here is a plain rule, so the full map is required.
        p = Problem(
            strict_dps=(),
            strict_trs=tuple(r for r in mult_problem.strict_trs if r.label == "c"),
            weak_dps=(),
            weak_trs=tuple(r for r in mult_problem.strict_trs if r.label != "c"),
            q=mult_problem.q,
            start_terms=mult_problem.start_terms,
        )
        interp = [
            {"symbol": "0/0/constructor", "lin": [], "sq": [], "const": 0},
            {"symbol": "s/1/constructor", "lin": [1], "sq": [0], "const": 0},
            {"symbol": "plus/2/defined", "lin": [0, 1], "sq": [0, 0], "const": 0},
            {"symbol": "times/2/defined", "lin": [0, 0], "sq": [0, 0], "const": 1},
        ]
        assert interp_from_json(interp).entries.keys() == p.signature
        assert (
            apply_processor("complexity_pair", cp_params(interp), p) is None
        )

    def test_missing_entry_rejects(self, mult_dt):
        p = plus_only(mult_dt)
        interp = synthesize(p, 1, 1)
        obj = interp_to_json(interp)[:-1]
        assert (
            apply_processor("complexity_pair", cp_params(obj), p) is None
        )


def cp_nodes(proof) -> list[Inference]:
    return [
        n
        for n in iter_nodes(proof)
        if isinstance(n, Inference) and n.processor == "complexity_pair"
    ]


class TestComplexityPairParameters:
    """A complexity pair's side conditions and bound read its interpretation
    alone, so the certificate records nothing else: schema 3's degree and
    coeff_max keys are rejected as unknown."""

    def test_mult_records_the_interpretation_alone(self, mult_proof):
        assert [set(n.params) for n in cp_nodes(mult_proof)] == [{"interpretation"}] * 2

    @pytest.mark.parametrize("value", [1, 3, 0, None])
    @pytest.mark.parametrize("key", ["degree", "coeff_max"])
    def test_schema_3_parameter_is_rejected(self, mult_proof, key, value):
        for node in cp_nodes(mult_proof):
            p = node.judgement.problem
            assert apply_processor("complexity_pair", node.params, p) is not None
            tampered = dict(node.params, **{key: value})
            assert apply_processor("complexity_pair", tampered, p) is None

    def test_schema_3_parameter_fails_validation(self, mult_proof):
        for key in ("degree", "coeff_max"):
            obj = json.loads(json.dumps(proof_to_json(mult_proof)))
            todo = [obj["proof"]]
            while todo:
                node = todo.pop()
                if node.get("processor") == "complexity_pair":
                    break
                todo += node.get("premises", [])
            node["params"][key] = 1
            result = validate_proof(proof_from_json(obj))
            assert not result.ok and "processor complexity_pair not applicable" in result.errors[0]

    def test_search_goes_up_to_the_cap(self):
        # h's rule needs [s] = x + 1, g's then [g] = x + 2; the search
        # goes up to 3 and finds 2
        p = parse_problem(
            "(VAR x)\n(RULES\n  h(s(x)) -> h(x)\n  g(x) -> s(x)\n)\n(STARTTERM FULL)\n"
        )
        (node,) = cp_nodes(default_strategy(p))
        entries = node.params["interpretation"]
        assert max(c for e in entries for c in (*e["lin"], *e["sq"], e["const"])) == 2


class TestDefaultStrategy:
    def test_empty_strict_is_an_axiom(self, mult_problem):
        proof = default_strategy(no_strict(mult_problem))
        assert isinstance(proof, Axiom)
        assert proof.judgement.bound == P0

    def test_fuel_total_bounds_the_search(self, mult_problem, monkeypatch):
        # of 40 units, dependency tuples take one and the interpretation
        # searches on the pairs run out of their shares
        monkeypatch.setattr("polytrs.interpretations._FUEL", 40)
        outcomes = []
        inner = interpretations.search_interpretation

        def recorded(p, degree, coeff_max, fuel=None):
            got = inner(p, degree, coeff_max, fuel)
            outcomes.append(got.outcome)
            return got

        monkeypatch.setattr(interpretations, "search_interpretation", recorded)
        proof = default_strategy(mult_problem)
        assert proof.processor == "dependency_tuples" and not is_closed(proof)
        assert "out of fuel" in outcomes
        assert "[open: out of fuel]" in render_proof(proof)
        # without fuel not even the first step is applied
        monkeypatch.setattr("polytrs.interpretations._FUEL", 0)
        proof = default_strategy(mult_problem)
        assert (type(proof), proof.note) == (Assumption, "out of fuel")

    def test_timeout_bounds_wall_time(self, mult_problem):
        start = time.monotonic()
        default_strategy(mult_problem, StrategyConfig(timeout=0.5))
        assert time.monotonic() - start < 0.7

    def test_timeout_stops_interpretation_search(self, monkeypatch):
        # expanding six nested degree-2 interpretations takes tens of
        # seconds; with fuel for all of it, the deadline stops it mid-square
        monkeypatch.setattr("polytrs.interpretations._FUEL", 10**9)
        p = parse_problem(nested_f(6))
        start = time.monotonic()
        proof = default_strategy(p, StrategyConfig(timeout=0.5))
        assert time.monotonic() - start < 0.7
        assert "[open: timeout]" in render_proof(proof)

    def test_chain_is_estimated_once(self, monkeypatch):
        # predecessor estimation moves one pair of the chain at a time, and
        # every problem it derives shares one estimate
        rules = [f"f{i}(s(x)) -> f{i + 1}(x)" for i in range(39)] + ["f39(x) -> x"]
        p = parse_problem(
            "(VAR x)\n(RULES\n" + "\n".join(rules) + "\n)\n(STRATEGY INNERMOST)\n"
        )
        calls = []

        def counted(q: Problem):
            calls.append(q)
            return estimate_dg(q)

        for module in (processors, proofs):
            monkeypatch.setattr(module, "estimate_dg", counted)
        depgraph._edges.cache_clear()
        assert len(dt_problem(p).dps) == 40
        assert is_closed(default_strategy(p))
        assert (len(calls), depgraph._edges.cache_info().misses) == (80, 1)

    def test_pair_chain_queries_the_graph_a_constant_per_node(self, monkeypatch):
        # predecessor estimation finds the strict pairs without a strict
        # successor in one predecessors query, not one successors scan per
        # strict pair (63 proof nodes made 2,013 queries that way at k = 60)
        calls = []
        for name in ("successors", "predecessors", "closure"):
            def counted(self, *args, inner=getattr(DepGraph, name), name=name):
                calls.append(name)
                return inner(self, *args)

            monkeypatch.setattr(DepGraph, name, counted)
        proof = default_strategy(parse_problem(pair_chain(60)))
        assert str(proof.judgement.bound) == "O(1)"
        assert len(calls) <= 3 * sum(1 for _ in iter_nodes(proof))

    @pytest.mark.parametrize("k", [40, 80])
    def test_pair_chain_walks_each_pair_a_constant_times(self, monkeypatch, k):
        # every derived problem used to walk every pair again to check its
        # shape (1,803 and 6,803 subterms walks at k = 40 and 80); a rule
        # checks its shape once, when it is built
        p = parse_problem(pair_chain(k))
        calls = []

        def counted(t, inner=terms.subterms):
            calls.append(t)
            return inner(t)

        for module in (terms, dependency_pairs):
            monkeypatch.setattr(module, "subterms", counted)
        default_strategy(p)
        assert len(calls) <= 4 * (k + 1)

    def test_proof_bytes_independent_of_hash_seed(self, tmp_path):
        # f -> g -> f on FULL start terms closes at degree 1, cap 1 only by
        # decompose with a complexity pair on each half
        full = tmp_path / "full.trs"
        full.write_text(
            "(VAR x)\n(STARTTERM FULL)\n(RULES\n  f(x) -> g(x)\n  g(s(x)) -> f(x)\n)\n"
        )
        # per file, the certificate and the SHA-256 of the text rendering
        script = (
            "import hashlib, json, sys\n"
            "from polytrs.parsing import parse_file\n"
            "from polytrs.processors import StrategyConfig, default_strategy\n"
            "from polytrs.proofs import proof_to_json, render_proof\n"
            "cfg = StrategyConfig(degree_max=1, coeff_max=1)\n"
            "for path in sys.argv[1:]:\n"
            "    tree = default_strategy(parse_file(path), cfg)\n"
            "    print(json.dumps(proof_to_json(tree)))\n"
            "    print(hashlib.sha256(render_proof(tree).encode()).hexdigest())\n"
        )
        files = [str(ROOT / "problems" / name) for name in ("mult.trs", "exp.trs")]
        files.append(str(full))
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
            run = subprocess.run(
                [sys.executable, "-c", script, *files],
                env=env,
                capture_output=True,
                check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        digests = [hashlib.sha256(line.encode()).hexdigest() for line in lines[0::2]]
        # pinned certificates: a refactor of the search or of the processors
        # must leave these bytes unchanged
        assert digests == [
            "65350c53a56a577dcac0cb9a2747f12d7bf7c18908d3571a407dd1b27ba9afa2",
            "2a9da42505924f364725bb7e696cbfd2e22f700d7c19e2a801e683385f73a879",
            "d0bfba931458af091405f5223d447ceed3bbdc567b3697f8e358135618f0dd72",
        ]
        # pinned renderings, which name rules by label and show parameters
        # but no interpretation, so only a change of the parameters' keys
        # moves them
        assert lines[1::2] == [
            "8d93b1b50e26d695c63a7ce663dc37d68a24ca4395c9521052c1717b7def0c01",
            "5fd7d87bd17d555f7173b13ba464c072d38d7cde59873da86a3740c3988b9665",
            "fdf1a17beb7f066c7d3a76dac136284fd3bb4d113732f1acfc8ff1ecac4d219f",
        ]

    def test_fuel_spent_does_not_depend_on_the_hash_seed(self):
        # the units each corpus file spends under the default strategy
        script = (
            "import sys\n"
            "import polytrs.processors as processors\n"
            "from polytrs import default_strategy, parse_file\n"
            "from polytrs.interpretations import _FUEL\n"
            "made = []\n"
            "class Counted(processors.Fuel):\n"
            "    def __init__(self, *args):\n"
            "        super().__init__(*args)\n"
            "        made.append(self)\n"
            "processors.Fuel = Counted\n"
            "for path in sys.argv[1:]:\n"
            "    default_strategy(parse_file(path))\n"
            "    print(_FUEL - made[-1].left)\n"
        )
        files = sorted((ROOT / "problems").glob("*.trs"))
        files += sorted((ROOT / "bench" / "problems").glob("*.trs"))
        spent = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
            run = subprocess.run(
                [sys.executable, "-c", script, *map(str, files)],
                env=env,
                capture_output=True,
                check=True,
                text=True,
            )
            names = (str(f.relative_to(ROOT)) for f in files)
            spent.append(dict(zip(names, map(int, run.stdout.split()))))
        assert spent[0] == spent[1] == {
            "problems/exp.trs": 126,
            "problems/mult.trs": 132,
            "bench/problems/ack.trs": 189,
            "bench/problems/exp.trs": 126,
            "bench/problems/half.trs": 21,
            "bench/problems/len_app.trs": 22,
            "bench/problems/mult.trs": 132,
            "bench/problems/plus_full.trs": 10,
            "bench/problems/plus_wdp.trs": 15,
            "bench/problems/quot.trs": 145,
            "bench/problems/reverse.trs": 109,
        }


@pytest.mark.parametrize(
    "text, bound",
    [
        *[(chain(k), bound) for k, bound in zip(range(4, 8), ["O(n^1)", *["O(n^2)"] * 3])],
        (nested_f(3), "O(n^2)"),
        (nested_f(4), "O(n^2)"),
        # expanding the degree-2 search from f^5 on outgrows its fuel share
        *[(nested_f(k), "?") for k in (5, 6, 7)],
    ],
)
def test_generated_families_end_within_fuel(text, bound):
    start = time.monotonic()
    proof = default_strategy(parse_problem(text))
    assert time.monotonic() - start < 2
    assert str(proof.judgement.bound) == bound
    assert ("[open: out of fuel]" in render_proof(proof)) == (bound == "?")
