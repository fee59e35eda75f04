"""End-to-end acceptance gate.

One test per shipped requirement.  Every test prints a single
"ACCEPTANCE NN <name>: PASS|FAIL" line on the real terminal (bypassing
capture) and then asserts, so a full run shows ten verdict lines.
"""

from __future__ import annotations

import copy
import json
import time

from polytrs.cli import main
from polytrs.depgraph import estimate_dg
from polytrs.framework import (
    Problem,
    StartKind,
    cc_oracle,
    problems_equal,
    start_terms_up_to,
)
from polytrs.interpretations import synthesize
from polytrs.processors import apply_processor
from polytrs.proofs import (
    Inference,
    is_closed,
    iter_nodes,
    proof_from_json,
    proof_to_json,
    validate_proof,
)
from polytrs.rewriting import (
    OracleResult,
    Rule,
    dh_oracle,
    strict_step_oracle,
)
from polytrs.terms import App, Symbol, SymbolKind, compound, mark
from tests.conftest import (
    ROOT,
    chains_of,
    constructor,
    defined,
    enumerate_derivation_trees,
    tree_size_oracle,
    tree_size_restricted,
)

MULT = str(ROOT / "problems" / "mult.trs")
EXP = str(ROOT / "problems" / "exp.trs")


def report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def nat(p, n: int):
    t = App(constructor(p, "0"))
    for _ in range(n):
        t = App(constructor(p, "s"), (t,))
    return t


def test_01_multiplication_quadratic_bound(capsys):
    started = time.monotonic()
    code = main(["analyze", MULT, "--proof", "json"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    lines = out.splitlines()

    proof = proof_from_json(json.loads("\n".join(lines[1:])))
    checks = {
        "exit code": code == 0,
        "verdict": lines[0] == "WORST_CASE(?, O(n^2))",
        "closed": is_closed(proof),
        "valid": validate_proof(proof).ok,
        "wall time": elapsed < 30.0,
    }

    chain_ok = False
    if isinstance(proof, Inference) and proof.processor == "dependency_tuples":
        pe = proof.premises[0]
        rws = pe.premises[0] if isinstance(pe, Inference) else None
        dgd = rws.premises[0] if isinstance(rws, Inference) else None
        cps = [
            n
            for n in iter_nodes(proof)
            if isinstance(n, Inference) and n.processor == "complexity_pair"
        ]
        chain_ok = (
            isinstance(pe, Inference)
            and pe.processor == "predecessor_estimation"
            and sorted(pe.params["rules"]) == ["1", "3"]
            and isinstance(rws, Inference)
            and rws.processor == "remove_weak_suffix"
            and sorted(rws.params["rules"]) == ["1", "3"]
            and isinstance(dgd, Inference)
            and dgd.processor == "dependency_graph_decomposition"
            and dgd.params["strict_down"] == ["2"]
            and len(cps) == 2
            and all(cp.params["degree"] == 1 for cp in cps)
        )
    checks["inference chain"] = chain_ok

    bad = [k for k, v in checks.items() if not v]
    report(capsys, 1, "multiplication quadratic bound", not bad, ", ".join(bad))


def test_02_runtime_oracle_consistency(capsys, mult_problem):
    values = {n: cc_oracle(mult_problem, n, 60) for n in range(3, 10)}
    all_exact = all(v.exact for v in values.values())
    expected = dict(zip(range(3, 10), [1, 3, 5, 7, 10, 13, 17]))
    frozen_ok = {n: v.value for n, v in values.items()} == expected
    ordered = all(values[n].value <= values[n + 1].value for n in range(3, 9))
    # quadratic envelope, constant 2 fitted against the measured values
    capped = all(v.value <= 2 * n * n for n, v in values.items())

    rules = mult_problem.all_rules
    q = mult_problem.q
    times_t = App(defined(mult_problem, "times"), (nat(mult_problem, 1), nat(mult_problem, 1)))
    plus_t = App(defined(mult_problem, "plus"), (nat(mult_problem, 1), nat(mult_problem, 0)))
    heights_ok = dh_oracle(times_t, rules, q, 60) == OracleResult.exactly(4) and (
        dh_oracle(plus_t, rules, q, 60) == OracleResult.exactly(2)
    )

    ok = all_exact and frozen_ok and ordered and capped and heights_ok
    report(
        capsys,
        2,
        "runtime oracle consistency",
        ok,
        f"values={[v.value for v in values.values()]}",
    )


def test_03_exponential_system_stays_open(capsys, exp_problem, exp_dt):
    code = main(["analyze", EXP, "--degree-max", "3", "--proof", "none"])
    out = capsys.readouterr().out
    maybe_ok = code == 1 and out.splitlines()[0] == "MAYBE"

    e = defined(exp_problem, "e")
    rules = exp_problem.all_rules
    growth_ok = all(
        dh_oracle(App(e, (nat(exp_problem, k),)), rules, rules, 200).value >= 2**k
        for k in range(1, 5)
    )

    subs, _ = apply_processor("predecessor_estimation", {"rules": ["1", "3"]}, exp_dt)
    subs, _ = apply_processor("remove_weak_suffix", {"rules": ["1", "3"]}, subs[0])
    res = apply_processor(
        "dependency_graph_decomposition",
        {"strict_down": ["2"], "weak_down": []},
        subs[0],
    )
    down_ok = False
    if res is not None:
        _, p_down = res[0]
        down_ok = (
            {"4a", "4b"} <= {d.label for d in p_down.weak_dps}
            and synthesize(p_down, 1, 3) is None
            and synthesize(p_down, 2, 3) is None
        )

    ok = maybe_ok and growth_ok and down_ok
    report(
        capsys,
        3,
        "exponential system stays open",
        ok,
        f"maybe={maybe_ok} growth={growth_ok} down={down_ok}",
    )


def test_04_chains_are_graph_paths(capsys, mult_dt, exp_dt):
    checks = 0
    violations = 0
    for p in (mult_dt, exp_dt):
        g = estimate_dg(p)
        edge_pairs = {(src.label, dst.label) for src, dst, _ in g.edges}
        nodes = {d.label for d in p.dps}
        for start in start_terms_up_to(p, 7):
            for tr in enumerate_derivation_trees(p, start, 12):
                for chain in chains_of(tr, p):
                    checks += 1
                    if not set(chain) <= nodes:
                        violations += 1
                        continue
                    if any(
                        (a, b) not in edge_pairs for a, b in zip(chain, chain[1:])
                    ):
                        violations += 1
    ok = checks > 100 and violations == 0
    report(
        capsys,
        4,
        "chains are graph paths",
        ok,
        f"checks={checks} violations={violations}",
    )


def test_05_tree_size_matches_step_oracle(capsys, mult_dt):
    starts = start_terms_up_to(mult_dt, 6)
    both_exact = 0
    mismatches = 0
    for start in starts:
        a = tree_size_oracle(mult_dt, start, 12)
        b = strict_step_oracle(start, mult_dt.strict, mult_dt.weak, mult_dt.q, 12)
        if a.exact and b.exact:
            both_exact += 1
            if a.value != b.value:
                mismatches += 1
    ok = len(starts) == 20 and both_exact == 18 and mismatches == 0
    report(
        capsys,
        5,
        "tree size matches step oracle",
        ok,
        f"starts={len(starts)} exact={both_exact} mismatches={mismatches}",
    )


def test_06_marked_transforms_preserve_height(capsys, mult_problem, mult_dt):
    pw_res = apply_processor("weak_dependency_pairs", {}, mult_problem)
    pw = pw_res[0][0]
    starts = start_terms_up_to(mult_problem, 7)
    equal = 0
    bounded = 0
    for t in starts:
        plain = dh_oracle(t, mult_problem.all_rules, mult_problem.q, 40)
        lifted = dh_oracle(mark(t), pw.all_rules, pw.q, 40)
        if plain.exact and lifted.exact and plain.value == lifted.value:
            equal += 1
        tupled = strict_step_oracle(
            mark(t), mult_dt.strict, mult_dt.weak, mult_dt.q, 40
        )
        if plain.exact and tupled.exact and plain.value <= tupled.value:
            bounded += 1
    ok = len(starts) == 30 and equal == 30 and bounded == 30
    report(
        capsys,
        6,
        "marked transforms preserve height",
        ok,
        f"starts={len(starts)} equal={equal} bounded={bounded}",
    )


def test_07_predecessor_inequality(capsys, mult_dt):
    g = estimate_dg(mult_dt)
    droppable = [
        d for d in mult_dt.dps if d not in g.predecessors((d,))
    ]
    checks = 0
    violations = 0
    for start in start_terms_up_to(mult_dt, 7):
        for tr in enumerate_derivation_trees(mult_dt, start, 14):
            full = tree_size_restricted(tr, mult_dt.all_rules)
            for d in droppable:
                rest = tuple(r for r in mult_dt.all_rules if r != d)
                checks += 1
                if full > max(1, 2 * tree_size_restricted(tr, rest)):
                    violations += 1
    ok = (
        [d.label for d in droppable] == ["1", "3"]
        and checks >= 1000
        and violations == 0
    )
    report(
        capsys,
        7,
        "predecessor inequality",
        ok,
        f"droppable={[d.label for d in droppable]} checks={checks} "
        f"violations={violations}",
    )


def test_08_dependency_graph_fixtures(capsys, mult_dt, exp_dt):
    mult_edges = {
        (src.label, dst.label) for src, dst, _ in estimate_dg(mult_dt).edges
    }
    # Reference edges for the multiplication DTs, derived from the DT
    # definitions (an edge s -> t when a component of s's right-hand side,
    # with its defined subterms capped, unifies with t's left-hand side):
    #   1: plus#(0, y) -> c_0                    no components
    #   2: plus#(s(x), y) -> plus#(x, y)         x := 0 gives 1, x := s(x') gives 2
    #   3: times#(0, y) -> c_0                   no components
    #   4: times#(s(x), y) -> c_2(plus#(y, times(x, y)), times#(x, y))
    #      first component:  y := 0 gives 1, y := s(y') gives 2
    #      second component: x := 0 gives 3, x := s(x') gives 4
    # Witness for (4, 1): from times#(s(0), 0), DT 4 gives
    # c_2(plus#(0, times(0, 0)), times#(0, 0)); times(0, 0) -> 0 rewrites the
    # capped argument, and DT 1 fires on plus#(0, 0).
    mult_expected = {
        ("2", "1"),
        ("2", "2"),
        ("4", "1"),
        ("4", "2"),
        ("4", "3"),
        ("4", "4"),
    }
    # Every reference edge must occur in an actual chain, so the reference
    # cannot be a guess; ACCEPTANCE 04 checks the converse for the estimate.
    witnessed = {
        pair
        for start in start_terms_up_to(mult_dt, 7)
        for tr in enumerate_derivation_trees(mult_dt, start, 12)
        for chain in chains_of(tr, mult_dt)
        for pair in zip(chain, chain[1:])
    }

    trimmed = Problem(
        strict_dps=tuple(d for d in exp_dt.dps if d.label in {"2", "4"}),
        strict_trs=(),
        weak_dps=(),
        weak_trs=exp_dt.weak_trs,
        q=exp_dt.q,
        start_terms=exp_dt.start_terms,
    )
    exp_edges = {
        (src.label, dst.label) for src, dst, _ in estimate_dg(trimmed).edges
    }
    exp_expected = {("2", "2"), ("4", "4"), ("4", "2")}

    ok = (
        mult_edges == mult_expected
        and mult_expected <= witnessed
        and exp_edges == exp_expected
    )
    report(
        capsys,
        8,
        "dependency graph fixtures",
        ok,
        f"mult extra={sorted(mult_edges - mult_expected)} "
        f"mult missing={sorted(mult_expected - mult_edges)} "
        f"mult unwitnessed={sorted(mult_expected - witnessed)} "
        f"exp diff={sorted(exp_edges ^ exp_expected)}",
    )


def test_09_unsound_removals_rejected(capsys):
    f_mark = Symbol("f", 0, SymbolKind.MARKED)
    g_mark = Symbol("g", 0, SymbolKind.MARKED)
    c0, c1, c2 = compound(0), compound(1), compound(2)

    spawner = Rule(App(f_mark), App(c2, (App(f_mark), App(g_mark))), "f1")
    sink = Rule(App(g_mark), App(c0), "g1")
    infinite = Problem(
        strict_dps=(sink,),
        strict_trs=(),
        weak_dps=(spawner,),
        weak_trs=(),
        q=(),
        start_terms=StartKind.MARKED_BASIC,
    )
    removal_refused = all(
        apply_processor("remove_weak_suffix", {"rules": labels}, infinite) is None
        for labels in ([], ["f1"])
    )
    unbounded = all(
        strict_step_oracle(
            App(f_mark), infinite.strict, infinite.weak, infinite.q, b
        )
        == OracleResult.at_least(b)
        for b in (5, 10)
    )

    g_def = Symbol("g", 0, SymbolKind.DEFINED)
    caller = Rule(App(f_mark), App(c1, (App(g_def),)), "f1")
    looper = Rule(App(g_def), App(g_def), "g")
    looping = Problem(
        strict_dps=(caller,),
        strict_trs=(looper,),
        weak_dps=(),
        weak_trs=(),
        q=(),
        start_terms=StartKind.MARKED_BASIC,
    )
    suffix_refused = (
        apply_processor("remove_weak_suffix", {"rules": ["g"]}, looping) is None
        and apply_processor("remove_weak_suffix", {"rules": []}, looping) is None
    )
    pe_res = apply_processor("predecessor_estimation", {"rules": ["f1"]}, looping)
    loop_kept = (
        pe_res is not None
        and problems_equal(pe_res[0][0], looping)
        and looper in pe_res[0][0].strict_trs
    )

    ok = removal_refused and unbounded and suffix_refused and loop_kept
    report(
        capsys,
        9,
        "unsound removals rejected",
        ok,
        f"removal={removal_refused} oracle={unbounded} "
        f"suffix={suffix_refused} loop={loop_kept}",
    )


def _find_inference(node: dict, processor: str):
    if node["node"] != "inference":
        return None
    if node["processor"] == processor:
        return node
    for premise in node["premises"]:
        got = _find_inference(premise, processor)
        if got is not None:
            return got
    return None


def test_10_proof_tamper_detection(capsys, mult_proof):
    stored = proof_to_json(mult_proof)
    assert validate_proof(proof_from_json(stored)).ok

    dropped = copy.deepcopy(stored)
    dgd = _find_inference(dropped["proof"], "dependency_graph_decomposition")
    problem = dgd["premises"][1]["conclusion"]["problem"]
    before = len(problem["weak_dps"])
    problem["weak_dps"] = [
        r for r in problem["weak_dps"] if r["label"] not in ("4a", "4b")
    ]
    res_a = validate_proof(proof_from_json(dropped))
    drop_detected = (
        before > len(problem["weak_dps"])
        and not res_a.ok
        and any("dependency_graph_decomposition" in e for e in res_a.errors)
    )

    lowered = copy.deepcopy(stored)
    lowered["proof"]["conclusion"]["bound"]["degree"] = 1
    res_b = validate_proof(proof_from_json(lowered))
    root_proc = stored["proof"]["processor"]
    lower_detected = not res_b.ok and any(
        root_proc in e and "concluded" in e for e in res_b.errors
    )

    ok = drop_detected and lower_detected
    report(
        capsys,
        10,
        "proof tamper detection",
        ok,
        f"drop={drop_detected} lower={lower_detected}",
    )
