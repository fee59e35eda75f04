"""Checks of the benchmark itself: seeded inputs, pinned answers, tampering.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_polytrs()
polytrs = run.polytrs
CORPUS = run.load_corpus()
BY_NAME = {e["name"]: e for e in CORPUS}


def texts(seed: int) -> dict[str, str]:
    return run.Workload(CORPUS, seed, Path("unused")).renamed()


def test_same_seed_same_inputs():
    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def test_renaming_keeps_structure_and_order():
    for entry in CORPUS:
        original = (run.BENCH / entry["file"]).read_text(encoding="utf-8")
        renamed = texts(3)[entry["name"]]
        p = polytrs.parse_problem(original)
        q = polytrs.parse_problem(renamed)
        assert len(p.strict) == len(q.strict) and len(p.weak) == len(q.weak)
        assert p.start_terms == q.start_terms and bool(p.q) == bool(q.q)
        old = sorted(p.signature, key=lambda s: (s.kind.value, s.arity, s.name))
        new = sorted(q.signature, key=lambda s: (s.kind.value, s.arity, s.name))
        assert [s.name + "_" for s in old] == [s.name[:-5] for s in new]
        assert len({len(s.name) - len(t.name) for s, t in zip(old, new)}) == 1


def test_renaming_rejects_order_change():
    with pytest.raises(ValueError):
        run.rename("(VAR x)(RULES f(x) -> x  f0(x) -> x)", random.Random(0))


def test_closed_forms_and_pins_agree_on_shape():
    for entry in CORPUS:
        table = run.expected_table(entry["oracle"])
        assert len(table) == entry["oracle"]["size"] + 1
    assert run.expected_table(BY_NAME["plus_wdp"]["oracle"])[:5] == [
        "Exact(0)", "Exact(0)", "Exact(0)", "Exact(1)", "Exact(2)"
    ]


def test_pinned_verdicts_respect_known_degrees():
    for entry in CORPUS:
        for key in ("prove", "replay"):
            assert not run.below_known(run.verdict_degree(entry[key]), entry["known_degree"])
    assert run.below_known(1, 2) and run.below_known(2, None)
    assert not run.below_known(None, None) and not run.below_known(2, 1)


def test_checks_catch_wrong_answers():
    mult = BY_NAME["mult"]
    good = "WORST_CASE(?, O(n^2))\n{}"
    assert run.Prove.check((0, good), mult) is None
    assert run.Prove.check((0, "WORST_CASE(?, O(n^1))\n{}"), mult) is not None
    assert run.Prove.check((1, good), mult) is not None
    want = run.expected_table(mult["oracle"])
    table = "n\tcc\n" + "".join(f"{n}\t{v}\n" for n, v in enumerate(want))
    assert run.Oracle.check((0, table), want) is None
    assert run.Oracle.check((0, table.replace("Exact(21)", "Exact(20)")), want) is not None
    assert run.Replay.check((True, "O(n^2)", ""), mult, True, None) is None
    assert run.Replay.check((True, "O(n^2)", ""), mult, False, None) == "accepted"
    assert run.Replay.check((True, "O(n^1)", ""), mult, True, None) is not None


@functools.lru_cache(maxsize=None)
def replay_certificate(name: str) -> tuple[str, dict]:
    text = texts(5)[name]
    problem = polytrs.parse_problem(text)
    config = polytrs.StrategyConfig(**run.REPLAY_CONFIG)
    return text, polytrs.proof_to_json(polytrs.default_strategy(problem, config))


CLOSED = [e["name"] for e in CORPUS if e["replay"] != "MAYBE"]


@pytest.mark.parametrize("name", CLOSED)
@pytest.mark.parametrize("kind", run.TAMPER_KINDS)
def test_tampered_certificates_are_rejected(kind, name):
    text, cert = replay_certificate(name)
    assert run.Replay.replay(text, json.dumps(cert))[0]
    copies = [run.tamper(cert, kind, random.Random(seed)) for seed in range(6)]
    assert any(bad is not None for bad in copies)
    for bad in filter(None, copies):
        assert bad != cert
        accepted, _, _ = run.Replay.replay(text, json.dumps(bad))
        assert not accepted


def test_tampering_is_seeded():
    _, cert = replay_certificate("reverse")
    for kind in run.TAMPER_KINDS:
        assert run.tamper(cert, kind, random.Random(1)) == run.tamper(
            cert, kind, random.Random(1)
        )


def test_tail_needs_ten_samples_beyond():
    value, note = run.tail([float(i) for i in range(100)])
    assert note.startswith("p90") and value == 89.0
    value, note = run.tail([1.0, 3.0, 2.0])
    assert value == 3.0 and note.startswith("max")


def test_raising_items_and_unreadable_outputs_fail():
    def boom():
        raise RuntimeError("boom")

    items = [
        run.Item("ok", run=lambda: "x", check=lambda r: None, output=str),
        run.Item("raises", run=boom, check=lambda r: None, output=str),
        run.Item("unreadable", run=lambda: "x", check=lambda r: int(r), output=str),
    ]
    out = run.run_passes(items, 0)
    assert (out.passes, out.attempted, out.failed) == (1, 3, 2)
