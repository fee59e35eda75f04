#!/usr/bin/env python3
"""Benchmark of polytrs over a hand-written corpus, through its public API.

    python3 bench/run.py --workload prove|replay|oracle|all --seed N \
        --seconds S --trace 0|1

Workloads (one process, no threads, closed loop: each item starts when the
previous one ends):

- prove:  `polytrs.cli.main(["analyze", FILE, "--proof", "json"])` per corpus
  problem.  Interpretation synthesis is almost all of the time.  When the
  benchmark was added, one pass over the corpus took 68-78 s on a 2-core x86
  box with Python 3.11 (mult alone 22-25 s, and 16-24 s under other load),
  longer than a run, so a run makes one pass.
- replay: the certificate checker.  Certificates are made in set-up by
  default_strategy at degree_max=1, coeff_max=1; each item parses the
  problem, reads the certificate, compares its root with the problem,
  validates it and writes it back.  Valid certificates must be accepted;
  open ones, and three seeded tampered copies per kind of each closed one,
  must be rejected.
- oracle: `polytrs.cli.main(["oracle", FILE, "--size", N, "--budget", B])`
  tables: innermost on basic terms, full rewriting on all ground terms, and
  tables cut by the budget.

The seed renames every symbol and variable (the same suffix length for every
name, keeping the relative order of names, which the synthesiser's search
order depends on), orders the items of a pass and places the tampering.  It
does not reorder rules or change table sizes: both move the amount of work,
and the figures of different seeds must be comparable.

A run makes whole passes over its items until `--seconds` have passed, so the
mix of items is the same on every commit.  Every item runs cold: the
functools caches of polytrs are cleared before it, as in a fresh process.
Outputs are checked against the answers pinned in corpus.json, and each
pass's output bytes against the first pass's.  With `--trace 1` the package
is wrapped (tracer.py) and the per-layer figures are printed instead, per
pass; set-up and checks run untraced.

End-to-end metrics: setup_s (median of several set-ups), items_per_s,
item_p50_s, item_tail_s (the highest percentile with ten samples beyond it,
else the maximum), output_bytes (certificate JSON written by polytrs, or the
oracle tables) and peak_rss_mb.  Items that raise or give a wrong answer
count as failed; error_ratio = failed / attempted is printed, not reported
as a metric, because it is 0 on a correct commit.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 on a completed run, even when an
output is wrong (then "correct" is false); 2 when polytrs cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = (
    "parsing", "dependency_pairs", "depgraph", "interpretations", "processors",
    "proofs", "rewriting", "framework", "terms", "cli",
)
SETUP_REPEATS = {"prove": 25, "replay": 3, "oracle": 25}
REPLAY_CONFIG = {"degree_max": 1, "coeff_max": 1}
TAMPER_KINDS = ("wrong_bound", "dropped_rule", "changed_coefficient", "wrong_label")
# tampered copies per kind and closed certificate; several, so that where the
# seed places them changes the cost of a pass little
TAMPER_COPIES = 3

polytrs: Any = None


def load_polytrs() -> None:
    global polytrs
    if not (SRC / "polytrs" / "__init__.py").is_file():
        print(f"error: no polytrs sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import polytrs.cli  # binds the package; its __init__ does not import cli


def load_corpus() -> list[dict]:
    with open(BENCH / "corpus.json", encoding="utf-8") as handle:
        return json.load(handle)["problems"]


# --- seeded inputs ------------------------------------------------------------

_IDENT = re.compile(r"[^\s(),]+")
_TOKEN = re.compile(r"->=?|[(),]|[^\s(),]+")
_SUFFIX_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def problem_names(text: str) -> tuple[set[str], set[str]]:
    """Variables and function symbols of a problem in the .trs format."""
    variables: set[str] = set()
    names: set[str] = set()
    section = None
    depth = 0
    tokens = _TOKEN.findall(text)
    for i, tok in enumerate(tokens):
        if tok == "(":
            depth += 1
            if depth == 1:
                section = tokens[i + 1]
        elif tok == ")":
            depth -= 1
        elif depth >= 1 and tok != section and tok not in ("->", "->=", ","):
            if section == "VAR":
                variables.add(tok)
            elif section == "RULES":
                names.add(tok)
    return variables, names - variables


def rename(text: str, rng: random.Random) -> str:
    """Give every symbol and variable a seeded suffix of fixed length.

    A suffix keeps the relative order of two names unless one is a prefix
    of the other; the check below rejects corpus files where that happens.
    """
    variables, symbols = problem_names(text)
    mapping: dict[str, str] = {}
    for group in (sorted(symbols), sorted(variables)):
        for name in group:
            mapping[name] = name + "_" + "".join(rng.choices(_SUFFIX_LETTERS, k=5))
        renamed = [mapping[name] for name in group]
        if renamed != sorted(renamed) or len(set(renamed)) != len(renamed):
            raise ValueError(f"renaming does not keep the order of {group}")
    return _IDENT.sub(lambda m: mapping.get(m.group(), m.group()), text)


def verdict_degree(verdict: str) -> Optional[int]:
    """Degree of a verdict string: 'O(n^2)' -> 2, 'O(1)' -> 0, 'MAYBE' -> None."""
    if verdict == "MAYBE":
        return None
    if verdict == "O(1)":
        return 0
    match = re.fullmatch(r"O\(n\^(\d+)\)", verdict)
    if match is None:
        raise ValueError(f"unknown verdict {verdict!r}")
    return int(match.group(1))


def below_known(degree: Optional[int], known: Optional[int]) -> bool:
    """A claimed degree is unsound if it is less than the known one."""
    return degree is not None and (known is None or degree < known)


def expected_table(oracle: dict) -> list[str]:
    if "values" in oracle:
        return list(oracle["values"])
    # plus on unary numbers, basic start terms: plus(s^(n-3)(0), 0)
    return [f"Exact({max(n - 2, 0)})" for n in range(oracle["size"] + 1)]


def tree_nodes(node: dict) -> list[dict]:
    out = [node]
    for premise in node.get("premises", ()):
        out.extend(tree_nodes(premise))
    return out


_RULE_LISTS = ("strict_dps", "strict_trs", "weak_dps", "weak_trs")
_LABEL_PARAMS = ("rules", "strict_down", "weak_down", "strict_part")


def tamper(cert: dict, kind: str, rng: random.Random) -> Optional[dict]:
    """A copy of a closed certificate that a sound checker must reject.

    wrong_bound: one node concludes a degree one off.  dropped_rule: a rule
    is missing from a premise's problem (the "dropped" check of ACCEPTANCE
    10).  changed_coefficient: a complexity pair interprets the root of a
    strict left-hand side as 0.  wrong_label: a rule label, in a node's
    problem or in a processor's parameters, names no rule.  Returns None
    when the certificate has no node the kind applies to.
    """
    cert = copy.deepcopy(cert)
    nodes = tree_nodes(cert["proof"])
    if kind == "wrong_bound":
        bound = rng.choice(nodes)["conclusion"]["bound"]
        bound["degree"] += 1 if bound["degree"] == 0 or rng.random() < 0.5 else -1
    elif kind == "dropped_rule":
        slots = [
            (rules, i)
            for node in nodes[1:]
            for key in _RULE_LISTS
            for rules in (node["conclusion"]["problem"][key],)
            for i in range(len(rules))
        ]
        if not slots:
            return None
        rules, i = rng.choice(slots)
        rules.pop(i)
    elif kind == "changed_coefficient":
        pairs = [n for n in nodes if n.get("processor") == "complexity_pair"]
        if not pairs:
            return None
        node = rng.choice(pairs)
        problem = node["conclusion"]["problem"]
        root = rng.choice(problem["strict_dps"] + problem["strict_trs"])["lhs"]["sym"]
        # [lhs] = 0 cannot be strictly greater than [rhs]
        for entry in node["params"]["interpretation"]:
            if entry["symbol"] == root:
                entry["lin"] = [0] * len(entry["lin"])
                entry["sq"] = [0] * len(entry["sq"])
                entry["const"] = 0
    elif kind == "wrong_label":
        labels = {
            r["label"]
            for n in nodes
            for key in _RULE_LISTS + ("q",)
            for r in n["conclusion"]["problem"][key]
        }
        fresh = "x"
        while fresh in labels:
            fresh += "x"
        slots: list[tuple[Any, Any]] = []
        for n in nodes:
            for key in _LABEL_PARAMS:
                values = n.get("params", {}).get(key, [])
                slots.extend((values, i) for i in range(len(values)))
            for key in _RULE_LISTS:
                slots.extend((r, "label") for r in n["conclusion"]["problem"][key])
        holder, slot = rng.choice(slots)
        holder[slot] = fresh
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return cert


# --- items and passes -----------------------------------------------------------


@dataclass
class Item:
    name: str  # problem name, plus the tamper kind in replay
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # an error message, or None
    output: Callable[[Any], str]  # the bytes compared between passes


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    elapsed: float = 0.0
    pass_seconds: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    by_item: dict[str, list[float]] = field(default_factory=dict)
    first_output: dict[str, str] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def record(self, name: str, seconds: float) -> None:
        self.durations.append(seconds)
        self.by_item.setdefault(name, []).append(seconds)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "polytrs" or name.startswith("polytrs."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_passes(items: list[Item], seconds: float) -> Outcome:
    """Whole passes over items, in order, until `seconds` have passed."""
    out = Outcome()
    clock = time.perf_counter
    start = clock()
    while True:
        pass_start = clock()
        for item in items:
            clear_caches()
            out.attempted += 1
            begin = clock()
            try:
                result = item.run()
            except Exception as err:  # noqa: BLE001  (every item must be counted)
                out.record(item.name, clock() - begin)
                out.fail(f"{item.name}: raised {type(err).__name__}: {err}")
                continue
            out.record(item.name, clock() - begin)
            try:
                problem = item.check(result)
                text = item.output(result)
            except Exception as err:  # noqa: BLE001  (malformed output)
                out.fail(f"{item.name}: unreadable output: {type(err).__name__}: {err}")
                continue
            first = out.first_output.setdefault(item.name, text)
            if problem is None and text != first:
                problem = "output differs from the first pass"
            if problem is not None:
                out.fail(f"{item.name}: {problem}")
            out.results.setdefault(item.name, result)
        out.passes += 1
        out.pass_seconds.append(clock() - pass_start)
        if clock() - start >= seconds:
            break
    out.elapsed = clock() - start
    return out


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = polytrs.cli.main(argv)
    return code, buf.getvalue()


# --- workloads ----------------------------------------------------------------


class Workload:
    """Set-up builds the items of one pass; `post_check` runs after the
    timed window, untraced, and returns (item name, error) pairs."""

    def __init__(self, corpus: list[dict], seed: int, workdir: Path) -> None:
        self.corpus = corpus
        self.seed = seed
        self.workdir = workdir

    def renamed(self) -> dict[str, str]:
        out = {}
        for entry in self.corpus:
            text = (BENCH / entry["file"]).read_text(encoding="utf-8")
            out[entry["name"]] = rename(text, random.Random(f"{self.seed}:{entry['name']}"))
        return out

    def write(self, texts: dict[str, str]) -> dict[str, str]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, text in texts.items():
            path = self.workdir / f"{name}.trs"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        return paths

    def ordered(self, items: list[Item]) -> list[Item]:
        random.Random(f"{self.seed}:order").shuffle(items)
        return items

    def post_check(self, outcome: Outcome) -> list[tuple[str, str]]:
        return []

    def output_bytes(self, outcome: Outcome) -> int:
        return sum(len(text.encode()) for text in outcome.first_output.values())


class Prove(Workload):
    def setup(self) -> list[Item]:
        texts = self.renamed()
        paths = self.write(texts)
        self.texts = texts
        self.meta = {e["name"]: e for e in self.corpus}
        items = []
        for entry in self.corpus:
            name = entry["name"]
            items.append(
                Item(
                    name,
                    run=lambda path=paths[name]: call_cli(
                        ["analyze", path, "--proof", "json"]
                    ),
                    check=lambda res, e=entry: self.check(res, e),
                    output=lambda res: res[1],
                )
            )
        return self.ordered(items)

    @staticmethod
    def check(result: tuple[int, str], entry: dict) -> Optional[str]:
        code, text = result
        verdict = text.split("\n", 1)[0]
        want = entry["prove"]
        want_line = "MAYBE" if want == "MAYBE" else f"WORST_CASE(?, {want})"
        if verdict != want_line:
            return f"verdict {verdict!r}, pinned {want_line!r}"
        if code != (1 if want == "MAYBE" else 0):
            return f"exit code {code}"
        return None

    def post_check(self, outcome: Outcome) -> list[tuple[str, str]]:
        errors = []
        for name, (_, text) in outcome.results.items():
            try:
                errors.extend((name, e) for e in self.check_certificate(name, text))
            except Exception as err:  # noqa: BLE001  (a malformed output is a failure)
                errors.append((name, f"raised {type(err).__name__}: {err}"))
        return errors

    def check_certificate(self, name: str, text: str) -> list[str]:
        entry = self.meta[name]
        tree = polytrs.proof_from_json(json.loads(text.split("\n", 1)[1]))
        root = polytrs.parse_problem(self.texts[name])
        errors = []
        if not polytrs.framework.problems_equal(tree.judgement.problem, root):
            errors.append("certificate root differs from the input")
        if polytrs.validate_proof(tree).ok != (entry["prove"] != "MAYBE"):
            errors.append(f"validation disagrees with verdict {entry['prove']}")
        if below_known(verdict_degree(entry["prove"]), entry["known_degree"]):
            errors.append("claimed degree below the known degree")
        return errors


class Replay(Workload):
    def setup(self) -> list[Item]:
        texts = self.renamed()
        config = polytrs.StrategyConfig(**REPLAY_CONFIG)
        items = []
        self.cert_bytes = 0
        for entry in self.corpus:
            name = entry["name"]
            problem = polytrs.parse_problem(texts[name])
            cert = polytrs.proof_to_json(polytrs.default_strategy(problem, config))
            accept = entry["replay"] != "MAYBE"
            copies = [("valid", cert, accept)]
            if accept:
                rng = random.Random(f"{self.seed}:{name}:tamper")
                for kind in TAMPER_KINDS:
                    for i in range(TAMPER_COPIES):
                        bad = tamper(cert, kind, rng)
                        if bad is not None:
                            copies.append((f"{kind}{i}", bad, False))
            for kind, obj, expect in copies:
                cert_text = json.dumps(obj, indent=2, sort_keys=True)
                if kind == "valid":
                    self.cert_bytes += len(cert_text.encode())
                items.append(
                    Item(
                        f"{name}:{kind}",
                        run=lambda t=texts[name], c=cert_text: self.replay(t, c),
                        check=lambda res, e=entry, x=expect, c=cert_text, k=kind:
                            self.check(res, e, x, c if k == "valid" else None),
                        output=lambda res: res[2],
                    )
                )
        return self.ordered(items)

    @staticmethod
    def replay(text: str, cert_text: str) -> tuple[bool, str, str]:
        root = polytrs.parse_problem(text)
        tree = polytrs.proof_from_json(json.loads(cert_text))
        same = polytrs.framework.problems_equal(tree.judgement.problem, root)
        ok = polytrs.validate_proof(tree).ok
        out = json.dumps(polytrs.proof_to_json(tree), indent=2, sort_keys=True)
        return same and ok, str(tree.judgement.bound), out

    @staticmethod
    def check(result, entry: dict, expect: bool, original: Optional[str]) -> Optional[str]:
        accepted, bound, out = result
        if accepted != expect:
            return "accepted" if accepted else "rejected"
        if accepted and bound != entry["replay"]:
            return f"bound {bound}, pinned {entry['replay']}"
        if accepted and below_known(verdict_degree(bound), entry["known_degree"]):
            return "claimed degree below the known degree"
        if original is not None and out != original:
            return "certificate does not round-trip byte for byte"
        return None

    def output_bytes(self, outcome: Outcome) -> int:
        """Bytes of the certificates polytrs wrote, not of the tampered copies."""
        return self.cert_bytes


class Oracle(Workload):
    def setup(self) -> list[Item]:
        paths = self.write(self.renamed())
        items = []
        for entry in self.corpus:
            oracle = entry["oracle"]
            argv = [
                "oracle", paths[entry["name"]],
                "--size", str(oracle["size"]), "--budget", str(oracle["budget"]),
            ]
            items.append(
                Item(
                    entry["name"],
                    run=lambda argv=argv: call_cli(argv),
                    check=lambda res, want=expected_table(oracle): self.check(res, want),
                    output=lambda res: res[1],
                )
            )
        return self.ordered(items)

    @staticmethod
    def check(result: tuple[int, str], want: list[str]) -> Optional[str]:
        code, text = result
        rows = [line.split("\t") for line in text.splitlines()[1:]]
        got = [value for _, value in rows]
        if code != 0 or [int(n) for n, _ in rows] != list(range(len(want))):
            return f"malformed table (exit code {code})"
        if got != want:
            return f"table {got}, pinned {want}"
        return None


WORKLOADS = {"prove": Prove, "replay": Replay, "oracle": Oracle}


# --- metrics ------------------------------------------------------------------


def tail(durations: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    ranked = sorted(durations)
    n = len(ranked)
    for p in (99.9, 99.5, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return ranked[math.ceil(p / 100 * n) - 1], f"p{p:g} of {n} items"
    return ranked[-1], f"max of {n} items (fewer than 20)"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(setup_s: float, outcome: Outcome, out_bytes: int) -> tuple[dict, str]:
    tail_s, tail_note = tail(outcome.durations)
    values = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (outcome.attempted / outcome.elapsed, "1/s"),
        "item_p50_s": (statistics.median(outcome.durations), "s"),
        "item_tail_s": (tail_s, "s"),
        "output_bytes": (out_bytes, "bytes"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return values, f"item_tail_s is the {tail_note}"


def per_layer(tracer, outcome: Outcome) -> dict:
    stats = tracer.stats
    passes = outcome.passes
    values: dict[str, tuple[float, str]] = {}

    def calls(key: str, *names: str) -> None:
        values[f"{key}.calls"] = (sum(stats[n].calls for n in names) / passes, "calls/pass")

    def self_s(key: str, *names: str) -> None:
        values[f"{key}.self_s"] = (
            sum(stats[n].self_seconds for n in names) / passes, "s/pass"
        )

    def ratio(key: str, name: str) -> None:
        stat = stats[name]
        values[key] = (stat.extra / stat.calls if stat.calls else 0.0, "ratio")

    synth = "interpretations.synthesize"
    calls(synth, synth)
    self_s(synth, synth)
    ratio(f"{synth}.found_ratio", synth)
    values["interpretations.orient_checks"] = (
        (stats["interpretations.orients_strictly"].calls
         + stats["interpretations.orients_weakly"].calls) / passes,
        "calls/pass",
    )
    for key in (
        "interpretations.check_orientation", "depgraph.estimate_dg",
        "processors.apply_processor", "parsing.parse_problem",
        "rewriting.strict_step_oracle", "framework.start_terms_up_to", "cli.main",
    ):
        calls(key, key)
        self_s(key, key)
    values["depgraph.estimate_dg.edges"] = (
        stats["depgraph.estimate_dg"].extra / passes, "edges/pass"
    )
    ratio("processors.apply_processor.rejected_ratio", "processors.apply_processor")
    self_s("processors.default_strategy", "processors.default_strategy")
    for short in ("from_json", "to_json"):
        self_s(f"proofs.{short}", f"proofs.proof_{short}")
    for name in ("validate_proof", "render_proof"):
        self_s(f"proofs.{name}", f"proofs.{name}")
    transforms = ("dependency_pairs.dt_problem", "dependency_pairs.wdp_problem")
    calls("dependency_pairs.transform", *transforms)
    self_s("dependency_pairs.transform", *transforms)
    calls("rewriting.q_successors", "rewriting.q_successors")
    ratio("rewriting.truncated_ratio", "rewriting.strict_step_oracle")
    values["framework.start_terms_up_to.terms"] = (
        stats["framework.start_terms_up_to"].extra / passes, "terms/pass"
    )
    self_s("framework.cc_oracle", "framework.cc_oracle")
    self_s("framework.problems_equal", "framework.problems_equal")
    calls("terms.match_term", "terms.match_term")
    calls("terms.unify_terms", "terms.unify_terms")

    package = SRC / "polytrs"
    total = 0
    for path in sorted(package.glob("*.py")):
        lines = len(path.read_text(encoding="utf-8").splitlines())
        total += lines
        if path.stem in MODULES:
            values[f"{path.stem}.lines"] = (lines, "lines")
    for module in MODULES:
        values.setdefault(f"{module}.lines", (0, "lines"))
    values["src.lines"] = (total, "lines")
    values["trace.items_per_s"] = (outcome.attempted / outcome.elapsed, "1/s")
    values["trace.unreached_wrappers"] = (len(tracer.unreached()), "count")
    return values


# --- driver -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    corpus = load_corpus()
    workdir = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    workload = WORKLOADS[name](corpus, seed, workdir)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS[name]):
            begin = time.perf_counter()
            items = workload.setup()
            setup_times.append(time.perf_counter() - begin)
        tracer = Tracer().install() if trace else None
        try:
            outcome = run_passes(items, seconds)
        finally:
            if tracer is not None:
                tracer.remove()
        errors = workload.post_check(outcome)
        outcome.errors.extend(f"{item_name}: {message}" for item_name, message in errors)
        # a post-check failure fails every run of that item
        failed_late = len({item_name for item_name, _ in errors}) * outcome.passes
        outcome.failed = min(outcome.attempted, outcome.failed + failed_late)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(f"workload {name}, seed {seed}: {outcome.attempted} items in "
          f"{outcome.passes} passes, {outcome.elapsed:.2f} s, {outcome.failed} failed")
    for message in outcome.errors:
        print(f"  error: {message}")
    print("  pass seconds: " + " ".join(f"{s:.3f}" for s in outcome.pass_seconds))
    for item_name, seconds in sorted(outcome.by_item.items()):
        print(f"  item {item_name}: median {statistics.median(seconds):.4g} s of {len(seconds)}")
    if trace:
        metrics = per_layer(tracer, outcome)
        unreached = tracer.unreached()
        print("  wrappers never reached: " + (", ".join(unreached) or "none"))
    else:
        metrics, note = end_to_end(
            statistics.median(setup_times), outcome,
            workload.output_bytes(outcome),
        )
        print(f"  {note}")
        print(f"  error_ratio {outcome.failed / outcome.attempted:.4f}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} {value:.6g} {unit}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_polytrs()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
