"""Proof trees for complexity judgements, their rendering and validation.

A proof is a tree of inference steps.  Leaves are either the axiom for
problems with an empty strict component or open assumptions; inner nodes
name a processor together with the parameters it was applied with, so a
checker can replay every step.  Parameters are kept as plain JSON-ready
dictionaries referencing rules by label.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

from .framework import Bound, Judgement, Problem, StartKind, problems_equal
from .rewriting import Rule
from .terms import App, Symbol, SymbolKind, Term, Var

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Axiom:
    judgement: Judgement


@dataclass(frozen=True)
class Assumption:
    judgement: Judgement
    note: Optional[str] = None


@dataclass(frozen=True, eq=False)
class Inference:
    processor: str
    params: dict[str, Any]
    judgement: Judgement
    premises: tuple["ProofTree", ...]


ProofTree = Union[Axiom, Assumption, Inference]


def is_closed(tree: ProofTree) -> bool:
    """True when the proof has no open assumptions."""
    if isinstance(tree, Assumption):
        return False
    if isinstance(tree, Axiom):
        return True
    return all(is_closed(pr) for pr in tree.premises)


def iter_nodes(tree: ProofTree) -> Iterator[ProofTree]:
    yield tree
    if isinstance(tree, Inference):
        for pr in tree.premises:
            yield from iter_nodes(pr)


@dataclass
class ValidationResult:
    ok: bool
    errors: list[str] = field(default_factory=list)


def validate_proof(tree: ProofTree) -> ValidationResult:
    """Replay every inference step and re-check the concluded bounds."""
    from .processors import apply_processor

    errors: list[str] = []

    def check(node: ProofTree, path: str) -> None:
        if isinstance(node, Assumption):
            errors.append(f"{path}: open assumption")
            return
        if isinstance(node, Axiom):
            if node.judgement.problem.strict:
                errors.append(f"{path}: axiom applied to nonempty strict part")
            elif node.judgement.bound != Bound.poly(0):
                errors.append(f"{path}: axiom must conclude O(1)")
            return
        result = apply_processor(node.processor, node.params, node.judgement.problem)
        if result is None:
            errors.append(f"{path}: processor {node.processor} not applicable")
            return
        subs, bound_of = result
        if len(subs) != len(node.premises):
            errors.append(
                f"{path}: expected {len(subs)} premises, found {len(node.premises)}"
            )
            return
        for i, (sub, premise) in enumerate(zip(subs, node.premises)):
            if not problems_equal(sub, premise.judgement.problem):
                errors.append(
                    f"{path}.{i}: premise problem mismatch under {node.processor}"
                )
        got = bound_of([pr.judgement.bound for pr in node.premises])
        if got != node.judgement.bound:
            errors.append(
                f"{path}: {node.processor} concluded {node.judgement.bound}, "
                f"recomputed {got}"
            )
        for i, premise in enumerate(node.premises):
            check(premise, f"{path}.{i}")

    check(tree, "root")
    return ValidationResult(not errors, errors)


# --- text rendering ---------------------------------------------------------


def render_proof(tree: ProofTree, indent: int = 0) -> str:
    pad = "  " * indent
    j = tree.judgement
    head = f"{pad}|- {j.problem} : {j.bound}"
    if isinstance(tree, Axiom):
        return f"{head}   [empty]"
    if isinstance(tree, Assumption):
        why = f": {tree.note}" if tree.note else ""
        return f"{head}   [open{why}]"
    lines = [f"{head}   [{tree.processor}{_render_params(tree.params)}]"]
    for pr in tree.premises:
        lines.append(render_proof(pr, indent + 1))
    return "\n".join(lines)


def _render_params(params: dict[str, Any]) -> str:
    if not params:
        return ""
    shown = {k: v for k, v in params.items() if k != "interpretation"}
    if "interpretation" in params:
        shown["interpretation"] = "..."
    return " " + json.dumps(shown, sort_keys=True)


# --- JSON serialization -----------------------------------------------------


def _decoder(decode):
    """Make decode report JSON of the wrong shape as ValueError."""

    @functools.wraps(decode)
    def checked(obj: Any):
        try:
            return decode(obj)
        except (AttributeError, KeyError, TypeError) as e:
            raise ValueError(f"malformed JSON in {decode.__name__}: {e!r}") from e

    return checked


def bound_to_json(b: Bound) -> Any:
    return {"degree": b.degree}


@_decoder
def bound_from_json(obj: Any) -> Bound:
    degree = obj["degree"]
    if degree is not None and type(degree) is not int:  # also rejects bool
        raise ValueError(f"bound degree {degree!r} is neither null nor an integer")
    return Bound.unknown() if degree is None else Bound.poly(degree)


def symbol_to_json(s: Symbol) -> Any:
    return {"name": s.name, "arity": s.arity, "kind": s.kind.value}


@_decoder
def symbol_from_json(obj: Any) -> Symbol:
    return Symbol(obj["name"], obj["arity"], SymbolKind(obj["kind"]))


def term_to_json(t: Term) -> Any:
    if isinstance(t, Var):
        return {"var": t.name}
    return {
        "sym": symbol_to_json(t.sym),
        "args": [term_to_json(a) for a in t.args],
    }


@_decoder
def term_from_json(obj: Any) -> Term:
    if "var" in obj:
        return Var(obj["var"])
    sym = symbol_from_json(obj["sym"])
    args = tuple(term_from_json(a) for a in obj["args"])
    return App(sym, args)


def rule_to_json(r: Rule) -> Any:
    return {
        "label": r.label,
        "lhs": term_to_json(r.lhs),
        "rhs": term_to_json(r.rhs),
        "dp": r.is_dp,
    }


@_decoder
def rule_from_json(obj: Any) -> Rule:
    lhs = term_from_json(obj["lhs"])
    return Rule(lhs, term_from_json(obj["rhs"]), obj["label"], is_dp=obj["dp"])


def problem_to_json(p: Problem) -> Any:
    return {
        "strict_dps": [rule_to_json(r) for r in p.strict_dps],
        "strict_trs": [rule_to_json(r) for r in p.strict_trs],
        "weak_dps": [rule_to_json(r) for r in p.weak_dps],
        "weak_trs": [rule_to_json(r) for r in p.weak_trs],
        "q": [rule_to_json(r) for r in p.q],
        "start_terms": {"kind": p.start_terms.value},
        "signature": [
            symbol_to_json(s)
            for s in sorted(p.signature, key=lambda s: (s.name, s.kind.value))
        ],
    }


@_decoder
def problem_from_json(obj: Any) -> Problem:
    return Problem(
        strict_dps=tuple(rule_from_json(r) for r in obj["strict_dps"]),
        strict_trs=tuple(rule_from_json(r) for r in obj["strict_trs"]),
        weak_dps=tuple(rule_from_json(r) for r in obj["weak_dps"]),
        weak_trs=tuple(rule_from_json(r) for r in obj["weak_trs"]),
        q=tuple(rule_from_json(r) for r in obj["q"]),
        start_terms=StartKind(obj["start_terms"]["kind"]),
        signature=frozenset(symbol_from_json(s) for s in obj["signature"]),
    )


def judgement_to_json(j: Judgement) -> Any:
    return {"problem": problem_to_json(j.problem), "bound": bound_to_json(j.bound)}


@_decoder
def judgement_from_json(obj: Any) -> Judgement:
    return Judgement(problem_from_json(obj["problem"]), bound_from_json(obj["bound"]))


def proof_to_json(tree: ProofTree) -> Any:
    """Schema-versioned JSON form; apply proof_from_json to invert."""
    return {"schema": SCHEMA_VERSION, "proof": _node_to_json(tree)}


def _node_to_json(tree: ProofTree) -> Any:
    if isinstance(tree, Axiom):
        return {"node": "axiom", "conclusion": judgement_to_json(tree.judgement)}
    if isinstance(tree, Assumption):
        out = {"node": "assumption", "conclusion": judgement_to_json(tree.judgement)}
        if tree.note is not None:
            out["note"] = tree.note
        return out
    return {
        "node": "inference",
        "processor": tree.processor,
        # a copy, so that editing the JSON leaves the tree as it is
        "params": copy.deepcopy(tree.params),
        "conclusion": judgement_to_json(tree.judgement),
        "premises": [_node_to_json(pr) for pr in tree.premises],
    }


@_decoder
def proof_from_json(obj: Any) -> ProofTree:
    if obj.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported proof schema: {obj.get('schema')!r}")
    return _node_from_json(obj["proof"])


def _node_from_json(obj: Any) -> ProofTree:
    kind = obj["node"]
    judgement = judgement_from_json(obj["conclusion"])
    if kind == "axiom":
        return Axiom(judgement)
    if kind == "assumption":
        return Assumption(judgement, obj.get("note"))
    if kind == "inference":
        return Inference(
            processor=obj["processor"],
            params=copy.deepcopy(obj["params"]),
            judgement=judgement,
            premises=tuple(_node_from_json(pr) for pr in obj["premises"]),
        )
    raise ValueError(f"unknown proof node kind: {kind!r}")
