"""Proof trees for complexity judgements, their rendering and validation.

A proof is a tree of inference steps.  Leaves are either the axiom for
problems with an empty strict component or open assumptions; inner nodes
name a processor together with the parameters it was applied with, so a
checker can replay every step.  Parameters are kept as plain JSON-ready
dictionaries referencing rules by label.

The JSON form is schema 3.  A symbol is the one string name/arity/kind, a
variable is a bare string and an application is {"sym": ..., "args": [...]}.
A problem is its five rule lists and its start terms: no signature, and no
DP flag on a rule, which is a dependency pair because it sits in a *_dps
list.  proof_from_json is the one way in: it rejects any other schema,
schemas 1 and 2 among them, and reports JSON of any other shape as a
ValueError.
"""

from __future__ import annotations

import copy
import functools
import json
import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

from .framework import Bound, Judgement, Problem, StartKind, problems_equal
from .rewriting import Rule
from .terms import App, Symbol, SymbolKind, Term, Var

SCHEMA_VERSION = 3


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
        try:
            result = apply_processor(node.processor, node.params, node.judgement.problem)
        except (TypeError, ValueError):  # raised for an unknown (or unhashable) name only
            errors.append(f"{path}: unknown processor {node.processor!r}")
            return
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
    shown = {k: "..." if k == "interpretation" else v for k, v in params.items()}
    return " " + json.dumps(shown, sort_keys=True)


# --- JSON serialization -----------------------------------------------------


def symbol_to_json(s: Symbol) -> str:
    return f"{s.name}/{s.arity}/{s.kind.value}"


# the name may itself contain slashes; the arity is written as str(int) does
_SYMBOL = re.compile(
    rf"(.*)/(0|[1-9][0-9]*)/({'|'.join(k.value for k in SymbolKind)})", re.DOTALL
)


def symbol_from_json(obj: Any) -> Symbol:
    """Inverts symbol_to_json."""
    if type(obj) is not str:
        raise ValueError(f"symbol {obj!r} is not a string name/arity/kind")
    return _symbol(obj)


@functools.lru_cache(maxsize=None)
def _symbol(text: str) -> Symbol:
    """Unbounded, as the table of interned symbols is: one string, one symbol."""
    match = _SYMBOL.fullmatch(text)
    if match is None:
        raise ValueError(f"symbol {text!r} is not a string name/arity/kind")
    name, arity, kind = match.groups()
    return Symbol(name, int(arity), SymbolKind(kind))


# the rule lists of a problem; the rules of the *_dps ones are dependency pairs
_RULE_SLOTS = ("strict_dps", "strict_trs", "weak_dps", "weak_trs", "q")


def proof_to_json(tree: ProofTree) -> Any:
    """Schema-versioned JSON form; apply proof_from_json to invert."""
    return {"schema": SCHEMA_VERSION, "proof": _node_to_json(tree)}


def _node_to_json(tree: ProofTree) -> Any:
    if isinstance(tree, Axiom):
        return {"node": "axiom", "conclusion": _judgement_to_json(tree.judgement)}
    if isinstance(tree, Assumption):
        note = {} if tree.note is None else {"note": tree.note}
        return {"node": "assumption", "conclusion": _judgement_to_json(tree.judgement), **note}
    return {
        "node": "inference",
        "processor": tree.processor,
        # a copy, so that editing the JSON leaves the tree as it is
        "params": copy.deepcopy(tree.params),
        "conclusion": _judgement_to_json(tree.judgement),
        "premises": [_node_to_json(pr) for pr in tree.premises],
    }


def _judgement_to_json(j: Judgement) -> Any:
    p = j.problem
    problem = {slot: [_rule_to_json(r) for r in getattr(p, slot)] for slot in _RULE_SLOTS}
    problem["start_terms"] = {"kind": p.start_terms.value}
    return {"problem": problem, "bound": {"degree": j.bound.degree}}


def _rule_to_json(r: Rule) -> Any:
    return {"label": r.label, "lhs": _term_to_json(r.lhs), "rhs": _term_to_json(r.rhs)}


def _term_to_json(t: Term) -> Any:
    if t.__class__ is Var:
        return t.name
    return {"sym": symbol_to_json(t.sym), "args": [_term_to_json(a) for a in t.args]}


def proof_from_json(obj: Any) -> ProofTree:
    """Inverts proof_to_json.  JSON of any other shape is a ValueError: the
    decoders below raise it, or make indexing or len() raise in its place."""
    try:
        schema = obj.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported proof schema {schema!r}; expected {SCHEMA_VERSION}")
        _, proof = _fields(obj, "schema", "proof")
        return _node(proof)
    except (AttributeError, KeyError, TypeError) as e:
        raise ValueError(f"malformed certificate: {e!r}") from e
    except RecursionError:
        raise ValueError("certificate nested too deeply") from None


def _fields(obj: Any, *keys: str) -> list[Any]:
    """obj's values at keys.  An object with any other key is rejected, so
    that no key goes unread; one len() is the whole check."""
    if len(obj) != len(keys):
        raise _wrong_keys(obj)
    return [obj[k] for k in keys]


def _wrong_keys(obj: Any) -> ValueError:
    return ValueError(f"unexpected or missing keys among {sorted(obj)}")


def _typed(value: Any, kind: type, what: str) -> Any:
    if value.__class__ is not kind:
        noun = {str: "a string", list: "a list", dict: "an object"}[kind]
        raise ValueError(f"{what} {value!r} is not {noun}")
    return value


def _node(obj: Any) -> ProofTree:
    kind = obj["node"]
    if kind == "axiom":
        _, conclusion = _fields(obj, "node", "conclusion")
        return Axiom(_judgement(conclusion))
    if kind == "assumption":
        keys = ("node", "conclusion", "note") if "note" in obj else ("node", "conclusion")
        _, conclusion, *note = _fields(obj, *keys)
        return Assumption(_judgement(conclusion), *(_typed(n, str, "note") for n in note))
    if kind == "inference":
        keys = ("node", "processor", "params", "conclusion", "premises")
        _, processor, params, conclusion, premises = _fields(obj, *keys)
        return Inference(
            processor=_typed(processor, str, "processor"),
            params=copy.deepcopy(_typed(params, dict, "params")),
            judgement=_judgement(conclusion),
            premises=tuple(_node(pr) for pr in _typed(premises, list, "premises")),
        )
    raise ValueError(f"unknown proof node kind: {kind!r}")


def _judgement(obj: Any) -> Judgement:
    problem, bound = _fields(obj, "problem", "bound")
    *slots, start = _fields(problem, *_RULE_SLOTS, "start_terms")
    (kind,) = _fields(start, "kind")
    rules = [tuple(_rule(r) for r in _typed(rs, list, "rule list")) for rs in slots]
    (degree,) = _fields(bound, "degree")
    if degree is not None and type(degree) is not int:  # also rejects bool
        raise ValueError(f"bound degree {degree!r} is neither null nor an integer")
    return Judgement(
        Problem(**dict(zip(_RULE_SLOTS, rules)), start_terms=StartKind(kind)),
        Bound.unknown() if degree is None else Bound.poly(degree),
    )


def _rule(obj: Any) -> Rule:
    lhs, rhs, label = _fields(obj, "lhs", "rhs", "label")
    return Rule(_term(lhs), _term(rhs), _typed(label, str, "label"))


def _term(obj: Any) -> Term:
    if obj.__class__ is str:
        return Var(obj)
    text, args = obj["sym"], obj["args"]
    if args.__class__ is not list:
        raise ValueError(f"arguments of {text} are not a list")
    if len(obj) != 2:  # _fields, inlined on this hot path
        raise _wrong_keys(obj)
    return App(_symbol(text), tuple([_term(a) for a in args]))
