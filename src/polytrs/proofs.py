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
list.  proof_from_json rejects any other schema, schemas 1 and 2 among
them, and decodes each distinct symbol string once per certificate.
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
    def checked(obj: Any, *args: Any, **kwargs: Any):
        try:
            return decode(obj, *args, **kwargs)
        except (AttributeError, KeyError, TypeError) as e:
            raise ValueError(f"malformed JSON in {decode.__name__}: {e!r}") from e

    return checked


def _fields(obj: Any, *keys: str) -> list[Any]:
    """obj's values at keys.  An object with any other key is rejected, so
    that no key goes unread; one len() is the whole check."""
    if len(obj) != len(keys):
        raise _wrong_keys(obj)
    return [obj[k] for k in keys]


def _wrong_keys(obj: Any) -> ValueError:
    return ValueError(f"unexpected or missing keys among {sorted(obj)}")


def bound_to_json(b: Bound) -> Any:
    return {"degree": b.degree}


@_decoder
def bound_from_json(obj: Any) -> Bound:
    (degree,) = _fields(obj, "degree")
    if degree is not None and type(degree) is not int:  # also rejects bool
        raise ValueError(f"bound degree {degree!r} is neither null nor an integer")
    return Bound.unknown() if degree is None else Bound.poly(degree)


def symbol_to_json(s: Symbol) -> str:
    return f"{s.name}/{s.arity}/{s.kind.value}"


# the name may itself contain slashes; the arity is written as str(int) does
_SYMBOL = re.compile(
    rf"(.*)/(0|[1-9][0-9]*)/({'|'.join(k.value for k in SymbolKind)})", re.DOTALL
)


def symbol_from_json(obj: Any) -> Symbol:
    """Inverts symbol_to_json."""
    match = _SYMBOL.fullmatch(obj) if type(obj) is str else None
    if match is None:
        raise ValueError(f"symbol {obj!r} is not a string name/arity/kind")
    name, arity, kind = match.groups()
    return Symbol(name, int(arity), SymbolKind(kind))


def term_to_json(t: Term) -> Any:
    if t.__class__ is Var:
        return t.name
    return {"sym": symbol_to_json(t.sym), "args": [term_to_json(a) for a in t.args]}


# The decoders below take an optional memo from symbol strings to symbols,
# which proof_from_json shares across a whole certificate.


@_decoder
def term_from_json(obj: Any, symbols: Optional[dict[str, Symbol]] = None) -> Term:
    return _term(obj, {} if symbols is None else symbols)


def _term(obj: Any, symbols: dict[str, Symbol]) -> Term:
    if obj.__class__ is str:
        return Var(obj)
    text, args = obj["sym"], obj["args"]
    sym = symbols.get(text)
    if sym is None:
        sym = symbols[text] = symbol_from_json(text)
    if args.__class__ is not list:
        raise ValueError(f"arguments of {text} are not a list")
    if len(obj) != 2:  # _fields, inlined on this hot path
        raise _wrong_keys(obj)
    return App(sym, tuple([_term(a, symbols) for a in args]))


def rule_to_json(r: Rule) -> Any:
    return {"label": r.label, "lhs": term_to_json(r.lhs), "rhs": term_to_json(r.rhs)}


@_decoder
def rule_from_json(obj: Any, symbols: Optional[dict[str, Symbol]] = None) -> Rule:
    lhs, rhs, label = _fields(obj, "lhs", "rhs", "label")
    symbols = {} if symbols is None else symbols
    return Rule(_term(lhs, symbols), _term(rhs, symbols), label)


# the rule lists of a problem; the rules of the *_dps ones are dependency pairs
_RULE_SLOTS = ("strict_dps", "strict_trs", "weak_dps", "weak_trs", "q")


def problem_to_json(p: Problem) -> Any:
    return {
        **{slot: [rule_to_json(r) for r in getattr(p, slot)] for slot in _RULE_SLOTS},
        "start_terms": {"kind": p.start_terms.value},
    }


@_decoder
def problem_from_json(obj: Any, symbols: Optional[dict[str, Symbol]] = None) -> Problem:
    *slots, start = _fields(obj, *_RULE_SLOTS, "start_terms")
    (kind,) = _fields(start, "kind")
    symbols = {} if symbols is None else symbols
    rules = [tuple(rule_from_json(r, symbols) for r in rs) for rs in slots]
    return Problem(**dict(zip(_RULE_SLOTS, rules)), start_terms=StartKind(kind))


def judgement_to_json(j: Judgement) -> Any:
    return {"problem": problem_to_json(j.problem), "bound": bound_to_json(j.bound)}


@_decoder
def judgement_from_json(obj: Any, symbols: Optional[dict[str, Symbol]] = None) -> Judgement:
    problem, bound = _fields(obj, "problem", "bound")
    return Judgement(problem_from_json(problem, symbols), bound_from_json(bound))


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
    schema = obj.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported proof schema {schema!r}; this version reads schema "
            f"{SCHEMA_VERSION} only"
        )
    _, proof = _fields(obj, "schema", "proof")
    return _node_from_json(proof, {})


def _node_from_json(obj: Any, symbols: dict[str, Symbol]) -> ProofTree:
    kind = obj["node"]
    if kind == "axiom":
        _, conclusion = _fields(obj, "node", "conclusion")
        return Axiom(judgement_from_json(conclusion, symbols))
    if kind == "assumption":
        keys = ("node", "conclusion", "note") if "note" in obj else ("node", "conclusion")
        _, conclusion, *note = _fields(obj, *keys)
        return Assumption(judgement_from_json(conclusion, symbols), *note)
    if kind == "inference":
        keys = ("node", "processor", "params", "conclusion", "premises")
        _, processor, params, conclusion, premises = _fields(obj, *keys)
        return Inference(
            processor=processor,
            params=copy.deepcopy(params),
            judgement=judgement_from_json(conclusion, symbols),
            premises=tuple(_node_from_json(pr, symbols) for pr in premises),
        )
    raise ValueError(f"unknown proof node kind: {kind!r}")
