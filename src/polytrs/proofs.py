"""The certificate checker: proof trees, their JSON codec, the processors'
side conditions and validate_proof, which replays a tree against them.

A proof is a tree of inference steps.  Leaves are either the axiom for
problems with an empty strict component or open assumptions; inner nodes
name a processor and the JSON-ready parameters it was applied with, which
reference rules by label.  apply_processor defines each processor for the
search and the validator alike: the sub-problems and the function computing
the bound from the premises' bounds, or None when a side condition fails.
The walks over a tree keep their own stack; only the decoder is bounded by
Python's recursion limit.

The JSON form is schema 4.  A symbol is the one string name/arity/kind, a
variable is a bare string and an application is {"sym": ..., "args": [...]}.
A problem is its five rule lists and its start terms: no signature, and no
DP flag on a rule, which is a dependency pair because it sits in a *_dps
list.  A complexity pair's parameters are its interpretation alone.
proof_from_json is the one way in: it rejects any other schema, schemas 1
to 3 among them, and reports JSON of any other shape as a ValueError.
"""

from __future__ import annotations

import copy
import functools
import json
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from .dependency_pairs import dt_problem, wdp_problem
from .depgraph import estimate_dg, sep
from .framework import Bound, Judgement, Problem, StartKind, bound_add, bound_mul, problems_equal
from .interpretations import PolyInterp, SymbolPoly, check_orientation, induced_bound, mu_monotone
from .terms import App, Rule, Symbol, SymbolKind, Term, Var

SCHEMA_VERSION = 4


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


def iter_nodes(tree: ProofTree) -> Iterator[ProofTree]:
    """The nodes of tree in preorder."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Inference):
            stack.extend(reversed(node.premises))


def is_closed(tree: ProofTree) -> bool:
    """True when the proof has no open assumptions."""
    return not any(isinstance(n, Assumption) for n in iter_nodes(tree))


# --- text rendering ---------------------------------------------------------


# deeper lines print their depth in place of more indentation
_MAX_INDENT = 32


def render_proof(tree: ProofTree) -> str:
    """One line per node in preorder, each premise indented below its node."""
    lines = []
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * min(depth, _MAX_INDENT) + (f"({depth}) " if depth > _MAX_INDENT else "")
        j = node.judgement
        head = f"{pad}|- {j.problem} : {j.bound}"
        if isinstance(node, Axiom):
            lines.append(f"{head}   [empty]")
        elif isinstance(node, Assumption):
            why = f": {node.note}" if node.note else ""
            lines.append(f"{head}   [open{why}]")
        else:
            lines.append(f"{head}   [{node.processor}{_render_params(node.params)}]")
            stack.extend((pr, depth + 1) for pr in reversed(node.premises))
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


@functools.lru_cache(maxsize=None)
def _symbol(text: str) -> Symbol:
    """Inverts symbol_to_json; unbounded, as the table of interned symbols is."""
    match = _SYMBOL.fullmatch(text)
    if match is None:
        raise ValueError(f"symbol {text!r} is not a string name/arity/kind")
    name, arity, kind = match.groups()
    return Symbol(name, int(arity), SymbolKind(kind))


# the rule lists of a problem; the rules of the *_dps ones are dependency pairs
_RULE_SLOTS = ("strict_dps", "strict_trs", "weak_dps", "weak_trs", "q")


def proof_to_json(tree: ProofTree) -> Any:
    """Schema-versioned JSON form; apply proof_from_json to invert."""
    out: list[Any] = []
    # each node with the list its JSON form joins: its parent's premises
    stack = [(tree, out)]
    while stack:
        node, siblings = stack.pop()
        conclusion = _judgement_to_json(node.judgement)
        if isinstance(node, Axiom):
            siblings.append({"node": "axiom", "conclusion": conclusion})
        elif isinstance(node, Assumption):
            note = {} if node.note is None else {"note": node.note}
            siblings.append({"node": "assumption", "conclusion": conclusion, **note})
        else:
            premises: list[Any] = []
            siblings.append({
                "node": "inference",
                "processor": node.processor,
                # a copy, so that editing the JSON leaves the tree as it is
                "params": copy.deepcopy(node.params),
                "conclusion": conclusion,
                "premises": premises,
            })
            stack.extend((pr, premises) for pr in reversed(node.premises))
    return {"schema": SCHEMA_VERSION, "proof": out[0]}


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


# --- side conditions ---------------------------------------------------------


def _sum(bounds: Sequence[Bound]) -> Bound:
    """Also the bound of single-premise steps."""
    return functools.reduce(bound_add, bounds, Bound.poly(0))


def _product(bounds: Sequence[Bound]) -> Bound:
    return functools.reduce(bound_mul, bounds, Bound.poly(0))


def interp_to_json(interp: PolyInterp) -> Any:
    entries = sorted(
        interp.entries.items(), key=lambda kv: (kv[0].kind.value, kv[0].name)
    )
    return [
        {
            "symbol": symbol_to_json(sym),
            "lin": list(sp.lin),
            "sq": list(sp.sq),
            "const": sp.const,
        }
        for sym, sp in entries
    ]


def interp_from_json(obj: Any) -> PolyInterp:
    entries = {}
    for e in obj:
        text, lin, sq, const = _fields(e, "symbol", "lin", "sq", "const")
        sym = _symbol(text)
        if sym in entries:  # a second entry would go unread
            raise ValueError(f"second interpretation of {sym.display_name}")
        lin, sq = _typed(lin, list, "lin"), _typed(sq, list, "sq")
        entries[sym] = SymbolPoly(tuple(lin), tuple(sq), const)
    return PolyInterp(entries)  # which checks every arity


def _resolve(labels: list[str], pool: Sequence[Rule]) -> Optional[tuple[Rule, ...]]:
    """The pool rules named by labels, in pool order; None on bad input.

    labels must be a list of distinct labels: a string would be read as its
    characters, and anything but a string names no rule."""
    if type(labels) is not list or len(set(labels)) != len(labels):
        return None
    by_label = {r.label: r for r in pool}
    if any(lab not in by_label for lab in labels):
        return None
    wanted = set(labels)
    return tuple(r for r in pool if r.label in wanted)


def _complexity_pair(params: dict, p: Problem):
    interp = interp_from_json(params["interpretation"])
    if not mu_monotone(interp, p) or not check_orientation(interp, p):
        return None
    bound = induced_bound(interp, p)
    return [], lambda _: bound


def _weaken(p: Problem, moved: set[Rule]) -> Problem:
    """p with the strict rules in moved appended to the weak part."""
    return replace(
        p,
        strict_dps=tuple(d for d in p.strict_dps if d not in moved),
        strict_trs=tuple(r for r in p.strict_trs if r not in moved),
        weak_dps=p.weak_dps + tuple(d for d in p.strict_dps if d in moved),
        weak_trs=p.weak_trs + tuple(r for r in p.strict_trs if r in moved),
    )


def _decompose(params: dict, p: Problem):
    s1 = _resolve(params["strict_part"], p.strict)
    if not s1 or len(s1) == len(p.strict):
        return None
    chosen = set(s1)
    return [_weaken(p, set(p.strict) - chosen), _weaken(p, chosen)], _sum


def _weak_dependency_pairs(params: dict, p: Problem):
    return [wdp_problem(p)], _sum


def _dependency_tuples(params: dict, p: Problem):
    return [dt_problem(p)], _sum


def _predecessor_estimation(params: dict, p: Problem):
    s1 = _resolve(params["rules"], p.strict_dps)
    if not s1:
        return None
    strict = (set(p.strict_dps) - set(s1)) | estimate_dg(p).predecessors(s1)
    sub = replace(
        p,
        strict_dps=tuple(d for d in p.dps if d in strict),
        weak_dps=tuple(d for d in p.dps if d not in strict),
    )
    return [sub], _sum


def _remove_weak_suffix(params: dict, p: Problem):
    if not p.strict_dps or p.strict_trs:
        return None
    gone = set(_resolve(params["rules"], p.weak_dps) or ())
    if not gone or not estimate_dg(p).successors(gone) <= gone:
        return None
    sub = replace(p, weak_dps=tuple(d for d in p.weak_dps if d not in gone))
    return [sub], _sum


def _dg_decomposition(params: dict, p: Problem):
    s_down = _resolve(params["strict_down"], p.strict_dps)
    w_down = _resolve(params.get("weak_down", []), p.weak_dps)
    if not s_down or w_down is None:
        return None
    if len(s_down) == len(p.strict_dps):
        return None
    down = set(s_down) | set(w_down)
    g = estimate_dg(p)
    if not g.successors(down) <= down:
        return None
    s_up = tuple(d for d in p.strict_dps if d not in down)
    w_up = tuple(d for d in p.weak_dps if d not in down)
    if not (g.predecessors(down) - down <= set(s_up)):
        return None
    p_up = replace(p, strict_dps=s_up, weak_dps=w_up)
    p_down = replace(p, strict_dps=s_down, weak_dps=w_down + sep(s_up + w_up))
    return [p_up, p_down], _product


# each processor with the parameter keys it accepts
_PROCESSORS = {
    "complexity_pair": (_complexity_pair, {"interpretation"}),
    "decompose": (_decompose, {"strict_part"}),
    "weak_dependency_pairs": (_weak_dependency_pairs, set()),
    "dependency_tuples": (_dependency_tuples, set()),
    "predecessor_estimation": (_predecessor_estimation, {"rules"}),
    "remove_weak_suffix": (_remove_weak_suffix, {"rules"}),
    # weak_down may be left out
    "dependency_graph_decomposition": (_dg_decomposition, {"strict_down", "weak_down"}),
}


def apply_processor(
    proc: str, params: dict, p: Problem
) -> Optional[tuple[list[Problem], Callable[[Sequence[Bound]], Bound]]]:
    """Run one processor: its sub-problems and the function computing its bound
    from theirs, or None when its side conditions reject (p, params).

    A problem of the wrong kind and malformed parameters (unknown labels or
    keys, missing interpretation entries, values of the wrong type, rule sets
    that break problem invariants) count as rejection, since params may come
    from an untrusted serialized proof.
    """
    if proc not in _PROCESSORS:
        raise ValueError(f"unknown processor {proc!r}")
    fn, keys = _PROCESSORS[proc]
    if type(params) is not dict or not params.keys() <= keys:
        return None
    try:
        return fn(params, p)
    except (KeyError, TypeError, ValueError):
        return None


# --- validation ------------------------------------------------------------


@dataclass
class ValidationResult:
    ok: bool
    errors: list[str] = field(default_factory=list)


def validate_proof(tree: ProofTree) -> ValidationResult:
    """Replay every inference step and re-check the concluded bounds.  Every
    node is checked, also below one that fails; an error names node k, the
    k-th in preorder from 0, which is line k + 1 of render_proof."""
    errors = [f"node {k}: {e}" for k, node in enumerate(iter_nodes(tree)) for e in _errors(node)]
    return ValidationResult(not errors, errors)


def _errors(node: ProofTree) -> list[str]:
    """What is wrong with node itself, given its premises' conclusions."""
    if isinstance(node, Assumption):
        return ["open assumption"]
    if isinstance(node, Axiom):
        if node.judgement.problem.strict:
            return ["axiom applied to nonempty strict part"]
        return [] if node.judgement.bound == Bound.poly(0) else ["axiom must conclude O(1)"]
    try:
        result = apply_processor(node.processor, node.params, node.judgement.problem)
    except (TypeError, ValueError):  # raised for an unknown (or unhashable) name only
        return [f"unknown processor {node.processor!r}"]
    if result is None:
        return [f"processor {node.processor} not applicable"]
    subs, bound_of = result
    if len(subs) != len(node.premises):
        return [f"expected {len(subs)} premises, found {len(node.premises)}"]
    errors = [
        f"premise problem mismatch under {node.processor}, premise {i}"
        for i, (sub, premise) in enumerate(zip(subs, node.premises))
        if not problems_equal(sub, premise.judgement.problem)
    ]
    got = bound_of([pr.judgement.bound for pr in node.premises])
    if got != node.judgement.bound:
        errors.append(f"{node.processor} concluded {node.judgement.bound}, recomputed {got}")
    return errors
