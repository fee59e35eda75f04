"""Processors: side-condition-checked inference steps over complexity
problems, plus the default proof search built from them.

apply_processor is the single entry point both for the strategy and for
proof validation: given a processor id, JSON-level parameters and a problem
it either returns the generated sub-problems together with the function that
computes its bound from the premises' bounds, or None when a side condition
fails.  Parameters reference rules by label so recorded proofs replay
bit-for-bit, and a parameter key a processor does not read is a rejection.

The default search is one ordered list of processor applications per
problem, _steps, that _prove tries in turn through _chain, as TcT (Avanzini,
Moser and Schaper, TACAS 2016) writes a strategy.  A problem stays open when
none is accepted, when the step cap stops the search ("step budget
exhausted") or once the deadline has passed ("timeout").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import reduce
from typing import Any, Callable, Iterator, Optional, Sequence

from .dependency_pairs import dt_problem, wdp_problem
from .depgraph import DepGraph, estimate_dg, sep
from .framework import (
    Bound,
    Judgement,
    Problem,
    StartKind,
    bound_add,
    bound_mul,
)
from .interpretations import (
    PolyInterp,
    SymbolPoly,
    check_orientation,
    induced_bound,
    mu_monotone,
    synthesize,
)
from .proofs import (
    Assumption,
    Axiom,
    Inference,
    ProofTree,
    is_closed,
    symbol_from_json,
    symbol_to_json,
)
from .rewriting import Rule


def _sum(bounds: Sequence[Bound]) -> Bound:
    """Also the bound of single-premise steps and of the empty axiom."""
    return reduce(bound_add, bounds, Bound.poly(0))


def _product(bounds: Sequence[Bound]) -> Bound:
    return reduce(bound_mul, bounds, Bound.poly(0))


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
        if len(e) != 4:  # symbol, lin, sq and const
            raise ValueError(f"interpretation entry with keys {sorted(e)}")
        sym = symbol_from_json(e["symbol"])
        lin = tuple(e["lin"])
        if len(lin) != sym.arity:  # SymbolPoly checks sq against lin
            raise ValueError(f"interpretation of {sym.display_name} has wrong arity")
        entries[sym] = SymbolPoly(lin, tuple(e["sq"]), e["const"])
    return PolyInterp(entries)


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


def _empty(params: dict, p: Problem):
    if p.strict:
        return None
    return [], _sum


def _complexity_pair(params: dict, p: Problem):
    interp = interp_from_json(params["interpretation"])
    degree, cap = params["degree"], params["coeff_max"]
    if type(degree) is not int or type(cap) is not int:  # rejects bools too
        return None
    if degree < interp.degree or cap < interp.largest_coefficient:
        return None
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
    if not p.is_dp_problem():
        return None
    s1 = _resolve(params["rules"], p.strict_dps)
    if not s1:
        return None
    g = estimate_dg(p)
    pre = g.predecessors(s1)
    chosen = set(s1)
    strict_set = set(p.strict_dps)
    weak_set = set(p.weak_dps)
    new_strict = tuple(
        d
        for d in p.dps
        if (d in strict_set and d not in chosen) or d in pre
    )
    kept = set(new_strict)
    new_weak = tuple(
        d for d in p.dps if (d in weak_set or d in chosen) and d not in kept
    )
    return [replace(p, strict_dps=new_strict, weak_dps=new_weak)], _sum


def _remove_weak_suffix(params: dict, p: Problem):
    if not p.is_dp_problem():
        return None
    if not p.strict_dps or p.strict_trs:
        return None
    w1 = _resolve(params["rules"], p.weak_dps)
    if not w1:
        return None
    g = estimate_dg(p)
    if not g.is_forward_closed(w1):
        return None
    gone = set(w1)
    sub = replace(p, weak_dps=tuple(d for d in p.weak_dps if d not in gone))
    return [sub], _sum


def _dg_decomposition(params: dict, p: Problem):
    if not p.is_dp_problem():
        return None
    s_down = _resolve(params["strict_down"], p.strict_dps)
    w_down = _resolve(params.get("weak_down", []), p.weak_dps)
    if not s_down or w_down is None:
        return None
    if len(s_down) == len(p.strict_dps):
        return None
    down = set(s_down) | set(w_down)
    g = estimate_dg(p)
    if not g.is_forward_closed(down):
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
    "empty": (_empty, set()),
    "complexity_pair": (_complexity_pair, {"interpretation", "degree", "coeff_max"}),
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

    Malformed parameters (unknown labels or keys, missing interpretation
    entries, values of the wrong type, rule sets that break problem
    invariants) count as rejection, since params may come from an untrusted
    serialized proof.
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


# --- default proof search ---------------------------------------------------

# DG decomposition tries at most this many down-sets per DP problem.
_DGD_CANDIDATES = 8
# A search applies at most this many processors before it gives up.
_STEP_CAP = 500


@dataclass
class StrategyConfig:
    degree_max: int = 2
    coeff_max: int = 3
    timeout: Optional[float] = None


class _SearchState:
    def __init__(self, cfg: StrategyConfig) -> None:
        self.remaining = _STEP_CAP
        self.deadline = (
            None if cfg.timeout is None else time.monotonic() + cfg.timeout
        )

    def timed_out(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def spend(self) -> Optional[str]:
        """Charge one processor application; a reason means stop searching."""
        if self.remaining <= 0:
            return "step budget exhausted"
        self.remaining -= 1
        if self.timed_out():
            return "timeout"
        return None


def default_strategy(p: Problem, config: Optional[StrategyConfig] = None) -> ProofTree:
    """Search for a closed proof; open branches become assumptions.

    Pipeline: the empty axiom; dependency tuples (innermost) or weak
    dependency pairs on plain runtime problems; on DP problems predecessor
    estimation and weak-suffix removal until stable, then complexity pairs,
    then dependency graph decomposition over forward-closed candidate
    splits; on derivational problems complexity pairs and greedy
    decomposition.
    """
    cfg = config or StrategyConfig()
    return _prove(p, cfg, _SearchState(cfg))


def _chain(
    proc: str,
    params: dict,
    p: Problem,
    cfg: StrategyConfig,
    st: _SearchState,
    closed: bool,
) -> Optional[Inference]:
    """Apply proc and prove its sub-problems in order; None when it rejects,
    or with closed, as soon as one sub-proof stays open."""
    res = apply_processor(proc, params, p)
    if res is None:
        return None
    subs, bound_of = res
    premises = []
    for sub in subs:
        premises.append(_prove(sub, cfg, st))
        if closed and not is_closed(premises[-1]):
            return None
    bound = bound_of([pr.judgement.bound for pr in premises])
    return Inference(proc, params, Judgement(p, bound), tuple(premises))


def _prove(p: Problem, cfg: StrategyConfig, st: _SearchState) -> ProofTree:
    """The first of _steps that _chain accepts; an open leaf when none does
    or when the step cap or the deadline stops the search."""
    note = st.spend()
    if note is None:
        if not p.strict:
            return Axiom(Judgement(p, Bound.poly(0)))
        for proc, params, closed in _steps(p, cfg, st):
            if st.timed_out():
                break
            node = _chain(proc, params, p, cfg, st, closed)
            if node is not None:
                return node
        note = "timeout" if st.timed_out() else None
    return Assumption(Judgement(p, Bound.unknown()), note)


def _steps(
    p: Problem, cfg: StrategyConfig, st: _SearchState
) -> Iterator[tuple[str, dict, bool]]:
    """The processor applications to try on p, in order, as (processor,
    params, closed); with closed, a node counts only once every sub-proof is
    closed."""
    if p.start_terms is StartKind.BASIC:
        # dependency tuples reject problems that are not innermost
        yield "dependency_tuples", {}, False
        yield "weak_dependency_pairs", {}, False
        return
    if p.is_dp_problem():
        g = estimate_dg(p)
        weak_set = set(p.weak_dps)
        # estimate strict DPs whose successors are all weak already; keeping
        # the predecessors strict guarantees the strict component shrinks
        targets = [d for d in p.strict_dps if g.successors((d,)) <= weak_set]
        if g.predecessors(targets) <= set(p.strict_dps):
            yield "predecessor_estimation", {"rules": [d.label for d in targets]}, False
        removable = [w.label for w in p.weak_dps if g.forward_closure((w,)) <= weak_set]
        yield "remove_weak_suffix", {"rules": removable}, False

    # one complete interpretation search per degree, lowest first; for all
    # ground start terms every symbol is strongly linear, so the box of
    # degree 2 is the box of degree 1
    top = 1 if p.start_terms is StartKind.ALL else min(cfg.degree_max, 2)
    for degree in range(1, top + 1):
        interp = synthesize(p, degree, cfg.coeff_max, deadline=st.deadline)
        if interp is not None:
            params = {
                "degree": degree,
                # the certificate records the largest coefficient it uses
                "coeff_max": max(interp.largest_coefficient, 1),
                "interpretation": interp_to_json(interp),
            }
            yield "complexity_pair", params, False
            break

    if p.is_dp_problem():
        for s_down, w_down in _dgd_candidates(p, g):
            params = {"strict_down": s_down, "weak_down": w_down}
            yield "dependency_graph_decomposition", params, True
    else:
        for r in p.strict:
            yield "decompose", {"strict_part": [r.label]}, True


def _dgd_candidates(p: Problem, g: DepGraph) -> list[tuple[list[str], list[str]]]:
    """Forward-closed down-sets seeded from single nodes, smallest first."""
    seen: set[frozenset[Rule]] = set()
    ranked = []
    for d in p.dps:
        down = g.forward_closure((d,))
        if down in seen:
            continue
        seen.add(down)
        s_down = [r.label for r in p.strict_dps if r in down]
        if not s_down or len(s_down) == len(p.strict_dps):
            continue
        w_down = [r.label for r in p.weak_dps if r in down]
        ranked.append(((len(down), sorted(r.label for r in down)), s_down, w_down))
    ranked.sort(key=lambda c: c[0])
    return [(s, w) for _, s, w in ranked[:_DGD_CANDIDATES]]
