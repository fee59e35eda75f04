"""The default proof search: which processor to apply where, in what order.

The search proposes processor applications and keeps the ones that
proofs.apply_processor accepts, so every step it records is one the
checker replays.  It is one ordered list of processor applications per
problem, _steps, that _prove tries in turn through _chain, as TcT (Avanzini,
Moser and Schaper, TACAS 2016) writes a strategy.  One Fuel, a count of
work units with the optional deadline beside it, stops the whole search:
each application costs a unit, and each interpretation search may spend at
most half of the units left, so the steps after it keep the rest.  A problem
stays open when none is accepted; its note says "out of fuel" or "timeout"
when the fuel or the deadline cut the search below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .depgraph import DepGraph, estimate_dg
from .framework import Bound, Judgement, Problem, StartKind
from .interpretations import Fuel, OutOfFuel, synthesize
from .proofs import (
    Assumption,
    Axiom,
    Inference,
    ProofTree,
    apply_processor,
    interp_to_json,
    is_closed,
)
from .terms import Rule


@dataclass
class StrategyConfig:
    degree_max: int = 2
    coeff_max: int = 3
    timeout: Optional[float] = None


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
    return _prove(p, cfg, Fuel(cfg.timeout))


def _chain(
    proc: str, params: dict, p: Problem, cfg: StrategyConfig, fuel: Fuel, closed: bool
) -> Optional[Inference]:
    """Apply proc and prove its sub-problems in order; None when it rejects,
    or with closed, as soon as one sub-proof stays open."""
    fuel.burn()
    res = apply_processor(proc, params, p)
    if res is None:
        return None
    subs, bound_of = res
    premises = []
    for sub in subs:
        premises.append(_prove(sub, cfg, fuel))
        if closed and not is_closed(premises[-1]):
            return None
    bound = bound_of([pr.judgement.bound for pr in premises])
    return Inference(proc, params, Judgement(p, bound), tuple(premises))


def _prove(p: Problem, cfg: StrategyConfig, fuel: Fuel) -> ProofTree:
    """The first of _steps that _chain accepts; an open leaf when none does,
    noted with the last reason the fuel refused while searching below it."""
    if not p.strict:
        return Axiom(Judgement(p, Bound.poly(0)))
    cuts = len(fuel.cuts)
    try:
        for proc, params, closed in _steps(p, cfg, fuel):
            node = _chain(proc, params, p, cfg, fuel, closed)
            if node is not None:
                return node
    except OutOfFuel:
        pass
    note = fuel.cuts[-1] if len(fuel.cuts) > cuts else None
    return Assumption(Judgement(p, Bound.unknown()), note)


def _steps(p: Problem, cfg: StrategyConfig, fuel: Fuel) -> Iterator[tuple[str, dict, bool]]:
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
        # estimate strict DPs with no strict successor; keeping the
        # predecessors strict guarantees the strict component shrinks
        to_strict = g.predecessors(p.strict_dps)
        targets = [d for d in p.strict_dps if d not in to_strict]
        if g.predecessors(targets) <= set(p.strict_dps):
            yield "predecessor_estimation", {"rules": [d.label for d in targets]}, False
        # a weak pair that reaches no strict pair is in the weak suffix
        reaches_strict = g.closure(p.strict_dps, g.predecessors)
        removable = [w.label for w in p.weak_dps if w not in reaches_strict]
        yield "remove_weak_suffix", {"rules": removable}, False

    # one complete interpretation search per degree, lowest first; for all
    # ground start terms every symbol is strongly linear, so the box of
    # degree 2 is the box of degree 1
    top = 1 if p.start_terms is StartKind.ALL else min(cfg.degree_max, 2)
    for degree in range(1, top + 1):
        interp = synthesize(p, degree, cfg.coeff_max, fuel)
        if interp is not None:
            yield "complexity_pair", {"interpretation": interp_to_json(interp)}, False
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
        down = g.closure((d,), g.successors)
        if down in seen:
            continue
        seen.add(down)
        s_down = [r.label for r in p.strict_dps if r in down]
        if not s_down or len(s_down) == len(p.strict_dps):
            continue
        w_down = [r.label for r in p.weak_dps if r in down]
        ranked.append(((len(down), sorted(r.label for r in down)), s_down, w_down))
    ranked.sort(key=lambda c: c[0])
    return [(s, w) for _, s, w in ranked]
