"""Polynomial interpretations over the naturals and the orders they induce.

Constructor and compound symbols are kept strongly linear (argument
coefficients exactly 1) so that the interpretation of a start term is linear
in its size; defined and marked symbols may be linear or simple-quadratic,
unless the start terms are all ground terms, where every symbol is strongly
linear.  Orientation is checked by absolute positiveness: every coefficient
of [lhs] - [rhs] (minus 1 for strict rules) must be nonnegative.  One
expansion, expand_rule, builds that difference over a box of unknown
coefficients: the checker fixes every coefficient to the interpretation's,
the synthesis searches the box of one degree and coefficient cap completely.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .framework import Bound, Problem, StartKind
from .terms import Rule, Symbol, SymbolKind, Term, Var, symbols_of

# A monomial maps variable names to exponents; stored sorted for hashing.
Monomial = tuple[tuple[str, int], ...]

_ONE: Monomial = ()


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[str, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


@dataclass(frozen=True)
class SymbolPoly:
    """Interpretation of one symbol: sum of lin[i]*x_i + sq[i]*x_i^2 + const."""

    lin: tuple[int, ...]
    sq: tuple[int, ...]
    const: int

    def __post_init__(self) -> None:
        if len(self.lin) != len(self.sq):
            raise ValueError("coefficient vectors disagree on arity")
        # type(c) is int rejects bools and floats, which certificates may hold
        if any(type(c) is not int or c < 0 for c in self.lin + self.sq + (self.const,)):
            raise ValueError("coefficients must be natural numbers")

    @property
    def degree(self) -> int:
        if any(self.sq):
            return 2
        if any(self.lin):
            return 1
        return 0

    @property
    def strongly_linear(self) -> bool:
        return all(c == 1 for c in self.lin) and not any(self.sq)


@dataclass(frozen=True)
class PolyInterp:
    entries: Mapping[Symbol, SymbolPoly]

    def __post_init__(self) -> None:
        for sym, sp in self.entries.items():
            if len(sp.lin) != sym.arity:
                raise ValueError(f"interpretation of {sym.display_name} has wrong arity")


def needs_monotone(p: Problem, sym: Symbol) -> bool:
    """Whether sym's interpretation must be strictly monotone in every argument.

    For a DP problem whose strict part consists of dependency pairs only,
    rewriting happens below compound symbols exclusively; in any other
    problem every symbol needs it.  Weak rules need only weak monotonicity,
    which every interpretation over N has.
    """
    return sym.kind is SymbolKind.COMPOUND or not (p.is_dp_problem() and not p.strict_trs)


# A flat parametric polynomial: {(term monomial, unknown monomial): coefficient}.
# An unknown monomial is a sorted tuple of unknown indices, one per factor.
_Parametric = dict[tuple[Monomial, tuple[int, ...]], int]


def _layout(unknowns: Mapping[Symbol, Sequence]) -> tuple[dict[Symbol, slice], list]:
    """Each symbol's unknowns sq_1..sq_n, lin_1..lin_n, const laid end to end:
    the slice of every symbol and the flat list."""
    slots, flat = {}, []
    for sym, mine in unknowns.items():
        slots[sym] = slice(len(flat), len(flat) + len(mine))
        flat += mine
    return slots, flat


def expand_rule(
    rule: Rule, strict: bool, slots: Mapping[Symbol, slice], lo: Sequence[int],
    hi: Sequence[int], tick: Callable[[int], None] = lambda units: None,
) -> _Parametric:
    """[lhs] - [rhs], minus 1 when strict, over the unknowns of the box lo..hi.

    slots maps each symbol to its unknowns sq_1..sq_n, lin_1..lin_n, const,
    as _layout places them.  An unknown whose domain is one value is
    substituted by it, so over a box that fixes every unknown the result is
    a polynomial in the rule's variables alone.  Nested squares grow fast:
    tick runs once per row of each square, with the row's length, so that a
    caller can charge the work and stop the expansion by raising.
    """

    def times_unknown(poly: _Parametric, u: int, out: _Parametric) -> None:
        """out += unknown u * poly."""
        if lo[u] == hi[u]:
            k = lo[u]
            if k:
                for key, c in poly.items():
                    out[key] = out.get(key, 0) + k * c
            return
        for (mono, unknowns), c in poly.items():
            key = (mono, tuple(sorted(unknowns + (u,))))
            out[key] = out.get(key, 0) + c

    def square(poly: _Parametric) -> _Parametric:
        out: _Parametric = {}
        items = list(poly.items())
        for (m1, u1), c1 in items:
            tick(len(items))
            for (m2, u2), c2 in items:
                key = (_mul_monomials(m1, m2), tuple(sorted(u1 + u2)))
                out[key] = out.get(key, 0) + c1 * c2
        return out

    def expand(t: Term) -> _Parametric:
        if isinstance(t, Var):
            return {(((t.name, 1),), ()): 1}
        base = slots[t.sym].start
        n = t.sym.arity
        out: _Parametric = {}
        times_unknown({(_ONE, ()): 1}, base + 2 * n, out)
        for i, a in enumerate(t.args):
            arg = expand(a)
            times_unknown(arg, base + n + i, out)
            if hi[base + i]:
                times_unknown(square(arg), base + i, out)
        return out

    diff = expand(rule.lhs)
    for key, c in expand(rule.rhs).items():
        diff[key] = diff.get(key, 0) - c
    if strict:
        diff[(_ONE, ())] = diff.get((_ONE, ()), 0) - 1
    return diff


def _orients(interp: PolyInterp, rule: Rule, strict: bool) -> bool:
    """Absolute positiveness of expand_rule over the box that fixes every
    unknown to interp's coefficient."""
    slots, values = _layout({s: (*sp.sq, *sp.lin, sp.const) for s, sp in interp.entries.items()})
    return all(c >= 0 for c in expand_rule(rule, strict, slots, values, values).values())


def orients_strictly(interp: PolyInterp, rule: Rule) -> bool:
    return _orients(interp, rule, True)


def orients_weakly(interp: PolyInterp, rule: Rule) -> bool:
    return _orients(interp, rule, False)


def check_orientation(interp: PolyInterp, p: Problem) -> bool:
    """All strict rules strictly decreasing, all weak rules weakly."""
    return all(orients_strictly(interp, r) for r in p.strict) and all(
        orients_weakly(interp, r) for r in p.weak
    )


def mu_monotone(interp: PolyInterp, p: Problem) -> bool:
    """Syntactic sufficient check: linear coefficients >= 1 where p needs it."""
    return all(
        min(sp.lin, default=1) >= 1
        for sym, sp in interp.entries.items()
        if needs_monotone(p, sym)
    )


def strongly_linear_shape(p: Problem, sym: Symbol) -> bool:
    """Whether sym is interpreted as x1 + ... + xn + c for p's start terms."""
    return p.start_terms is StartKind.ALL or sym.kind in (
        SymbolKind.CONSTRUCTOR,
        SymbolKind.COMPOUND,
    )


def induced_bound(interp: PolyInterp, p: Problem) -> Bound:
    """Degree of the certificate the interpretation yields for p's start terms."""
    ents = interp.entries.items()
    if not all(sp.strongly_linear for sym, sp in ents if strongly_linear_shape(p, sym)):
        return Bound.unknown()
    if p.start_terms is StartKind.ALL:
        return Bound.poly(1)
    return Bound.poly(
        max((sp.degree for sym, sp in ents if not strongly_linear_shape(p, sym)), default=0)
    )


# The work units one proof search may spend: a processor application and a
# solver node cost one each, a row of an expanded square one per term.
_FUEL = 120_000


class OutOfFuel(Exception):
    """Fuel.burn refused; the reason is the last of Fuel.cuts."""


class Fuel:
    """The one budget that stops a proof search: work units, with an optional
    deadline beside them.  burn raises OutOfFuel instead of spending below
    the reserve ("out of fuel") or after the deadline ("timeout"); cuts lists
    the reasons of those refusals."""

    def __init__(self, timeout: Optional[float] = None) -> None:
        self.left = _FUEL
        self.reserve = 0
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.cuts: list[str] = []

    def burn(self, units: int = 1) -> None:
        if self.left - units < self.reserve:
            self.cuts.append("out of fuel")
        else:
            self.left -= units
            if self.deadline is None or time.monotonic() <= self.deadline:
                return
            self.cuts.append("timeout")
        raise OutOfFuel


@dataclass(frozen=True)
class Synthesis:
    """Result of one interpretation search.

    outcome is "found", "refuted" (the whole box was searched and holds no
    compatible interpretation) or the reason the fuel cut the search, "out
    of fuel" or "timeout", when interp is None without proving anything.
    nodes counts the propagations after a branching decision or a candidate
    trial.
    """

    interp: Optional[PolyInterp]
    outcome: str
    nodes: int


def synthesize(
    p: Problem, degree: int, coeff_max: int, fuel: Optional[Fuel] = None
) -> Optional[PolyInterp]:
    """search_interpretation's interpretation: None unless the outcome is found."""
    return search_interpretation(p, degree, coeff_max, fuel).interp


def search_interpretation(
    p: Problem, degree: int, coeff_max: int, fuel: Optional[Fuel] = None
) -> Synthesis:
    """Complete search over one box of interpretations, with statistics.

    Symbols of strongly_linear_shape get [f](x1..xn) = x1 + ... + xn + c; the
    others sq_i*x_i^2 (degree 2 only) + lin_i*x_i + c, with lin_i >= 1 where
    needs_monotone.  Every coefficient lies in 0..coeff_max.  Symbols are
    ordered by (kind, arity, name), the candidates of one symbol by
    coefficient sum, then (sq, lin, const); the answer is the first
    assignment in this lexicographic order that orients every rule, which is
    what a backtracking enumeration of the candidates would return first.
    The search spends at most half of fuel's units left (a fresh Fuel by
    default), so that the proof steps after it keep the rest.
    """
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    fuel = fuel or Fuel()
    fuel.reserve = fuel.left - fuel.left // 2
    solver = None
    try:
        solver = _Solver(p, degree, coeff_max, fuel)
        interp = solver.first_solution()
    except OutOfFuel:
        return Synthesis(None, fuel.cuts[-1], solver.nodes if solver else 0)
    finally:
        fuel.reserve = 0
    return Synthesis(interp, "refuted" if interp is None else "found", solver.nodes)


class _Solver:
    """Orientation constraints over unknown coefficients, solved over a box.

    Each rule's [l] - [r] (- 1 when strict) is expanded once by expand_rule
    over the unknowns; absolute positiveness makes every coefficient of a term
    monomial one constraint "sum of c * product of unknowns >= 0".  The
    solver narrows the bounds lo..hi of the unknowns by propagation and
    branches fail-first (Contejean, Marche, Tomas, Urbain, JAR 2005; Fuhs et
    al., SAT 2007): on the smallest open domain, ties to the unknown in the
    most constraints (Haralick and Elliott, AI 1980; dom/deg, Bessiere and
    Regin, CP 1996).  The order moves node counts, never answers.
    """

    def __init__(self, p: Problem, degree: int, coeff_max: int, fuel: Fuel) -> None:
        self.fuel = fuel
        self.nodes = 0
        syms = {s for r in p.all_rules for s in symbols_of(r.lhs) | symbols_of(r.rhs)}
        rank = {SymbolKind.DEFINED: 1, SymbolKind.MARKED: 2}  # constructors and compounds 0
        self.order = sorted(syms, key=lambda s: (rank.get(s.kind, 0), s.arity, s.name))

        # each symbol's domains, laid out as expand_rule reads its unknowns
        boxes = {}
        for sym in self.order:
            n = sym.arity
            if strongly_linear_shape(p, sym):
                box = [(0, 0)] * n + [(1, 1)] * n
            else:
                lin_lo = 1 if needs_monotone(p, sym) else 0
                box = [(0, coeff_max if degree == 2 else 0)] * n
                box += [(lin_lo, coeff_max)] * n
            boxes[sym] = box + [(0, coeff_max)]
        self.slots, box = _layout(boxes)
        self.lo = [l for l, _ in box]
        self.hi = [h for _, h in box]

        # constraint i is a tuple of (c, unknown monomial) terms
        self.cons: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
        # per constraint: (unknown, indices of the terms it occurs in)
        self.occurs: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
        self.watch: list[list[int]] = [[] for _ in self.lo]
        for rule in p.strict:
            self._add_rule(rule, True)
        for rule in p.weak:
            self._add_rule(rule, False)
        self.constrained = [u for u, w in enumerate(self.watch) if w]

    # --- constraints ---------------------------------------------------------

    def _add_rule(self, rule: Rule, strict: bool) -> None:
        diff = expand_rule(rule, strict, self.slots, self.lo, self.hi, self.fuel.burn)
        groups: dict[Monomial, list[tuple[int, tuple[int, ...]]]] = {}
        for (mono, unknowns), c in diff.items():
            if c:
                groups.setdefault(mono, []).append((c, unknowns))
        del diff
        lo, hi = self.lo, self.hi
        for terms in groups.values():
            if _value(terms, lo, hi) >= 0:
                continue  # holds everywhere in the box
            where: dict[int, list[int]] = {}
            for k, (_, unknowns) in enumerate(terms):
                for u in set(unknowns):
                    where.setdefault(u, []).append(k)
            for u in where:
                self.watch[u].append(len(self.cons))
            self.cons.append(tuple(terms))
            self.occurs.append(tuple((u, tuple(ks)) for u, ks in where.items()))

    # --- search --------------------------------------------------------------

    def _propagate(self, lo: list[int], hi: list[int], queue: Iterable[int]) -> bool:
        """Narrow lo..hi until no constraint can shave an end of a domain.

        A constraint's largest value in the box takes positive terms at hi and
        negative ones at lo.  When it stays negative with one unknown at an
        end of its domain, that end is removed.  False when a constraint
        cannot hold in the box.
        """
        cons, occurs, watch = self.cons, self.occurs, self.watch
        pending = set(queue)
        while pending:
            ci = pending.pop()
            terms = cons[ci]
            vals = []
            top = 0
            for c, unknowns in terms:
                bound = hi if c > 0 else lo
                for u in unknowns:
                    c *= bound[u]
                vals.append(c)
                top += c
            if top < 0:
                return False
            for u, ks in occurs[ci]:
                l, h = lo[u], hi[u]
                if l == h:
                    continue
                at_l = at_h = top
                for k in ks:
                    c, unknowns = terms[k]
                    if c > 0:
                        for x in unknowns:
                            c *= l if x == u else hi[x]
                        at_l -= vals[k] - c
                    else:
                        for x in unknowns:
                            c *= h if x == u else lo[x]
                        at_h -= vals[k] - c
                if at_l >= 0 and at_h >= 0:
                    continue
                if at_l < 0:
                    lo[u] = l = l + 1
                if at_h < 0:
                    hi[u] = h = h - 1
                if l > h:
                    return False
                pending.update(watch[u])
        return True

    def _narrow(
        self, lo: list[int], hi: list[int], s: slice, low: Sequence[int], high: Sequence[int]
    ) -> Optional[tuple[list[int], list[int]]]:
        """A propagated copy of the box with the unknowns s in low..high, or
        None when propagation empties it.  This is one node of the search."""
        self.nodes += 1
        self.fuel.burn()
        lo, hi = lo[:], hi[:]
        lo[s], hi[s] = low, high
        queue = {ci for w in self.watch[s] for ci in w}
        return (lo, hi) if self._propagate(lo, hi, queue) else None

    def _witness(self, lo: list[int], hi: list[int]) -> Optional[list[int]]:
        """Some solution in a propagated box, or None if it has none.

        Depth first on the open unknown u of the smallest domain, then the
        most watching constraints, then the lowest index, with the branch
        u = lo[u] before u in lo[u]+1..hi[u]; each branch is narrowed only
        when it is taken.  The order moves node counts, never answers.
        """
        todo: list[tuple[list[int], list[int], Optional[tuple]]] = [(lo, hi, None)]
        while todo:
            lo, hi, branch = todo.pop()
            if branch is not None:
                box = self._narrow(lo, hi, *branch)
                if box is None:
                    continue
                lo, hi = box
            open_ = [u for u in self.constrained if lo[u] < hi[u]]
            if not open_:
                return lo
            u = min(open_, key=lambda x: (hi[x] - lo[x], -len(self.watch[x])))
            s = slice(u, u + 1)
            todo.append((lo, hi, (s, (lo[u] + 1,), (hi[u],))))
            todo.append((lo, hi, (s, (lo[u],), (lo[u],))))
        return None

    def first_solution(self) -> Optional[PolyInterp]:
        lo, hi = self.lo[:], self.hi[:]
        if not (
            all(l <= h for l, h in zip(lo, hi))
            and self._propagate(lo, hi, range(len(self.cons)))
        ):
            return None
        witness = self._witness(lo, hi)
        if witness is None:
            return None
        # fix the symbols in order, each to its first candidate that leaves
        # the rest satisfiable; the witness's own values always do
        for sym in self.order:
            s = self.slots[sym]
            target = tuple(witness[s])
            for cand in _candidates(lo[s], hi[s]):
                box = self._narrow(lo, hi, s, cand, cand)
                if box is None:
                    continue
                if cand != target:
                    found = self._witness(*box)
                    if found is None:
                        continue
                    witness = found
                lo, hi = box
                break
        entries = {}
        for sym in self.order:
            vals = lo[self.slots[sym]]
            n = sym.arity
            entries[sym] = SymbolPoly(tuple(vals[n : 2 * n]), tuple(vals[:n]), vals[2 * n])
        return PolyInterp(entries)


def _value(terms: Sequence[tuple[int, tuple[int, ...]]], pos: list[int], neg: list[int]) -> int:
    """Sum of the terms, positive ones at the bounds pos, negative at neg."""
    total = 0
    for c, unknowns in terms:
        bound = pos if c > 0 else neg
        for u in unknowns:
            c *= bound[u]
        total += c
    return total


def _candidates(lo: list[int], hi: list[int]) -> Iterator[tuple[int, ...]]:
    """The vectors of the box lo..hi by sum, then lexicographically, one at a
    time: the box can be far larger than the part extraction tries."""
    # the sums of lo[i:] and of hi[i:], for i = 0..len(lo)
    lo_from = [*itertools.accumulate(lo[::-1], initial=0)][::-1]
    hi_from = [*itertools.accumulate(hi[::-1], initial=0)][::-1]
    n = len(lo)
    # (i, x, left): entry i is x and the entries after it sum to left; each
    # sum starts from (-1, 0, total), which sets the spare entry vec[n]
    vec = [0] * (n + 1)
    stack = [(-1, 0, total) for total in range(hi_from[0], lo_from[0] - 1, -1)]
    while stack:
        i, x, left = stack.pop()
        vec[i] = x
        if i + 1 == n:
            yield tuple(vec[:n])
        else:
            i += 1
            first = max(lo[i], left - hi_from[i + 1])
            last = min(hi[i], left - lo_from[i + 1])
            stack.extend((i, x, left - x) for x in range(last, first - 1, -1))
