"""Polynomial interpretations over the naturals and the orders they induce.

Constructor and compound symbols are kept strongly linear (argument
coefficients exactly 1) so that the interpretation of a start term is linear
in its size; defined and marked symbols may be linear or simple-quadratic,
unless the start terms are all ground terms, where every symbol is strongly
linear.  Orientation is checked by absolute positiveness: every coefficient
of [lhs] - [rhs] (minus 1 for strict rules) must be nonnegative.  Synthesis
searches the box of one degree and coefficient cap completely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .framework import Bound, Problem, StartKind
from .rewriting import Rule
from .terms import Symbol, SymbolKind, Term, Var, symbols_of

# A monomial maps variable names to exponents; stored sorted for hashing.
Monomial = tuple[tuple[str, int], ...]

_ONE: Monomial = ()


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[Monomial, int]] = None) -> None:
        self.coeffs: dict[Monomial, int] = {
            m: c for m, c in (coeffs or {}).items() if c != 0
        }

    @classmethod
    def const(cls, c: int) -> "Polynomial":
        return cls({_ONE: c})

    @classmethod
    def var(cls, name: str) -> "Polynomial":
        return cls({((name, 1),): 1})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = _mul_monomials(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(out)

    def scale(self, k: int) -> "Polynomial":
        return Polynomial({m: k * c for m, c in self.coeffs.items()})

    def all_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def coefficient(self, m: Monomial) -> int:
        return self.coeffs.get(m, 0)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m, c in sorted(self.coeffs.items()):
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in m
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)


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

    def apply_polys(self, args: Sequence[Polynomial]) -> Polynomial:
        out = Polynomial.const(self.const)
        for a, l, s in zip(args, self.lin, self.sq):
            if l:
                out = out + a.scale(l)
            if s:
                out = out + (a * a).scale(s)
        return out

    def apply_values(self, args: Sequence[int]) -> int:
        return self.const + sum(
            l * v + s * v * v for v, l, s in zip(args, self.lin, self.sq)
        )

    def render(self, name: str) -> str:
        vars_ = [f"x{i}" for i in range(1, len(self.lin) + 1)]
        parts = []
        for v, l, s in zip(vars_, self.lin, self.sq):
            if s:
                parts.append(f"{s}*{v}^2" if s != 1 else f"{v}^2")
            if l:
                parts.append(f"{l}*{v}" if l != 1 else v)
        if self.const or not parts:
            parts.append(str(self.const))
        head = f"[{name}]({', '.join(vars_)})" if vars_ else f"[{name}]"
        return f"{head} = {' + '.join(parts)}"


@dataclass(frozen=True)
class PolyInterp:
    entries: Mapping[Symbol, SymbolPoly]

    def for_symbol(self, sym: Symbol) -> SymbolPoly:
        got = self.entries.get(sym)
        if got is None:
            raise KeyError(f"no interpretation for {sym.display_name}/{sym.arity}")
        return got

    @property
    def degree(self) -> int:
        return max((sp.degree for sp in self.entries.values()), default=0)

    @property
    def largest_coefficient(self) -> int:
        coeffs = (c for sp in self.entries.values() for c in (*sp.lin, *sp.sq, sp.const))
        return max(coeffs, default=0)


def term_polynomial(interp: PolyInterp, t: Term) -> Polynomial:
    """Symbolic interpretation of t as a polynomial in t's variables."""
    if isinstance(t, Var):
        return Polynomial.var(t.name)
    args = [term_polynomial(interp, a) for a in t.args]
    return interp.for_symbol(t.sym).apply_polys(args)


def eval_term(interp: PolyInterp, t: Term, env: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        return env[t.name]
    return interp.for_symbol(t.sym).apply_values(
        [eval_term(interp, a, env) for a in t.args]
    )


def needs_monotone(p: Problem, sym: Symbol) -> bool:
    """Whether sym's interpretation must be strictly monotone in every argument.

    For a DP problem whose strict part consists of dependency pairs only,
    rewriting happens below compound symbols exclusively; in any other
    problem every symbol needs it.  Weak rules need only weak monotonicity,
    which every interpretation over N has.
    """
    return sym.kind is SymbolKind.COMPOUND or not (p.is_dp_problem() and not p.strict_trs)


def orients_strictly(interp: PolyInterp, rule: Rule) -> bool:
    diff = term_polynomial(interp, rule.lhs) - term_polynomial(interp, rule.rhs)
    return (diff - Polynomial.const(1)).all_nonnegative()


def orients_weakly(interp: PolyInterp, rule: Rule) -> bool:
    diff = term_polynomial(interp, rule.lhs) - term_polynomial(interp, rule.rhs)
    return diff.all_nonnegative()


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


# A flat parametric polynomial: {(term monomial, unknown monomial): coefficient}.
# An unknown monomial is a sorted tuple of unknown indices, one per factor.
_Parametric = dict[tuple[Monomial, tuple[int, ...]], int]


@dataclass(frozen=True)
class Synthesis:
    """Result of one interpretation search.

    outcome is "found", "refuted" (the whole box was searched and holds no
    compatible interpretation), "budget" or "deadline" (the search stopped
    early, so interp is None without proving anything).  nodes counts the
    propagations after a branching decision or a candidate trial.
    """

    interp: Optional[PolyInterp]
    outcome: str
    nodes: int


class _Stop(Exception):
    """The node budget or the deadline ran out; args are (outcome, nodes)."""


# A search stops after this many nodes.
_NODE_LIMIT = 60_000


def synthesize(
    p: Problem, degree: int, coeff_max: int, deadline: Optional[float] = None
) -> Optional[PolyInterp]:
    """search_interpretation's interpretation: None unless the outcome is found."""
    return search_interpretation(p, degree, coeff_max, deadline).interp


def search_interpretation(
    p: Problem, degree: int, coeff_max: int, deadline: Optional[float] = None
) -> Synthesis:
    """Complete search over one box of interpretations, with statistics.

    Symbols of strongly_linear_shape get [f](x1..xn) = x1 + ... + xn + c; the
    others sq_i*x_i^2 (degree 2 only) + lin_i*x_i + c, with lin_i >= 1 where
    needs_monotone.  Every coefficient lies in 0..coeff_max.  Symbols are
    ordered by (kind, arity, name), the candidates of one symbol by
    coefficient sum, then (sq, lin, const); the answer is the first
    assignment in this lexicographic order that orients every rule, which is
    what a backtracking enumeration of the candidates would return first.
    The search stops early after _NODE_LIMIT nodes or at deadline, a
    time.monotonic() value.
    """
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    try:
        solver = _Solver(p, degree, coeff_max, deadline)
        interp = solver.first_solution()
    except _Stop as stop:
        return Synthesis(None, *stop.args)
    return Synthesis(interp, "refuted" if interp is None else "found", solver.nodes)


class _Solver:
    """Orientation constraints over unknown coefficients, solved over a box.

    Each rule's [l] - [r] (- 1 when strict) is expanded once over the
    unknowns; absolute positiveness makes every coefficient of a term
    monomial one constraint "sum of c * product of unknowns >= 0".  The
    solver narrows the bounds lo..hi of the unknowns by propagation and
    branches on the smallest open domain (Contejean, Marche, Tomas, Urbain,
    JAR 2005; Fuhs et al., SAT 2007).
    """

    def __init__(
        self,
        p: Problem,
        degree: int,
        coeff_max: int,
        deadline: Optional[float],
    ) -> None:
        self.deadline = deadline
        self.nodes = 0
        syms: set[Symbol] = set()
        for r in p.all_rules:
            syms |= symbols_of(r.lhs) | symbols_of(r.rhs)
        kind_rank = {
            SymbolKind.CONSTRUCTOR: 0,
            SymbolKind.COMPOUND: 0,
            SymbolKind.DEFINED: 1,
            SymbolKind.MARKED: 2,
        }
        self.order = sorted(syms, key=lambda s: (kind_rank[s.kind], s.arity, s.name))

        # the unknowns of a symbol of arity n: sq_1..sq_n, lin_1..lin_n, const
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.slots: dict[Symbol, slice] = {}
        for sym in self.order:
            n = sym.arity
            if strongly_linear_shape(p, sym):
                box = [(0, 0)] * n + [(1, 1)] * n
            else:
                lin_lo = 1 if needs_monotone(p, sym) else 0
                box = [(0, coeff_max if degree == 2 else 0)] * n
                box += [(lin_lo, coeff_max)] * n
            box.append((0, coeff_max))
            self.slots[sym] = slice(len(self.lo), len(self.lo) + len(box))
            self.lo += [l for l, _ in box]
            self.hi += [h for _, h in box]

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
        diff = self._expand(rule.lhs)
        for key, c in self._expand(rule.rhs).items():
            diff[key] = diff.get(key, 0) - c
        if strict:
            diff[(_ONE, ())] = diff.get((_ONE, ()), 0) - 1
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

    def _coefficient(self, poly: _Parametric, u: int, out: _Parametric) -> None:
        """out += unknown u * poly, with u substituted when its value is fixed."""
        if self.lo[u] == self.hi[u]:
            k = self.lo[u]
            if k:
                for key, c in poly.items():
                    out[key] = out.get(key, 0) + k * c
            return
        for (mono, unknowns), c in poly.items():
            key = (mono, tuple(sorted(unknowns + (u,))))
            out[key] = out.get(key, 0) + c

    def _expand(self, t: Term) -> _Parametric:
        """[t] over the unknowns."""
        if isinstance(t, Var):
            return {(((t.name, 1),), ()): 1}
        base = self.slots[t.sym].start
        n = t.sym.arity
        out: _Parametric = {}
        self._coefficient({(_ONE, ()): 1}, base + 2 * n, out)
        for i, a in enumerate(t.args):
            arg = self._expand(a)
            self._coefficient(arg, base + n + i, out)
            if self.hi[base + i]:
                self._coefficient(self._square(arg), base + i, out)
        return out

    def _square(self, poly: _Parametric) -> _Parametric:
        out: _Parametric = {}
        items = list(poly.items())
        for (m1, u1), c1 in items:
            # nested squares grow fast: keep the deadline while expanding
            self._check_deadline()
            for (m2, u2), c2 in items:
                key = (_mul_monomials(m1, m2), tuple(sorted(u1 + u2)))
                out[key] = out.get(key, 0) + c1 * c2
        return out

    # --- search --------------------------------------------------------------

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Stop("deadline", self.nodes)

    def _node(self) -> None:
        self.nodes += 1
        if self.nodes > _NODE_LIMIT:
            raise _Stop("budget", self.nodes)
        self._check_deadline()

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
        None when propagation empties it."""
        self._node()
        lo, hi = lo[:], hi[:]
        lo[s], hi[s] = low, high
        queue = {ci for w in self.watch[s] for ci in w}
        return (lo, hi) if self._propagate(lo, hi, queue) else None

    def _witness(self, lo: list[int], hi: list[int]) -> Optional[list[int]]:
        """Some solution in a propagated box, or None if it has none.

        Depth first, with the branch u = lo[u] before u in lo[u]+1..hi[u];
        each branch is narrowed only when it is taken.
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
            u = min(open_, key=lambda x: hi[x] - lo[x])
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
    for total in range(sum(lo), sum(hi) + 1):
        yield from _with_sum(lo, hi, total)


def _with_sum(lo: list[int], hi: list[int], total: int) -> Iterator[tuple[int, ...]]:
    """The vectors of the box lo..hi whose entries sum to total, in
    lexicographic order."""
    if not lo:
        yield ()
        return
    rest_lo, rest_hi = sum(lo[1:]), sum(hi[1:])
    for x in range(max(lo[0], total - rest_hi), min(hi[0], total - rest_lo) + 1):
        for rest in _with_sum(lo[1:], hi[1:], total - x):
            yield (x, *rest)
