"""Polynomial interpretations over the naturals and the orders they induce.

Constructor and compound symbols are kept strongly linear (argument
coefficients exactly 1) so that the interpretation of a start term is linear
in its size; defined and marked symbols may be linear or simple-quadratic.
Orientation is checked by absolute positiveness: every coefficient of
[lhs] - [rhs] (minus 1 for strict rules) must be nonnegative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

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
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return Polynomial(out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = _mul_monomials(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(out)

    def scale(self, k: int) -> "Polynomial":
        if k == 0:
            return Polynomial()
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
        if any(c < 0 for c in self.lin + self.sq) or self.const < 0:
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


def strongly_linear_poly(arity: int, const: int) -> SymbolPoly:
    return SymbolPoly((1,) * arity, (0,) * arity, const)


@dataclass(frozen=True)
class PolyInterp:
    entries: Mapping[Symbol, SymbolPoly]

    def for_symbol(self, sym: Symbol) -> SymbolPoly:
        got = self.entries.get(sym)
        if got is None:
            raise KeyError(f"no interpretation for {sym.display_name}/{sym.arity}")
        return got


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
    return sym.kind is SymbolKind.COMPOUND or not (
        p.is_dp_problem() and all(r.is_dp for r in p.strict)
    )


def orients_strictly(interp: PolyInterp, rule: Rule) -> bool:
    diff = (
        term_polynomial(interp, rule.lhs)
        - term_polynomial(interp, rule.rhs)
        - Polynomial.const(1)
    )
    return diff.all_nonnegative()


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


def induced_bound(interp: PolyInterp, p: Problem) -> Bound:
    """Degree of the certificate the interpretation yields for p's start terms."""
    ents = interp.entries
    if p.start_terms is StartKind.ALL:
        if all(sp.strongly_linear for sp in ents.values()):
            return Bound.poly(1)
        return Bound.unknown()
    for sym, sp in ents.items():
        if sym.kind in (SymbolKind.CONSTRUCTOR, SymbolKind.COMPOUND):
            if not sp.strongly_linear:
                return Bound.unknown()
    deg = max(
        (
            sp.degree
            for sym, sp in ents.items()
            if sym.kind in (SymbolKind.DEFINED, SymbolKind.MARKED)
        ),
        default=0,
    )
    return Bound.poly(deg)


def _candidate_polys(
    sym: Symbol, degree: int, coeff_max: int, p: Problem
) -> list[SymbolPoly]:
    """Candidate interpretations for one symbol, small coefficients first."""
    n = sym.arity
    if sym.kind in (SymbolKind.CONSTRUCTOR, SymbolKind.COMPOUND):
        return [strongly_linear_poly(n, c) for c in range(coeff_max + 1)]
    monotone = needs_monotone(p, sym)
    out: list[SymbolPoly] = []
    sq_choices: Iterator[tuple[int, ...]]
    if degree >= 2:
        sq_choices = itertools.product(range(coeff_max + 1), repeat=n)
    else:
        sq_choices = iter([(0,) * n])
    for sq in sq_choices:
        for lin in itertools.product(range(coeff_max + 1), repeat=n):
            if monotone and 0 in lin:
                continue
            for const in range(coeff_max + 1):
                out.append(SymbolPoly(lin, sq, const))
    out.sort(key=lambda sp: (sum(sp.lin) + sum(sp.sq) + sp.const, sp.sq, sp.lin, sp.const))
    return out


def synthesize(
    p: Problem,
    degree: int,
    coeff_max: int,
    search_limit: int = 60_000,
) -> Optional[PolyInterp]:
    """Backtracking search for an interpretation compatible with p.

    Symbols are assigned one at a time; every rule is checked as soon as all
    of its symbols have interpretations, which prunes most of the space.  The
    search gives up (returns None) after search_limit assignments, so absence
    of a result means "not found", not a proof of impossibility.
    """
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    syms = set()
    for r in p.all_rules:
        syms |= symbols_of(r.lhs) | symbols_of(r.rhs)
    kind_rank = {
        SymbolKind.CONSTRUCTOR: 0,
        SymbolKind.COMPOUND: 0,
        SymbolKind.DEFINED: 1,
        SymbolKind.MARKED: 2,
    }
    order = sorted(syms, key=lambda s: (kind_rank[s.kind], s.arity, s.name))
    pos_of = {s: i for i, s in enumerate(order)}

    # rules become checkable once their last symbol (in assignment order) is set
    checkable: list[list[tuple[Rule, bool]]] = [[] for _ in order]
    for rule, is_strict in [(r, True) for r in p.strict] + [
        (r, False) for r in p.weak
    ]:
        used = symbols_of(rule.lhs) | symbols_of(rule.rhs)
        last = max(pos_of[s] for s in used)
        checkable[last].append((rule, is_strict))

    candidates = [_candidate_polys(s, degree, coeff_max, p) for s in order]
    assignment: dict[Symbol, SymbolPoly] = {}
    visited = 0

    def search(k: int) -> Optional[PolyInterp]:
        nonlocal visited
        if k == len(order):
            return PolyInterp(dict(assignment))
        for cand in candidates[k]:
            visited += 1
            if visited > search_limit:
                return None
            assignment[order[k]] = cand
            interp = PolyInterp(assignment)
            ok = True
            for rule, is_strict in checkable[k]:
                if is_strict:
                    ok = orients_strictly(interp, rule)
                else:
                    ok = orients_weakly(interp, rule)
                if not ok:
                    break
            if ok:
                found = search(k + 1)
                if found is not None:
                    return found
            if visited > search_limit:
                break
        assignment.pop(order[k], None)
        return None

    return search(0)
