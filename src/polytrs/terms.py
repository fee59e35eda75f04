"""First-order terms and rules over a sorted signature.

Symbols carry a kind (constructor, defined, marked, compound) because almost
every analysis downstream branches on it: marked symbols are the roots of
dependency pairs, compound symbols group the right-hand sides of dependency
pairs, and basic terms are defined roots over constructor arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, Union


class SymbolKind(Enum):
    CONSTRUCTOR = "constructor"
    DEFINED = "defined"
    MARKED = "marked"
    COMPOUND = "compound"


_SYMBOLS: dict[tuple[str, int, SymbolKind], "Symbol"] = {}


@dataclass(frozen=True, eq=False, init=False)
class Symbol:
    """Interned: one object per (name, arity, kind), kept for the life of the
    process, so equality and hashing are by identity; only __new__ sets fields."""

    name: str
    arity: int
    kind: SymbolKind

    def __new__(cls, name: str, arity: int, kind: SymbolKind) -> "Symbol":
        new = object.__new__(cls)
        new.__dict__.update(name=name, arity=arity, kind=kind)
        return _SYMBOLS.setdefault((name, arity, kind), new)

    def __reduce__(self) -> tuple:  # pickle and copy give the interned object
        return Symbol, (self.name, self.arity, self.kind)

    @property
    def display_name(self) -> str:
        return self.name + "#" if self.kind is SymbolKind.MARKED else self.name

    def __str__(self) -> str:
        return self.display_name


@dataclass(frozen=True)
class Var:
    """Named by a str in input, by an int when fresh: the two never meet."""

    name: str | int

    def __str__(self) -> str:
        return self.name if self.name.__class__ is str else f"%{self.name}"


@dataclass(frozen=True, eq=False, slots=True)
class App:
    """A symbol applied to arguments.

    The hash is computed once, from the children's cached ones, and
    equality walks with an explicit stack, so neither is bounded by the
    recursion limit (after Filliatre and Conchon, "Type-safe modular
    hash-consing", 2006).
    """

    sym: Symbol
    args: tuple["Term", ...] = ()
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.args) != self.sym.arity:
            raise ValueError(
                f"{self.sym.display_name} expects {self.sym.arity} arguments, "
                f"got {len(self.args)}"
            )
        object.__setattr__(self, "_hash", hash((self.sym, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # rebuild on unpickling: string hashes, and so the cached one, are
        # salted per process
        return App, (self.sym, self.args)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not App:
            return NotImplemented
        stack: list[tuple[Term, Term]] = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if a.__class__ is Var:
                if a.name != b.name:
                    return False
            elif a._hash != b._hash or a.sym is not b.sym:
                return False
            else:
                stack.extend(zip(a.args, b.args))
        return True

    def __str__(self) -> str:
        return render(self)


Term = Union[Var, App]


def compound(n: int) -> Symbol:
    return Symbol(f"c_{n}", n, SymbolKind.COMPOUND)


def marked(sym: Symbol) -> Symbol:
    if sym.kind is not SymbolKind.DEFINED:
        raise ValueError(f"cannot mark {sym.kind.value} symbol {sym.name}")
    return Symbol(sym.name, sym.arity, SymbolKind.MARKED)


def unmarked(sym: Symbol) -> Symbol:
    if sym.kind is not SymbolKind.MARKED:
        raise ValueError(f"cannot unmark {sym.kind.value} symbol {sym.name}")
    return Symbol(sym.name, sym.arity, SymbolKind.DEFINED)


def mark(t: Term) -> Term:
    """Mark the root if it is a defined symbol, otherwise return t unchanged."""
    if isinstance(t, App) and t.sym.kind is SymbolKind.DEFINED:
        return App(marked(t.sym), t.args)
    return t


def unmark(t: Term) -> Term:
    if isinstance(t, App) and t.sym.kind is SymbolKind.MARKED:
        return App(unmarked(t.sym), t.args)
    return t


def com(ts: tuple[Term, ...] | list[Term]) -> Term:
    """Group a sequence of terms: singletons stay bare, otherwise wrap in c_n."""
    ts = tuple(ts)
    if len(ts) == 1:
        return ts[0]
    return App(compound(len(ts)), ts)


def components(t: Term) -> tuple[Term, ...]:
    """Inverse of com: the arguments of a compound root, else t itself."""
    if isinstance(t, App) and t.sym.kind is SymbolKind.COMPOUND:
        return t.args
    return (t,)


def subterms(t: Term) -> Iterator[Term]:
    """All subterms in leftmost-outermost (preorder) order, t itself first."""
    todo = [t]
    while todo:
        s = todo.pop()
        yield s
        if s.__class__ is App and s.args:
            todo += reversed(s.args)


def variables(t: Term) -> tuple[str, ...]:
    """Variable names in order of first occurrence."""
    return tuple(dict.fromkeys(s.name for s in subterms(t) if s.__class__ is Var))


def symbols_of(t: Term) -> frozenset[Symbol]:
    return frozenset(s.sym for s in subterms(t) if isinstance(s, App))


def match_term(pattern: Term, subject: Term) -> Optional[dict[str, Term]]:
    """The match sigma with pattern*sigma == subject, or None."""
    sigma: dict[str, Term] = {}
    todo = [(pattern, subject)]
    while todo:
        p, s = todo.pop()
        if p.__class__ is Var:
            if sigma.setdefault(p.name, s) != s:
                return None
        elif s.__class__ is Var or p.sym is not s.sym:
            return None
        else:
            todo += zip(p.args, s.args)
    return sigma


def unify_terms(s: Term, t: Term) -> Optional[dict[str | int, Term]]:
    """Most general unifier of s and t (with occurs check), or None.

    s and t may share variables (estimate_dg's never do: one side is all
    fresh).  The bindings are triangular: a bound term may name variables
    bound in turn, and applying them until nothing changes gives the
    idempotent unifier (Baader and Snyder, "Unification Theory", 2001).
    """
    sigma: dict[str | int, Term] = {}

    def deref(u: Term) -> Term:
        while u.__class__ is Var and u.name in sigma:
            u = sigma[u.name]
        return u

    def occurs(name: str | int, u: Term) -> bool:
        stack, seen = [u], set()
        while stack:
            u = stack.pop()
            if u.__class__ is App:
                stack.extend(u.args)
            elif u.name == name:
                return True
            elif u.name in sigma and u.name not in seen:
                seen.add(u.name)
                stack.append(sigma[u.name])
        return False

    work = [(s, t)]
    while work:
        a, b = map(deref, work.pop())
        if a.__class__ is Var:
            if b.__class__ is Var and a.name == b.name:
                continue
            if occurs(a.name, b):
                return None
            sigma[a.name] = b
        elif b.__class__ is Var:
            work.append((b, a))
        elif a.sym is b.sym:
            work.extend(zip(a.args, b.args))
        else:
            return None
    return sigma


_fresh_counter = itertools.count(1)


def fresh_var() -> Var:
    """A variable no other call returns, and no input names: it is numbered
    by an int, where input variables are named by a str."""
    return Var(next(_fresh_counter))


def render(t: Term) -> str:
    if isinstance(t, Var):
        return str(t)
    if not t.args:
        return t.sym.display_name
    return f"{t.sym.display_name}({', '.join(render(a) for a in t.args)})"


@dataclass(frozen=True)
class Rule:
    """A compound symbol may stand only at the root of the right-hand side."""

    lhs: App
    rhs: Term
    label: str

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise ValueError("left-hand side must not be a variable")
        extra = self._walk(components(self.rhs)) - self._walk((self.lhs,))
        if extra:
            raise ValueError(
                f"rule {self.label}: right-hand side introduces {', '.join(sorted(extra))}"
            )

    def _walk(self, todo: tuple[Term, ...]) -> set:
        """The variable names of todo, which must be free of compound symbols."""
        names, todo = set(), list(todo)
        while todo:
            s = todo.pop()
            if s.__class__ is Var:
                names.add(s.name)
            elif s.sym.kind is SymbolKind.COMPOUND:
                raise ValueError(f"rule {self.label}: compound symbol {s.sym.name} off "
                                 "the root of the right-hand side")
            else:
                todo += s.args
        return names

    def __str__(self) -> str:
        return f"{render(self.lhs)} -> {render(self.rhs)}"


def check_labels(rules: Iterable[Rule]) -> None:
    seen: set[str] = set()
    for r in rules:
        if r.label in seen:
            raise ValueError(f"duplicate rule label {r.label!r}")
        seen.add(r.label)
