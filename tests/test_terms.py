from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from polytrs.interpretations import needs_monotone
from polytrs.parsing import parse_problem
from polytrs.terms import (
    App,
    Rule,
    Symbol,
    SymbolKind,
    Var,
    com,
    compound,
    fresh_var,
    mark,
    marked,
    match_term,
    render,
    subterms,
    symbols_of,
    unify_terms,
    unmark,
    unmarked,
    variables,
)
from tests.conftest import (
    InvalidPositionError,
    apply_bindings,
    apply_subst,
    positions,
    replace_at,
    subterm_at,
)

ZERO = Symbol("0", 0, SymbolKind.CONSTRUCTOR)
S = Symbol("s", 1, SymbolKind.CONSTRUCTOR)
PLUS = Symbol("plus", 2, SymbolKind.DEFINED)
TIMES = Symbol("times", 2, SymbolKind.DEFINED)

X = Var("x")
Y = Var("y")


def num(n):
    t = App(ZERO)
    for _ in range(n):
        t = App(S, (t,))
    return t


# random ground/open terms over the mult signature
def term_strategy():
    leaves = st.sampled_from([App(ZERO), X, Y])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(lambda a: App(S, (a,)), sub),
            st.builds(lambda a, b: App(PLUS, (a, b)), sub, sub),
            st.builds(lambda a, b: App(TIMES, (a, b)), sub, sub),
        ),
        max_leaves=12,
    )


def subst_strategy():
    return st.fixed_dictionaries(
        {}, optional={"x": term_strategy(), "y": term_strategy()}
    )


# pairs of small terms over the variables x, y, z: both sides draw from the
# same names (shared, often repeated: nonlinear) unless the flag renames the
# right side's variables to u, v, w (disjoint)
def unify_pair_strategy():
    names = ["x", "y", "z"]
    leaves = st.one_of(st.just(App(ZERO)), st.sampled_from(names).map(Var))
    small = st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(lambda a: App(S, (a,)), sub),
            st.builds(lambda a, b: App(PLUS, (a, b)), sub, sub),
        ),
        max_leaves=6,
    )
    disjoint = {n: Var(m) for n, m in zip(names, ["u", "v", "w"])}
    return st.tuples(small, small, st.booleans()).map(
        lambda c: (c[0], apply_subst(c[1], disjoint) if c[2] else c[1])
    )


def _occurs(name, t):
    if isinstance(t, Var):
        return t.name == name
    return any(_occurs(name, a) for a in t.args)


def reference_unify(s, t):
    """The substitute-every-step unifier, kept as the tests' reference."""
    sigma = {}
    work = [(s, t)]
    while work:
        a, b = work.pop()
        a = apply_subst(a, sigma)
        b = apply_subst(b, sigma)
        if a == b:
            continue
        if isinstance(a, Var):
            if _occurs(a.name, b):
                return None
            bind = {a.name: b}
            sigma = {k: apply_subst(v, bind) for k, v in sigma.items()}
            sigma[a.name] = b
        elif isinstance(b, Var):
            work.append((b, a))
        elif a.sym == b.sym:
            work.extend(zip(a.args, b.args))
        else:
            return None
    return sigma


class TestStructure:
    def test_app_arity_checked(self):
        with pytest.raises(ValueError):
            App(S, (App(ZERO), App(ZERO)))

    def test_size_and_positions(self):
        t = App(PLUS, (App(S, (X,)), Y))
        assert positions(t) == [(), (1,), (1, 1), (2,)]
        assert subterm_at(t, (1, 1)) == X
        assert subterm_at(t, ()) == t

    def test_subterms_preorder(self):
        t = App(PLUS, (App(S, (X,)), Y))
        assert list(subterms(t)) == [t, App(S, (X,)), X, Y]

    def test_replace_at(self):
        t = App(PLUS, (X, Y))
        assert replace_at(t, (2,), num(1)) == App(PLUS, (X, num(1)))
        with pytest.raises(InvalidPositionError):
            subterm_at(t, (3,))

    @given(term_strategy())
    def test_positions_index_every_subterm(self, t):
        assert [subterm_at(t, p) for p in positions(t)] == list(subterms(t))


class TestRuleShape:
    """A compound symbol may stand only at the root of a right-hand side."""

    C2 = compound(2)

    def test_compound_root_of_right_side(self):
        lhs = App(marked(PLUS), (X, Y))
        assert Rule(lhs, App(self.C2, (X, App(S, (Y,)))), "r").rhs.sym is self.C2

    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            (App(PLUS, (App(C2, (X, Y)), Y)), X),
            (App(PLUS, (X, Y)), App(S, (App(C2, (X, Y)),))),
            (App(PLUS, (X, Y)), App(C2, (App(C2, (X, Y)), Y))),
        ],
        ids=["left_side", "below_root", "below_compound_root"],
    )
    def test_compound_elsewhere_is_rejected(self, lhs, rhs):
        with pytest.raises(ValueError, match="rule r: compound symbol c_2 off the root"):
            Rule(lhs, rhs, "r")

    def test_extra_variable_is_rejected(self):
        with pytest.raises(ValueError, match="right-hand side introduces y$"):
            Rule(App(S, (X,)), App(self.C2, (X, Y)), "r")


class TestEqualityAndHash:
    DEPTH = 100_000

    def test_deep_equal_terms(self):
        a, b = num(self.DEPTH), num(self.DEPTH)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert not a != b

    def test_deep_leaf_difference(self):
        deep_var = X
        for _ in range(self.DEPTH):
            deep_var = App(S, (deep_var,))
        assert num(self.DEPTH) != deep_var

    def test_equality_does_not_trust_the_hash(self):
        def colliding(a, b):
            object.__setattr__(b, "_hash", a._hash)
            return a, b

        a, b = colliding(App(PLUS, (X, Y)), App(TIMES, (X, Y)))
        assert a != b
        a, b = colliding(App(S, (X,)), App(S, (Y,)))
        assert a != b
        a, b = colliding(App(PLUS, (num(self.DEPTH), X)), App(PLUS, (num(self.DEPTH), Y)))
        assert a != b

    def test_app_never_equals_var(self):
        assert App(ZERO) != Var("0")
        assert Var("0") != App(ZERO)
        assert App(S, (X,)) != X

    @given(term_strategy(), term_strategy())
    def test_equality_is_structural(self, a, b):
        assert (a == b) == (repr(a) == repr(b))
        if a == b:
            assert hash(a) == hash(b)

    def test_unpickling_recomputes_the_hash(self):
        t = App(PLUS, (num(2), X))
        stale = App(PLUS, (num(2), X))
        object.__setattr__(stale, "_hash", t._hash + 1)
        u = pickle.loads(pickle.dumps(stale))
        assert u == t and hash(u) == hash(t)

    def test_repr_and_replace(self):
        t = App(S, (X,))
        assert repr(t) == (
            "App(sym=Symbol(name='s', arity=1, "
            "kind=<SymbolKind.CONSTRUCTOR: 'constructor'>), args=(Var(name='x'),))"
        )
        u = dataclasses.replace(t, args=(Y,))
        assert u == App(S, (Y,)) and hash(u) == hash(App(S, (Y,)))
        v = dataclasses.replace(t, sym=PLUS, args=(X, Y))
        assert v == App(PLUS, (X, Y))
        with pytest.raises(ValueError):
            dataclasses.replace(t, args=())


class TestInternedSymbols:
    def test_one_object_per_name_arity_and_kind(self):
        k = SymbolKind.DEFINED
        assert Symbol("f", 1, k) is Symbol("f", 1, k)
        assert Symbol(name="f", arity=1, kind=k) is Symbol("f", 1, k)
        assert Symbol("f", 2, k) is not Symbol("f", 1, k)
        assert Symbol("f", 1, SymbolKind.MARKED) is not Symbol("f", 1, k)
        assert marked(Symbol("f", 1, k)) is Symbol("f", 1, SymbolKind.MARKED)
        assert unmarked(marked(Symbol("f", 1, k))) is Symbol("f", 1, k)
        # a later call with equal values leaves the interned fields as they are
        assert Symbol("f", True, k) is Symbol("f", 1, k)
        assert Symbol("f", 1, k).arity.__class__ is int

    def test_copies_are_the_interned_object(self):
        f = Symbol("f", 1, SymbolKind.DEFINED)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f
        assert copy.deepcopy(f) is f and copy.copy(f) is f
        assert dataclasses.replace(f) is f
        assert dataclasses.replace(f, arity=2) is Symbol("f", 2, SymbolKind.DEFINED)
        t = pickle.loads(pickle.dumps(App(f, (X,))))
        assert t.sym is f and t == App(f, (X,))

    def test_equality_and_hash_are_identity(self):
        f = Symbol("f", 1, SymbolKind.DEFINED)
        assert f == Symbol("f", 1, SymbolKind.DEFINED) and hash(f) == object.__hash__(f)
        assert f != Symbol("g", 1, SymbolKind.DEFINED)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.name = "g"

    def test_two_parses_share_their_symbols(self):
        text = "(VAR x)(RULES f(s(x)) -> f(x) f(0) -> 0)"
        first, second = parse_problem(text), parse_problem(text)
        assert first.signature == second.signature
        lhs, other = first.strict[0].lhs, second.strict[0].lhs
        assert lhs.sym is other.sym and lhs.args[0].sym is other.args[0].sym
        # the rules stay distinct objects that compare equal
        assert first.strict[0] is not second.strict[0]
        assert first.strict == second.strict


class TestMarking:
    def test_mark_unmark_roundtrip_on_basic(self):
        t = App(PLUS, (num(1), num(0)))
        assert unmark(mark(t)) == t
        assert mark(t).sym == marked(PLUS)
        assert marked(PLUS).display_name == "plus#"

    def test_mark_identity_on_variables(self):
        assert mark(X) == X

    def test_marked_unmarked_inverse(self):
        assert unmarked(marked(PLUS)) == PLUS

    def test_com_singleton_is_element(self):
        assert com([X]) == X
        t = App(PLUS, (X, Y))
        assert com([t]) == t

    def test_com_wraps_other_lengths(self):
        assert com([]).sym == compound(0)
        c = com([X, Y])
        assert c.sym == compound(2)
        assert c.args == (X, Y)

    @given(term_strategy())
    def test_com_singleton_never_adds_compound(self, t):
        assert compound(1) not in symbols_of(com([t]))


class TestSubstitution:
    @given(term_strategy(), subst_strategy())
    def test_match_recovers_substitution(self, pattern, sigma):
        subject = apply_subst(pattern, sigma)
        found = match_term(pattern, subject)
        assert found is not None
        for v in variables(pattern):
            assert found[v] == sigma.get(v, Var(v))

    @given(term_strategy(), term_strategy())
    def test_unify_symmetric_and_unifying(self, s, t):
        left = unify_terms(s, t)
        right = unify_terms(t, s)
        assert (left is None) == (right is None)
        if left is not None:
            assert apply_bindings(s, left) == apply_bindings(t, left)

    def test_unify_occurs_check(self):
        assert unify_terms(X, App(S, (X,))) is None

    @settings(derandomize=True, max_examples=400)
    @given(unify_pair_strategy())
    # nonlinear, and the occurs check reached through a binding
    @example((App(PLUS, (X, X)), App(PLUS, (App(S, (Y,)), App(S, (num(0),))))))
    @example((App(PLUS, (X, Y)), App(PLUS, (App(S, (Y,)), X))))
    def test_unify_agrees_with_reference(self, pair):
        s, t = pair
        sigma = unify_terms(s, t)
        assert (sigma is None) == (reference_unify(s, t) is None)
        if sigma is not None:
            assert apply_bindings(s, sigma) == apply_bindings(t, sigma)

    def test_match_is_one_way(self):
        assert match_term(App(S, (X,)), App(S, (num(0),))) == {"x": num(0)}
        assert match_term(App(S, (num(0),)), App(S, (X,))) is None

    def test_fresh_variables_are_numbered(self):
        # input variables are named by a str, so none equals a fresh one
        v = fresh_var()
        assert not isinstance(v.name, str)
        assert v != Var(str(v.name)) and v != Var(f"%{v.name}")
        assert str(v) == render(App(S, (v,)))[2:-1] == f"%{v.name}"


class TestReplacementMap:
    @staticmethod
    def mu_positions(p, t):
        """Positions of t reached through arguments of symbols p needs monotone."""
        out = set()

        def walk(s, pos):
            out.add(pos)
            if isinstance(s, App) and needs_monotone(p, s.sym):
                for i, a in enumerate(s.args, 1):
                    walk(a, pos + (i,))

        walk(t, ())
        return frozenset(out)

    @given(term_strategy())
    def test_full_map_gives_all_positions(self, mult_problem, t):
        assert self.mu_positions(mult_problem, t) == frozenset(positions(t))

    def test_compound_only_map(self, mult_dt):
        c = App(compound(2), (App(PLUS, (X, Y)), X))
        assert self.mu_positions(mult_dt, c) == {(), (1,), (2,)}
        assert self.mu_positions(mult_dt, App(PLUS, (X, Y))) == {()}


class TestRender:
    def test_prefix_rendering(self):
        t = App(TIMES, (App(S, (X,)), Y))
        assert render(t) == "times(s(x), y)"

    def test_marked_rendering(self):
        t = App(marked(PLUS), (X, Y))
        assert render(t) == "plus#(x, y)"
