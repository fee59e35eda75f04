from __future__ import annotations

import json
import sys

import pytest

from polytrs.dependency_pairs import dt_problem
from polytrs.framework import Bound, Judgement, Problem, StartKind, problems_equal
from polytrs.parsing import parse_file, parse_problem
from polytrs.processors import default_strategy
from polytrs.proofs import (
    SCHEMA_VERSION,
    Assumption,
    Axiom,
    Inference,
    is_closed,
    iter_nodes,
    proof_from_json,
    proof_to_json,
    render_proof,
    symbol_to_json,
    validate_proof,
)
from polytrs.terms import App, Rule, Symbol, SymbolKind, Var, compound, variables
from tests.conftest import ROOT, constructor
from tests.test_depgraph import CORPUS


def empty_problem(template: Problem) -> Problem:
    return Problem(
        strict_dps=(),
        strict_trs=(),
        weak_dps=(),
        weak_trs=template.strict_trs,
        q=template.q,
        start_terms=template.start_terms,
    )


# The codec's parts, each reached through a whole certificate: an open leaf
# concluding a problem with the part in it.
def problem_of(*weak_trs: Rule) -> Problem:
    return Problem((), (), (), weak_trs, (), StartKind.BASIC)


def conclusion_to_json(p: Problem, b: Bound = Bound.unknown()):
    return proof_to_json(Assumption(Judgement(p, b)))["proof"]["conclusion"]


def conclusion_from_json(problem, bound) -> Judgement:
    leaf = {"node": "assumption", "conclusion": {"problem": problem, "bound": bound}}
    return proof_from_json({"schema": SCHEMA_VERSION, "proof": leaf}).judgement


def bound_to_json(b):
    return conclusion_to_json(problem_of(), b)["bound"]


def bound_from_json(obj):
    return conclusion_from_json(problem_to_json(problem_of()), obj).bound


def problem_to_json(p):
    return conclusion_to_json(p)["problem"]


def problem_from_json(obj):
    return conclusion_from_json(obj, {"degree": None}).problem


def rule_to_json(r):
    (obj,) = problem_to_json(problem_of(r))["weak_trs"]
    return obj


def rule_from_json(obj):
    (rule,) = problem_from_json(dict(problem_to_json(problem_of()), weak_trs=[obj])).weak_trs
    return rule


# A term travels as the right-hand side of a rule, the one place where a
# compound symbol may stand, under a left-hand side over its variables.
def carrier(names) -> App:
    return App(Symbol("carry", len(names), SymbolKind.DEFINED), tuple(map(Var, names)))


def term_to_json(t):
    return rule_to_json(Rule(carrier(variables(t)), t, "t"))["rhs"]


def json_variables(obj) -> list[str]:
    """The variable names in obj, read as a term in schema 4."""
    if obj.__class__ is str:
        return [obj]
    args = obj.get("args") if obj.__class__ is dict else None
    return sorted({v for a in args for v in json_variables(a)}) if type(args) is list else []


def term_from_json(obj):
    lhs = term_to_json(carrier(json_variables(obj)))
    return rule_from_json({"label": "t", "lhs": lhs, "rhs": obj}).rhs


class TestValidation:
    def test_strategy_proof_replays(self, mult_proof):
        assert is_closed(mult_proof)
        result = validate_proof(mult_proof)
        assert result.ok and result.errors == []
        assert mult_proof.judgement.bound == Bound.poly(2)

    def test_open_proof_is_reported(self, exp_proof):
        assert not is_closed(exp_proof)
        result = validate_proof(exp_proof)
        assert not result.ok
        assert any("open assumption" in e for e in result.errors)

    def test_axiom_needs_empty_strict(self, mult_problem):
        bad = Axiom(Judgement(mult_problem, Bound.poly(0)))
        result = validate_proof(bad)
        assert not result.ok
        assert "nonempty strict" in result.errors[0]

    def test_axiom_needs_constant_bound(self, mult_problem):
        bad = Axiom(Judgement(empty_problem(mult_problem), Bound.poly(1)))
        result = validate_proof(bad)
        assert not result.ok
        assert "O(1)" in result.errors[0]

    def test_wrong_conclusion_names_the_inference(self, mult_proof):
        assert isinstance(mult_proof, Inference)
        lowered = Inference(
            mult_proof.processor,
            mult_proof.params,
            Judgement(mult_proof.judgement.problem, Bound.poly(1)),
            mult_proof.premises,
        )
        result = validate_proof(lowered)
        assert not result.ok
        assert len(result.errors) == 1
        assert mult_proof.processor in result.errors[0]
        assert "concluded O(n^1)" in result.errors[0]

    def test_foreign_premise_names_the_inference(self, mult_problem):
        stray = Axiom(Judgement(empty_problem(mult_problem), Bound.poly(0)))
        node = Inference(
            "dependency_tuples",
            {},
            Judgement(mult_problem, Bound.poly(0)),
            (stray,),
        )
        result = validate_proof(node)
        assert not result.ok
        assert "premise problem mismatch under dependency_tuples" in result.errors[0]

    def test_inapplicable_processor_is_an_error(self, mult_problem):
        # predecessor estimation needs a DP problem and at least one rule
        node = Inference(
            "predecessor_estimation",
            {"rules": []},
            Judgement(mult_problem, Bound.poly(0)),
            (),
        )
        result = validate_proof(node)
        assert not result.ok
        assert "not applicable" in result.errors[0]

    def test_premise_count_must_match(self, mult_problem):
        node = Inference(
            "dependency_tuples", {}, Judgement(mult_problem, Bound.poly(0)), ()
        )
        result = validate_proof(node)
        assert not result.ok
        assert "premises" in result.errors[0]


class TestRendering:
    def test_mentions_processors_and_judgements(self, mult_proof):
        text = render_proof(mult_proof)
        assert "dependency_tuples" in text
        assert "complexity_pair" in text
        assert "O(n^2)" in text
        assert text.count("|-") == sum(1 for _ in iter_nodes(mult_proof))

    def test_interpretation_params_are_elided(self, mult_proof):
        text = render_proof(mult_proof)
        assert '"interpretation": "..."' in text
        assert '"lin"' not in text

    def test_open_leaf_is_visible(self, exp_proof):
        assert "[open" in render_proof(exp_proof)


class TestDeepProofs:
    """The walks over a proof keep their own stack: no recursion limit.  What
    they print grows linearly in the depth: errors name a node by its
    preorder index, and indentation stops at 32 levels."""

    @staticmethod
    def chain(steps: int):
        p = dt_problem(parse_problem(
            "(VAR x)\n(RULES\n  f(s(x)) -> f(x)\n  f(0) -> 0\n)\n"
            "(STRATEGY INNERMOST)\n(STARTTERM CONSTRUCTOR-BASED)\n"
        ))
        # the DP f#(s(x)) -> f#(x) calls itself, so estimating it maps the
        # problem to itself and every step of the chain applies
        dp = p.strict_dps[0]
        assert dp.rhs.sym is dp.lhs.sym
        unknown = Judgement(p, Bound.unknown())
        tree = Assumption(unknown)
        for _ in range(steps):
            tree = Inference("predecessor_estimation", {"rules": [dp.label]}, unknown, (tree,))
        return tree

    def test_chain_of_3000_steps(self):
        tree = self.chain(3000)
        assert sum(1 for _ in iter_nodes(tree)) == 3001
        assert not is_closed(tree)
        assert validate_proof(tree).errors == ["node 3000: open assumption"]
        lines = render_proof(tree).splitlines()
        assert len(lines) == 3001
        assert lines[32].startswith(" " * 64 + "|- ")
        assert lines[33].startswith(" " * 64 + "(33) |- ")
        assert lines[-1].startswith(" " * 64 + "(3000) |- ")
        node = proof_to_json(tree)["proof"]
        for _ in range(3000):
            (node,) = node["premises"]
        assert node["node"] == "assumption"

    def test_chain_of_10000_nodes(self):
        tree = self.chain(9999)
        assert not is_closed(tree)
        (error,) = validate_proof(tree).errors
        assert error == "node 9999: open assumption" and len(error) < 40
        text = render_proof(tree)
        lines = text.splitlines()
        assert len(lines) == 10000 and len(text) < 2_000_000
        assert max(map(len, lines)) < 200
        assert proof_to_json(tree)["proof"]["node"] == "inference"

    def test_nodes_below_a_rejected_one_are_checked(self, mult_problem):
        # the inference is rejected, and so is each of its leaves
        leaves = (
            Assumption(Judgement(mult_problem, Bound.unknown())),
            Axiom(Judgement(mult_problem, Bound.poly(0))),
        )
        tree = Inference("decompose", {"strict_part": []}, leaves[0].judgement, leaves)
        assert validate_proof(tree).errors == [
            "node 0: processor decompose not applicable",
            "node 1: open assumption",
            "node 2: axiom applied to nonempty strict part",
        ]


class TestJsonRoundtrip:
    def test_proof_roundtrip(self, mult_proof):
        blob = json.dumps(proof_to_json(mult_proof))
        back = proof_from_json(json.loads(blob))
        assert validate_proof(back).ok
        assert back.judgement.bound == mult_proof.judgement.bound
        assert problems_equal(back.judgement.problem, mult_proof.judgement.problem)
        assert render_proof(back) == render_proof(mult_proof)

    @staticmethod
    def edit_params(obj):
        # a list inside the params and the params themselves
        params = obj["proof"]["premises"][0]["params"]
        params["rules"].append("9")
        params[f"key{len(params)}"] = ["9"]

    def test_editing_the_json_leaves_the_tree(self, mult_proof):
        want = json.dumps(mult_proof.premises[0].params)
        self.edit_params(proof_to_json(mult_proof))
        assert json.dumps(mult_proof.premises[0].params) == want

    def test_editing_the_json_leaves_the_decoded_tree(self, mult_proof):
        obj = json.loads(json.dumps(proof_to_json(mult_proof)))
        back = proof_from_json(obj)
        want = json.dumps(back.premises[0].params)
        self.edit_params(obj)
        assert json.dumps(back.premises[0].params) == want

    def test_open_proof_roundtrip_keeps_note(self, mult_problem):
        tree = Assumption(Judgement(mult_problem, Bound.unknown()), "why not")
        back = proof_from_json(proof_to_json(tree))
        assert isinstance(back, Assumption)
        assert back.note == "why not"
        assert back.judgement.bound.is_unknown

    def test_schema_is_checked(self, mult_proof):
        obj = proof_to_json(mult_proof)
        obj["schema"] = 99
        with pytest.raises(ValueError):
            proof_from_json(obj)

    def test_unknown_node_kind(self, mult_problem):
        obj = proof_to_json(Axiom(Judgement(empty_problem(mult_problem), Bound.poly(0))))
        obj["proof"]["node"] = "lemma"
        with pytest.raises(ValueError):
            proof_from_json(obj)

    def test_explicit_start_kind_is_rejected(self, mult_proof):
        obj = proof_to_json(mult_proof)
        obj["proof"]["conclusion"]["problem"]["start_terms"] = {
            "kind": "explicit",
            "terms": [],
        }
        with pytest.raises(ValueError):
            proof_from_json(obj)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda node: node["conclusion"]["problem"].update(start_terms="basic"),
            lambda node: node["conclusion"]["problem"].update(start_terms=None),
            lambda node: node["conclusion"]["problem"].update(start_terms={}),
            lambda node: node.pop("premises"),
            # a degree of 2.0 used to validate and render as O(n^2.0)
            lambda node: node["conclusion"]["bound"].update(degree=2.0),
        ],
        ids=[
            "start_terms_string",
            "start_terms_null",
            "start_terms_empty",
            "no_premises",
            "float_bound",
        ],
    )
    def test_wrong_shape_is_a_value_error(self, mult_proof, tamper):
        obj = proof_to_json(mult_proof)
        tamper(obj["proof"])
        with pytest.raises(ValueError):
            proof_from_json(obj)

    def test_variable_lhs_is_rejected(self, mult_problem):
        obj = proof_to_json(Axiom(Judgement(empty_problem(mult_problem), Bound.poly(0))))
        obj["proof"]["conclusion"]["problem"]["weak_trs"][0]["lhs"] = "y"
        with pytest.raises(ValueError, match="left-hand side must not be a variable"):
            proof_from_json(obj)

    def test_compound_below_a_root_is_rejected(self, mult_proof):
        obj = proof_to_json(mult_proof)
        rule = obj["proof"]["conclusion"]["problem"]["strict_trs"][0]
        hidden = {"sym": "c_2/2/compound", "args": [rule["rhs"], rule["rhs"]]}
        rule["rhs"] = {"sym": "s/1/constructor", "args": [hidden]}
        with pytest.raises(ValueError, match="compound symbol c_2 off the root"):
            proof_from_json(obj)

    def test_schemas_1_to_3_are_rejected_by_name(self, mult_proof):
        for schema in (1, 2, 3):
            obj = proof_to_json(mult_proof)
            obj["schema"] = schema
            with pytest.raises(ValueError, match=rf"schema {schema}\b"):
                proof_from_json(obj)

    # mult's certificate: the root applies dependency tuples, its premise is
    # the predecessor-estimation node, and the leaves are complexity pairs
    UNREAD_KEYS = {
        "root": lambda obj: obj.update(junk=1),
        "inference": lambda obj: obj["proof"].update(junk=1),
        "conclusion": lambda obj: obj["proof"]["conclusion"].update(junk=1),
        "problem_signature": lambda obj: obj["proof"]["conclusion"]["problem"].update(
            signature=["bogus/0/constructor"]
        ),
        "start_terms": lambda obj: obj["proof"]["conclusion"]["problem"]["start_terms"].update(
            junk=1
        ),
        "rule_dp_flag": lambda obj: obj["proof"]["premises"][0]["conclusion"]["problem"][
            "strict_dps"
        ][0].update(dp=False),
        "term": lambda obj: obj["proof"]["conclusion"]["problem"]["strict_trs"][0][
            "lhs"
        ].update(junk=1),
        "bound": lambda obj: obj["proof"]["conclusion"]["bound"].update(junk=1),
    }

    @pytest.mark.parametrize("edit", UNREAD_KEYS.values(), ids=UNREAD_KEYS.keys())
    def test_unread_key_is_rejected(self, mult_proof, edit):
        obj = proof_to_json(mult_proof)
        edit(obj)
        with pytest.raises(ValueError, match="unexpected or missing keys"):
            proof_from_json(obj)

    @pytest.mark.parametrize("note", [None, "why not"])
    def test_unread_key_in_a_leaf_is_rejected(self, mult_problem, note):
        leaves = [
            Axiom(Judgement(empty_problem(mult_problem), Bound.poly(0))),
            Assumption(Judgement(mult_problem, Bound.unknown()), note),
        ]
        for leaf in leaves:
            obj = proof_to_json(leaf)
            assert isinstance(proof_from_json(obj), type(leaf))
            obj["proof"]["junk"] = 1
            with pytest.raises(ValueError, match="unexpected or missing keys"):
                proof_from_json(obj)

    def test_unread_key_in_params_fails_validation(self, mult_proof):
        def estimation(obj):
            return obj["proof"]["premises"][0]

        def pair(obj):
            return estimation(obj)["premises"][0]["premises"][0]["premises"][0]

        edits = [
            lambda obj: estimation(obj)["params"].update(junk=1),
            lambda obj: pair(obj)["params"]["interpretation"][0].update(junk=1),
            lambda obj: pair(obj)["params"].update(junk=1),
        ]
        assert validate_proof(proof_from_json(proof_to_json(mult_proof))).ok
        for edit in edits:
            obj = proof_to_json(mult_proof)
            edit(obj)
            result = validate_proof(proof_from_json(obj))
            assert not result.ok and "not applicable" in result.errors[0]

    def test_second_interpretation_entry_fails_validation(self, mult_proof):
        # a first entry the decoder overwrote used to go unread, and validate
        obj = proof_to_json(mult_proof)
        pair = obj["proof"]["premises"][0]["premises"][0]["premises"][0]["premises"][0]
        entries = pair["params"]["interpretation"]
        entries.insert(0, dict(entries[0], lin=[999] * len(entries[0]["lin"]), const=12345))
        result = validate_proof(proof_from_json(obj))
        assert not result.ok and "not applicable" in result.errors[0]

    @pytest.mark.parametrize("name", [["x"], {"a": 1}, 7, None, "empty"])
    def test_unknown_processor_is_reported(self, mult_proof, name):
        obj = proof_to_json(mult_proof)
        obj["proof"]["premises"][0]["processor"] = name
        if type(name) is not str:
            with pytest.raises(ValueError, match="is not a string"):
                proof_from_json(obj)
        # built without the decoder, the checker reports it all the same
        root = proof_from_json(proof_to_json(mult_proof))
        (premise,) = root.premises
        bad = Inference(name, premise.params, premise.judgement, premise.premises)
        tree = Inference(root.processor, root.params, root.judgement, (bad,))
        assert validate_proof(tree).errors == [f"node 1: unknown processor {name!r}"]

    @pytest.mark.parametrize("path", CORPUS, ids=lambda path: str(path.relative_to(ROOT)))
    def test_corpus_problems_hold_rule_lists_and_start_terms_only(self, path):
        # a field the checker would ignore, such as a signature, fails this
        fields = {"strict_dps", "strict_trs", "weak_dps", "weak_trs", "q", "start_terms"}
        todo = [proof_to_json(default_strategy(parse_file(str(path))))["proof"]]
        while todo:
            node = todo.pop()
            assert set(node["conclusion"]["problem"]) == fields
            todo.extend(node.get("premises", ()))


# JSON values of each type; the totality test puts each in place of a field
WRONG_VALUES = [None, 0, 1.5, True, "", [], {}, [1], {"a": 1}]


def field_paths(obj, path=()):
    """The path of every value below obj, through object keys and list indices."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, path + (key,))


class TestTotality:
    """Decoding is total: JSON of the wrong shape is a ValueError, and what
    decodes can be validated, rendered and encoded again."""

    # mult's certificate; its root conclusion's first q rule and strict rule
    MISTYPED = {
        "q_label_object": lambda p: p["conclusion"]["problem"]["q"][0].update(label={}),
        "label_int": lambda p: p["conclusion"]["problem"]["strict_trs"][0].update(label=7),
        "label_null": lambda p: p["conclusion"]["problem"]["strict_trs"][0].update(label=None),
        "params_list": lambda p: p.update(params=[1]),
        "params_float": lambda p: p.update(params=1.5),
    }

    @pytest.mark.parametrize("edit", MISTYPED.values(), ids=MISTYPED.keys())
    def test_mistyped_label_or_params_is_a_value_error(self, mult_proof, edit):
        obj = proof_to_json(mult_proof)
        edit(obj["proof"])
        with pytest.raises(ValueError, match=r"^(label|params) .* is not (a string|an object)$"):
            proof_from_json(obj)

    def test_mistyped_note_is_a_value_error(self, mult_problem):
        obj = proof_to_json(Assumption(Judgement(mult_problem, Bound.unknown()), "why not"))
        obj["proof"]["note"] = 5
        with pytest.raises(ValueError, match="note 5 is not a string"):
            proof_from_json(obj)

    @pytest.mark.parametrize("where", ["term", "params", "premises"])
    def test_deep_certificate_is_a_value_error(self, mult_problem, where):
        depth = sys.getrecursionlimit() + 100
        leaf = proof_to_json(Axiom(Judgement(empty_problem(mult_problem), Bound.poly(0))))
        node = leaf["proof"]
        if where == "term":
            deep = {"sym": "0/0/constructor", "args": []}
            for _ in range(depth):
                deep = {"sym": "s/1/constructor", "args": [deep]}
            node["conclusion"]["problem"]["weak_trs"][0]["rhs"] = deep
        for _ in range(depth if where == "premises" else 1):
            node = {
                "node": "inference",
                "processor": "x",
                "params": {},
                "conclusion": node["conclusion"],
                "premises": [node],
            }
        if where == "params":
            deep = []
            for _ in range(depth):
                deep = [deep]
            node["params"]["deep"] = deep
        with pytest.raises(ValueError, match="nested too deeply"):
            proof_from_json({"schema": SCHEMA_VERSION, "proof": node})

    def test_every_field_of_any_type_is_decoded_or_rejected(self, mult_proof):
        cert = proof_to_json(mult_proof)
        text = json.dumps(cert)
        # one path per field shape, named by the last three object keys on it
        shapes = {}
        for path in field_paths(cert):
            shapes.setdefault(tuple(k for k in path if type(k) is str)[-3:], path)
        assert len(shapes) == 78
        failures = []
        for shape, (*head, last) in shapes.items():
            for value in WRONG_VALUES:
                obj = json.loads(text)
                parent = obj
                for key in head:
                    parent = parent[key]
                parent[last] = value
                try:
                    tree = proof_from_json(obj)
                except ValueError:
                    continue
                try:
                    validate_proof(tree)
                    render_proof(tree)
                    proof_to_json(tree)
                except Exception as err:  # noqa: BLE001  (every case is reported)
                    failures.append((shape, value, repr(err)))
        assert failures == []


class TestComponentSerializers:

    def test_bound(self):
        for b in (Bound.poly(0), Bound.poly(3), Bound.unknown()):
            assert bound_from_json(bound_to_json(b)) == b

    def test_term(self, mult_problem):
        t = App(
            constructor(mult_problem, "s"),
            (Var("x"),),
        )
        assert term_from_json(term_to_json(t)) == t
        assert term_from_json(term_to_json(Var("y"))) == Var("y")

    def test_rule(self, mult_dt):
        for rule in mult_dt.dps + mult_dt.weak_trs:
            assert "dp" not in rule_to_json(rule)
            assert rule_from_json(rule_to_json(rule)) == rule

    def test_problem(self, mult_dt, exp_problem):
        for p in (mult_dt, exp_problem):
            assert problems_equal(problem_from_json(problem_to_json(p)), p)

    @pytest.mark.parametrize(
        "decode, obj",
        [
            (bound_from_json, []),
            (term_from_json, None),
            (term_from_json, {"sym": "s/1", "args": []}),
            (rule_from_json, {"label": "1"}),
            (problem_from_json, {"strict_dps": 3}),
            (proof_from_json, []),
            (bound_from_json, {"degree": 2.0}),
            (bound_from_json, {"degree": True}),
            (bound_from_json, {"degree": -1}),
            (bound_from_json, {"degree": "2"}),
            (term_from_json, {"sym": "s/1/constructor", "args": []}),
            (term_from_json, {"sym": "s/1/constructor", "args": "x"}),
            (term_from_json, {"var": "x"}),
        ],
    )
    def test_wrong_shape_is_a_value_error(self, decode, obj):
        with pytest.raises(ValueError):
            decode(obj)


USER_C2 = Symbol("c_2", 2, SymbolKind.CONSTRUCTOR)


class TestSymbolStrings:
    """Schema 2 writes a symbol as the one string name/arity/kind."""

    @pytest.mark.parametrize(
        "sym",
        [
            Symbol("a/b", 2, SymbolKind.DEFINED),
            Symbol("g/1/defined", 10, SymbolKind.DEFINED),
            Symbol("f#", 1, SymbolKind.DEFINED),
            Symbol("f", 1, SymbolKind.MARKED),
            Symbol("0", 0, SymbolKind.CONSTRUCTOR),
            USER_C2,
            compound(2),
        ],
        ids=symbol_to_json,
    )
    def test_roundtrip(self, sym):
        t = App(sym, tuple(Var(f"x{i}") for i in range(sym.arity)))
        assert term_from_json(term_to_json(t)).sym == sym

    def test_user_constructor_beside_compound(self):
        x, y = Var("x"), Var("y")
        t = App(compound(2), (App(USER_C2, (x, y)), App(USER_C2, (y, x))))
        assert symbol_to_json(USER_C2) != symbol_to_json(compound(2))
        back = term_from_json(term_to_json(t))
        assert back == t
        assert back.sym.kind is SymbolKind.COMPOUND
        assert back.args[0].sym.kind is SymbolKind.CONSTRUCTOR
        # symbols are interned: each string decodes to the one symbol object
        assert back.sym is compound(2)
        assert back.args[0].sym is back.args[1].sym is USER_C2

    def test_slashed_name_in_a_problem(self):
        ab = Symbol("a/b", 2, SymbolKind.DEFINED)
        rule = Rule(App(ab, (Var("x"), Var("y"))), App(USER_C2, (Var("y"), Var("x"))), "r")
        p = Problem(
            strict_dps=(),
            strict_trs=(rule,),
            weak_dps=(),
            weak_trs=(),
            q=(rule,),
            start_terms=StartKind.BASIC,
        )
        back = problem_from_json(json.loads(json.dumps(problem_to_json(p))))
        assert problems_equal(back, p) and back.signature == p.signature

    @pytest.mark.parametrize(
        "obj",
        [
            "s",
            "s/1",
            "s/x/constructor",
            "s/-1/constructor",
            "s/ 1/constructor",
            "s/01/constructor",
            "s/1/constructor\n",
            "s/1/",
            "s/1/bogus",
            "s/1/Constructor",
            None,
            1,
            ["s", 1, "constructor"],
            {"name": "s", "arity": 1, "kind": "constructor"},
        ],
    )
    def test_malformed_symbol_is_a_value_error(self, obj):
        with pytest.raises(ValueError):
            term_from_json({"sym": obj, "args": []})

    def test_dp_flag_follows_the_slot(self, mult_dt):
        obj = problem_to_json(mult_dt)
        back = problem_from_json(obj)
        for slot in ("strict_dps", "strict_trs", "weak_dps", "weak_trs", "q"):
            assert getattr(back, slot) == getattr(mult_dt, slot)
        # a DP moved to a plain slot is no longer a DP of the problem
        obj["strict_trs"].append(obj["strict_dps"].pop())
        moved = problem_from_json(obj)
        assert len(moved.dps) == len(mult_dt.dps) - 1
        assert not problems_equal(moved, mult_dt)
