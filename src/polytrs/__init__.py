"""Polynomial runtime and derivational complexity bounds for term rewriting."""

from .framework import (
    Bound,
    Judgement,
    Problem,
    StartKind,
    bound_add,
    bound_mul,
    cc_oracle,
    is_innermost,
)
from .parsing import ParseError, parse_file, parse_problem
from .processors import StrategyConfig, default_strategy
from .proofs import (
    Assumption,
    Axiom,
    Inference,
    ProofTree,
    apply_processor,
    is_closed,
    proof_from_json,
    proof_to_json,
    render_proof,
    validate_proof,
)
from .rewriting import OracleResult, dh_oracle
from .terms import App, Rule, Symbol, SymbolKind, Term, Var

__version__ = "0.1.0"

__all__ = [
    "App",
    "Assumption",
    "Axiom",
    "Bound",
    "Inference",
    "Judgement",
    "OracleResult",
    "ParseError",
    "Problem",
    "ProofTree",
    "Rule",
    "StartKind",
    "StrategyConfig",
    "Symbol",
    "SymbolKind",
    "Term",
    "Var",
    "apply_processor",
    "bound_add",
    "bound_mul",
    "cc_oracle",
    "default_strategy",
    "dh_oracle",
    "is_closed",
    "is_innermost",
    "parse_file",
    "parse_problem",
    "proof_from_json",
    "proof_to_json",
    "render_proof",
    "validate_proof",
    "__version__",
]
