"""The package's module graph, read from the source with ast: the certificate
checker in proofs.py must not load the search, the CLI or the parser, only
the oracles' users load rewriting.py, and the checker's half of
interpretations.py must not use its solver."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polytrs"


def import_graph() -> dict[str, set[str]]:
    """Each module of src/polytrs with the package modules it imports through
    `from .x import` or `from . import x`, inside functions too."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {
            name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [a.name for a in node.names])
        }
    return graph


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """The modules start imports, directly or through others."""
    seen: set[str] = set()
    stack = [start]
    while stack:
        for module in graph[stack.pop()] - seen:
            seen.add(module)
            stack.append(module)
    return seen


def test_module_graph_has_no_cycle():
    graph = import_graph()
    assert sorted(m for m in graph if m in reachable(graph, m)) == []


def test_only_oracle_users_import_rewriting():
    # rewriting holds only the oracles; Rule and check_labels are in terms
    graph = import_graph()
    importers = sorted(m for m, deps in graph.items() if "rewriting" in deps)
    assert importers == ["__init__", "cli", "framework"]


def test_checker_reaches_no_search_cli_or_parser():
    graph = import_graph()
    assert {"framework", "interpretations", "terms"} <= reachable(graph, "proofs")
    assert reachable(graph, "proofs") & {"processors", "cli", "parsing"} == set()


CHECKER = {"check_orientation", "orients_strictly", "orients_weakly", "mu_monotone",
           "induced_bound", "expand_rule"}
SOLVER = {"_Solver", "search_interpretation", "synthesize", "Synthesis", "Fuel",
          "OutOfFuel", "_FUEL", "_candidates", "_value"}


def test_checker_and_solver_names_are_defined():
    # a renamed name would otherwise drop out of the guard below unnoticed
    tree = ast.parse((SRC / "interpretations.py").read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert sorted((CHECKER | SOLVER) - defined) == []


def test_orientation_checker_uses_no_solver_name():
    tree = ast.parse((SRC / "interpretations.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = {}  # each function with the names it refers to
    for name, node in functions.items():
        names[name] = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
    # the checker functions and every module-level function they call
    seen, stack = set(CHECKER), list(CHECKER)
    while stack:
        for callee in names[stack.pop()] & functions.keys() - seen:
            seen.add(callee)
            stack.append(callee)
    assert {name: sorted(names[name] & SOLVER) for name in seen if names[name] & SOLVER} == {}
