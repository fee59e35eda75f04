"""The package's module graph, read from the source with ast: the certificate
checker in proofs.py must not load the search, the CLI or the parser."""

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


def test_checker_reaches_no_search_cli_or_parser():
    graph = import_graph()
    assert {"framework", "interpretations", "terms"} <= reachable(graph, "proofs")
    assert reachable(graph, "proofs") & {"processors", "cli", "parsing"} == set()
