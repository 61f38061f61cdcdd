"""Source layout rules: every import of the package sits at module level."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bpu_lab"


def function_imports(path: Path) -> set[str]:
    """Locations `file:line` of import statements inside function bodies."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {f"{path.name}:{node.lineno}"
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}


def test_no_imports_inside_functions():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = sorted(set().union(*(function_imports(p) for p in modules)))
    assert not found, f"imports inside function bodies: {', '.join(found)}"
