"""Every third-party module that the package or its tests import is declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared_in_pyproject():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
                for r in requirements}
    helpers = {p.stem for p in (ROOT / "tests").glob("*.py")}
    sources = [*(ROOT / "src" / "glre").rglob("*.py"), *(ROOT / "tests").glob("*.py")]
    used = set().union(*(imported_modules(p) for p in sources))
    undeclared = used - set(sys.stdlib_module_names) - helpers - {"glre"} - declared
    assert not undeclared, f"imported but not declared in pyproject.toml: {sorted(undeclared)}"
