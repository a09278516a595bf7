"""The README's library example runs, and imports each public name from its one import path."""

import ast
import importlib
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_compiles_and_imports_existing_names():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        tree = ast.parse(block, filename="README.md")
        compile(tree, "README.md", "exec")
        imported = [(node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "glre"
                    for alias in node.names]
        assert imported, "the README example imports nothing from glre"
        missing = [f"{module}.{name}" for module, name in imported
                   if not hasattr(importlib.import_module(module), name)]
        assert not missing, f"README.md imports names that do not exist: {missing}"


def _library_example() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    return block


def test_glre_exports_only_its_submodules_and_version():
    import glre.cli  # noqa: F401  (loads every submodule)

    package = importlib.import_module("glre")
    public = {name for name in vars(package) if not name.startswith("_")}
    assert public == {p.stem for p in Path(package.__file__).parent.glob("*.py")} - {"__init__"}
    assert all(getattr(package, name).__name__ == f"glre.{name}" for name in public)
    assert isinstance(package.__version__, str)


def test_readme_imports_each_name_from_the_module_that_defines_it():
    imported = [(node.module, alias.name) for node in ast.walk(ast.parse(_library_example()))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    elsewhere = [f"{module}.{name}" for module, name in imported
                 if getattr(getattr(importlib.import_module(module), name), "__module__", None)
                 != module]
    assert not elsewhere, f"README.md imports names from a module that does not define them: {elsewhere}"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_library_example(), "README.md", "exec"), namespace)
    assert len((tmp_path / "loss.jsonl").read_bytes().splitlines()) == 500
    assert namespace["scores"].shape == (200, 5)
    top1 = namespace["top1"]
    assert len(top1) == 3 and all(math.isfinite(v) for v in top1.values())
