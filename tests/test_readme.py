"""The README's library example stays in step with the package's public names."""

import ast
import importlib
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
