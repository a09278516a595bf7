"""The one write path: whole files through a temp file and a rename, and nothing else writes."""

import ast
from pathlib import Path

import numpy as np
import pytest

from glre import files
from glre.cli import _write_scores
from glre.datapipe import LabelVector, SplitManifest, StudyRecord, write_manifest
from glre.encoders import LocalGlobalFeatures, save_embeddings, write_pgm
from glre.numerics import Tensor

SRC = Path(files.__file__).resolve().parent


class FailingWrites:
    """A file whose writes stop after `budget` bytes with a full disk."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        data = memoryview(data).cast("B")
        self.fh.write(data[: self.budget])
        self.budget -= min(self.budget, len(data))
        if self.budget == 0:
            raise OSError(28, "No space left on device")


# each writer writes version k (0 or 1) of its file to a path


def _manifest(path, k):
    write_manifest([StudyRecord(f"s{i}", report_text=f"report {k}", image_path=f"{i}.pgm",
                                labels=LabelVector((1, 0, -1, None, k)))
                    for i in range(3)], path)


def _scores(path, k):
    _write_scores(path, ["a", "b,c"], np.full((2, 5), 0.1 + k))


def _split(path, k):
    SplitManifest(seed=k, splits={"train": ["a", "b"], "test": ["c"]},
                  source_hash="0" * 64).save(path)


def _pgm(path, k):
    write_pgm(path, np.full((4, 6), 0.25 * (k + 1)))


def _embeddings(path, k):
    rows = np.eye(3, 4)
    save_embeddings(path, {f"s{k}:text": LocalGlobalFeatures(Tensor(rows), Tensor(rows[:1]),
                                                            "text")})


@pytest.mark.parametrize("failure", ["mid_write", "at_rename"])
@pytest.mark.parametrize("writer", [_manifest, _scores, _split, _pgm, _embeddings],
                         ids=lambda writer: writer.__name__.lstrip("_"))
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, writer, failure):
    path, later = tmp_path / "out", tmp_path / "later" / "out"
    later.parent.mkdir()
    writer(path, 0)
    writer(later, 1)
    before = path.read_bytes()
    assert later.read_bytes() != before
    if failure == "mid_write":
        monkeypatch.setattr(files, "open", lambda name, mode: FailingWrites(
            open(name, mode), len(later.read_bytes()) // 2), raising=False)
    else:
        def no_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(files.os, "replace", no_rename)
    with pytest.raises(OSError):
        writer(path, 1)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["later", "out"]


def test_write_file_replaces_the_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    files.write_file(path, b"a longer first version\n")
    files.write_file(path, "short\n")
    assert path.read_bytes() == b"short\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _mode(call: ast.Call):
    """The mode an `open` call passes, or None when it passes none."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    func = call.func
    # builtin open(path, mode) and os.open / io.open(path, ...); Path.open(mode)
    on_path = isinstance(func, ast.Attribute) and not (
        isinstance(func.value, ast.Name) and func.value.id in ("os", "io"))
    args = call.args if on_path else call.args[1:]
    return args[0] if args else None


def direct_writes(path: Path) -> set[tuple[str, str]]:
    """(enclosing function, call) for each call in one module that writes a file itself.

    A call counts when it is `write_text`, `write_bytes`, or an `open` whose mode
    is not a constant read mode.
    """
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                mode = _mode(child) if name == "open" else None
                opens_to_write = mode is not None and not (
                    isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))
                if name in ("write_text", "write_bytes") or opens_to_write:
                    found.add((scope, name))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_scan_finds_the_write_in_the_files_module():
    assert direct_writes(SRC / "files.py") == {("write_file", "open")}


def test_only_the_files_module_writes_files():
    # trainer.train appends the step log a line per step; every other output
    # is written whole through glre.files
    found = {(p.name, scope, call) for p in sorted(SRC.glob("*.py")) if p.name != "files.py"
             for scope, call in direct_writes(p)}
    assert found == {("trainer.py", "train", "open")}
