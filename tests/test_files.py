"""The one read and write path: whole files in through `reading`, out through a temp file
and a rename, and nothing else reads or writes."""

import ast
import csv
import io
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glre import files
from glre.cli import _write_scores
from glre.datapipe import LabelVector, SplitManifest, StudyRecord, write_manifest
from glre.encoders import LocalGlobalFeatures, save_embeddings, write_pgm
from glre.errors import FormatError, SettingTypeError, VersionError
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


_fields = st.text(st.sampled_from(',"\r\n \taZé€\u2028') | st.characters(), max_size=6)
_floats = st.floats() | st.sampled_from([math.inf, -math.inf, -0.0, math.nan, 5e-324, 1e308])
_OTHER_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
# a column is made of pieces: runs of one value, and zeros or NaNs of either sign or
# payload side by side, which write_csv must not take for a run
_pieces = (st.tuples(_floats, st.integers(1, 4)).map(lambda run: [run[0]] * run[1])
           | st.sampled_from([[0.0, -0.0], [-0.0, 0.0, 0.0], [math.nan] * 3,
                              [math.nan, -math.nan, _OTHER_NAN, math.nan]]))


def _float_column(n):
    return st.lists(_pieces, min_size=n, max_size=n).map(
        lambda pieces: [v for piece in pieces for v in piece][:n])


@settings(max_examples=80, deadline=None)
@given(table=st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.lists(_fields, min_size=n, max_size=n) | st.none(),  # a study_id column, or none
    st.lists(_float_column(n), min_size=1, max_size=3))),
    header=st.lists(_fields, min_size=4, max_size=4))
def test_write_csv_writes_the_bytes_csv_writer_writes(tmp_path_factory, table, header):
    ids, floats = table
    columns = [*([ids] if ids is not None else []), *map(np.array, floats)]
    if len(columns) < 2:  # csv.writer quotes an empty field when it is a row's only one
        columns.append(np.array(floats[0]))
    header = header[:len(columns)]
    path = tmp_path_factory.getbasetemp() / "table.csv"
    buf = io.StringIO()  # the first form: csv.writer over rows, numbers as repr
    csv.writer(buf).writerows([v if isinstance(v, str) else repr(float(v)) for v in row]
                              for row in [header, *zip(*columns)])
    try:
        want = buf.getvalue().encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form: both writers refuse it
        with pytest.raises(UnicodeEncodeError):
            files.write_csv(path, header, columns)
        return
    files.write_csv(path, header, columns)
    assert path.read_bytes() == want


def _raise_in_reading(path, exc):
    with files.reading(path) as data:
        assert data == b"payload"
        raise exc


@pytest.mark.parametrize("exc", [FormatError("bad field", offset=7), SettingTypeError("bad type"),
                                 VersionError("version 9")], ids=lambda e: type(e).__name__)
def test_reading_names_the_file_in_a_format_error(tmp_path, exc):
    path = tmp_path / "in.bin"
    path.write_bytes(b"payload")
    message = str(exc)
    with pytest.raises(type(exc)) as raised:
        _raise_in_reading(path, exc)
    assert raised.value is exc and str(exc) == f"{path}: {message}"
    assert getattr(exc, "offset", None) == (7 if type(exc) is FormatError else None)


@pytest.mark.parametrize("decode, message", [
    (lambda: json.loads('{"a": 1,\n  }'), "line 2 column 3: Expecting property name"),
    (lambda: b"\xff".decode("utf-8"), "'utf-8' codec can't decode byte 0xff"),
    (lambda: next(csv.reader(["x" * 200_000])), "field larger than field limit"),
], ids=["json", "utf8", "csv"])
def test_reading_turns_a_decode_error_into_a_format_error(tmp_path, decode, message):
    path = tmp_path / "in.txt"
    path.write_bytes(b"payload")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}"):
        with files.reading(path):
            decode()


def test_reading_leaves_other_errors_alone(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"payload")
    with pytest.raises(ValueError, match="^not a format error$"):
        _raise_in_reading(path, ValueError("not a format error"))


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


def _file_calls(path: Path):
    """(enclosing function, called name, whether it writes) for each call in one
    module that reads or writes a file itself.

    Writes are `write_text`, `write_bytes` and an `open` whose mode is not a
    constant read mode; reads are `read_text`, `read_bytes` and every other `open`.
    """
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open":
                    mode = _mode(child)
                    writes = mode is not None and not (
                        isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))
                    found.add((scope, name, writes))
                elif name in ("write_text", "write_bytes", "read_text", "read_bytes"):
                    found.add((scope, name, name.startswith("write")))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def direct_writes(path: Path) -> set[tuple[str, str]]:
    """(enclosing function, call) for each call in one module that writes a file itself."""
    return {(scope, name) for scope, name, writes in _file_calls(path) if writes}


def direct_reads(path: Path) -> set[tuple[str, str]]:
    """(enclosing function, call) for each call in one module that reads a file itself."""
    return {(scope, name) for scope, name, writes in _file_calls(path) if not writes}


def test_scan_finds_the_write_in_the_files_module():
    assert direct_writes(SRC / "files.py") == {("write_file", "open"), ("on_step", "open")}


def test_scan_finds_the_read_in_the_files_module():
    assert direct_reads(SRC / "files.py") == {("reading", "open")}


def test_only_the_files_module_writes_files():
    # every output is written through glre.files, the step log included
    found = {(p.name, scope, call) for p in sorted(SRC.glob("*.py")) if p.name != "files.py"
             for scope, call in direct_writes(p)}
    assert found == set()


def test_only_the_files_module_reads_files():
    # every input is read whole through glre.files.reading
    found = {(p.name, scope, call) for p in sorted(SRC.glob("*.py")) if p.name != "files.py"
             for scope, call in direct_reads(p)}
    assert found == set()
