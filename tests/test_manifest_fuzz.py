"""Fuzz of the manifest reader and writer: any JSON value in any field, damaged
files, and records holding any string.

One line of a three-line manifest gets an arbitrary JSON value in one field,
and `glre label` and `glre split` read it. Neither may raise; each exits 0,
1 or 2, and a value of the wrong type, or a string whose escapes decode to a
lone surrogate, exits 2 under the CLI contract, naming the manifest.

A valid manifest damaged by inserted brackets, quotes, blanks, escapes and
value fragments, deleted spans, split lines and joined lines must give
`read_manifest` and the per-line reader it replaced (manifest_oracle.py)
the same records, or the same exception and message.

`write_manifest` must write the bytes of the json.JSONEncoder writer it
replaced (manifest_oracle.py), and raise TypeError for a string field of
another type. Whatever `read_manifest` accepts, of the manifests above,
`write_manifest` writes and `read_manifest` reads back as equal records, and
`manifest_hash`, the scores CSV writer and `save_embeddings` take.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import manifest_oracle
import reference_ops as ref
from glre.cli import _write_scores, main
from glre.datapipe import (PATHOLOGIES, LabelVector, StudyRecord, manifest_hash,
                           read_manifest, write_manifest)
from glre.encoders import LocalGlobalFeatures, save_embeddings
from glre.errors import FormatError

# lone surrogates, high and low, and surrogate pairs, which JSON writes as two escapes
_SURROGATES = ["\ud800", "\udbff", "\udc00", "\udfff", "\ud83d\ude00", "x\udbff\udfffy"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.text(max_size=8) | st.sampled_from(["frontal", "lateral", "unknown", "s000",
                                             *_SURROGATES]),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)

_GOOD = [{"study_id": f"s{i:03d}", "view": "frontal", "report": f"report {i}",
          "image_path": None, "labels": None} for i in range(2)]


def _is_label(v) -> bool:
    return v is None or type(v) is int


def _wrong_type(field: str, value) -> bool:
    if field in ("study_id", "view", "report"):
        return not isinstance(value, str)
    if field == "image_path":
        return not isinstance(value, (str, type(None)))
    if field == "labels":
        return not (value is None or isinstance(value, list) and all(map(_is_label, value)))
    return not _is_label(value)  # one label entry


def _lone_surrogate(value) -> bool:
    """Whether `value` is a string that json.dumps escapes and json.loads decodes to a
    string UTF-8 cannot encode."""
    try:
        isinstance(value, str) and json.loads(json.dumps(value)).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("manifest_fuzz")


_FIELDS = ["study_id", "view", "report", "image_path", "labels", "label_entry"]


def _with_field_value(field: str, value) -> str:
    """Two good lines, then one whose `field` holds `value`."""
    line = {"study_id": "x", "view": "frontal", "report": "no finding"}
    if field == "label_entry":
        line["labels"] = [0, 0, value, 0, 0]
    else:
        line[field] = value
    return "".join(json.dumps(row) + "\n" for row in [*_GOOD, line])


@pytest.mark.parametrize("field", _FIELDS)
@settings(max_examples=15, deadline=None)
@given(value=json_values)
def test_any_manifest_field_value_exits_cleanly(work, field, value):
    manifest = work / "in.jsonl"
    manifest.write_text(_with_field_value(field, value))
    for argv in (["label"], ["split", "--sizes", "a=1,b=rest"]):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--manifest", str(manifest), "--out-dir", str(work / "out")])
        if _wrong_type(field, value) or _lone_surrogate(value):
            assert code == 2, (argv[0], value)
            assert f"{manifest}: " in err.getvalue(), err.getvalue()
        else:
            assert code in (0, 1), (argv[0], value)


_BASE = "".join(line + end for line, end in zip([
    '{"study_id": "s0", "view": "frontal", "report": "No edema.", "image_path": "0.pgm", '
    '"labels": [1, 0, null, -1, null]}',
    '{"labels": null, "report": "café \\"quoted\\", [x]", "study_id": "s1", "view": "lateral"}',
    '  {"study_id": "s2", "view": "unknown", "labels": [0, 0, 0, 0, 1]}',
    '{"study_id": "s3", "view": "frontal", "report": "", "image_path": null, '
    '"labels": [1, 0, null, -1, null]}'], ["\n", "\r\n", "\n", "\n"]))

_FRAGMENTS = ["{", "}", "[", "]", ",", ":", '"', "\\", "\r", "\x0c", "\xa0", "\ufeff", " ",
              "\t", "1", "-1", "1.5", "1e999", "true", "null", "NaN", '"x"', "[1]", "{}",
              '"view": "lateral"', '"study_id": "s0", ', "\\ud800", "\\uDFFF", "\\ud83d\\ude00",
              "\\uD83D"]

_damage = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 999), st.sampled_from(_FRAGMENTS)),
    st.tuples(st.just("delete"), st.integers(0, 999), st.integers(1, 12)),
    st.tuples(st.just("insert"), st.integers(0, 999), st.just("\n")),  # split a line
    st.tuples(st.just("join"), st.integers(0, 9), st.sampled_from(["", ",", ", "])))


def _damaged(text: str, damage) -> str:
    for kind, at, arg in damage:
        if kind == "join":
            ends = [i for i, c in enumerate(text) if c == "\n"]
            if ends:
                i = ends[at % len(ends)]
                text = text[:i] + arg + text[i + 1:]
        else:
            at %= len(text) + 1
            text = text[:at] + arg + text[at:] if kind == "insert" else text[:at] + text[at + arg:]
    return text


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the outcome compared is the exception's type and message
        return type(exc), str(exc)


def _assert_readers_agree(path, text: str):
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_manifest, path) == _outcome(manifest_oracle.read_manifest, path)


@settings(max_examples=300, deadline=None)
@given(damage=st.lists(_damage, min_size=1, max_size=4))
def test_read_manifest_agrees_with_the_per_line_reader(work, damage):
    _assert_readers_agree(work / "damaged.jsonl", _damaged(_BASE, damage))


def test_lines_valid_only_when_joined_are_rejected_as_the_per_line_reader_does(work):
    # joined into one JSON array these three lines are three valid rows
    path = work / "joined.jsonl"
    _assert_readers_agree(path, '{"study_id": "a", "view": "frontal", "report": "x\ny"}\n'
                                '{"study_id": "b", "view": "frontal"}, '
                                '{"study_id": "c", "view": "frontal"}\n')
    with pytest.raises(FormatError, match="line 1 column 48: Unterminated string"):
        read_manifest(path)


@pytest.mark.parametrize("text", [
    _BASE,
    _BASE + "\xa0\x0c\n\n \t\r\n",  # blank to str.strip, not to the JSON scanner
    "\ufeff" + _BASE,
    _BASE.replace("}\n", "}\n[1,\n2]\n", 1),
    # scanned from line 2, the array reaches an int that int() refuses: a ValueError
    _BASE.replace("}\n", "}\n[1,\n" + "1" * 5001 + "]\n", 1),
    _BASE.replace("caf\u00e9", "caf\\udc00"),
    _BASE.replace("caf\u00e9", "caf\\uDBFF"),
    _BASE.replace("caf\u00e9", "caf\\ud83d\\uDE00"),
    _BASE.replace("caf\u00e9", "caf\\\\ud800"),  # an escaped backslash, then "ud800"
], ids=["valid", "unicode_blank", "bom", "array_across_lines", "long_int_across_lines",
        "lone_low_surrogate", "lone_high_surrogate_upper_case", "surrogate_pair",
        "backslash_then_ud800"])
def test_read_manifest_agrees_with_the_per_line_reader_on_fixed_cases(work, text):
    _assert_readers_agree(work / "fixed.jsonl", text)


# every character class the JSON encoder escapes, then lone surrogates
_ESCAPED = '"\\/\x00\x1f\x7f\xe9\u2028\u2029\ufeff\U0001f600'
_LONE = '\ud800\udbff\udc00\udfff'
_SHARED = [LabelVector((1, 0, None, -1, None)), None]  # one object on several records


def _records(lone: bool = True):
    texts = st.text(st.characters() | st.sampled_from(_ESCAPED + _LONE * lone), max_size=12)
    return st.builds(
        StudyRecord, study_id=texts, view=st.sampled_from(["frontal", "lateral", "unknown"]),
        report_text=texts, image_path=st.none() | texts,
        labels=st.sampled_from(_SHARED)
        | st.tuples(*[st.sampled_from([1, 0, -1, None])] * 5).map(LabelVector))


def _written(write, records, path):
    try:
        write(records, path)
    except Exception as exc:  # the outcome compared is the exception's type
        return type(exc)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(records=st.lists(_records(), max_size=6))
def test_write_manifest_writes_the_bytes_of_the_json_encoder(work, records):
    assert (_written(write_manifest, records, work / "new.jsonl")
            == _written(manifest_oracle.write_manifest, records, work / "old.jsonl"))


@pytest.mark.parametrize("fields", [
    {"study_id": 5}, {"study_id": None}, {"view": 1.5}, {"report_text": ["a", 1]},
    {"image_path": Path("x.pgm")},
], ids=repr)
def test_write_manifest_of_a_string_field_of_another_type_raises_type_error(work, fields):
    record = StudyRecord("a")
    for name, value in fields.items():
        setattr(record, name, value)
    with pytest.raises(TypeError):
        write_manifest([record], work / "new.jsonl")


def test_write_manifest_encodes_each_labels_object_as_its_own(work):
    # equal labels of another JSON form: a cache keyed by value would write [1, 0, ...]
    records = [StudyRecord("a", labels=LabelVector((1, 0, None, -1, 1))),
               StudyRecord("b", labels=LabelVector((True, False, None, -1, 1.0)))]
    assert (_written(write_manifest, records, work / "new.jsonl")
            == _written(manifest_oracle.write_manifest, records, work / "old.jsonl"))


# a damaged manifest, a field holding any JSON value, or records the old writer wrote
_manifests = (st.lists(_damage, max_size=4).map(lambda damage: _damaged(_BASE, damage))
              | st.builds(_with_field_value, st.sampled_from(_FIELDS), json_values)
              | st.lists(_records(lone=False), max_size=6, unique_by=lambda r: r.study_id))


@settings(max_examples=300, deadline=None)
@given(source=_manifests)
def test_what_read_manifest_accepts_write_manifest_writes_back(work, source):
    path = work / "accepted.jsonl"
    if isinstance(source, str):
        path.write_bytes(source.encode("utf-8"))
    else:
        manifest_oracle.write_manifest(source, path)
    try:
        records = read_manifest(path)
    except ValueError:
        return
    write_manifest(records, work / "written.jsonl")
    assert read_manifest(work / "written.jsonl") == records
    manifest_hash(records)
    _write_scores(work / "scores.csv", [r.study_id for r in records],
                  np.zeros((len(records), len(PATHOLOGIES))))
    row = ref.constant(np.eye(1, 2))
    save_embeddings(work / "embeddings.bin", {f"{r.study_id}:text": LocalGlobalFeatures(
        row, row, "text") for r in records})
