"""Fuzz of the manifest reader through the CLI: any JSON value in any field.

One line of a three-line manifest gets an arbitrary JSON value in one field,
and `glre label` and `glre split` read it. Neither may raise; each exits 0,
1 or 2, and a value of the wrong type exits 2 under the CLI contract.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glre.cli import main

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.text(max_size=8) | st.sampled_from(["frontal", "lateral", "unknown", "s000"]),
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


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("manifest_fuzz")


@pytest.mark.parametrize("field", ["study_id", "view", "report", "image_path", "labels",
                                   "label_entry"])
@settings(max_examples=15, deadline=None)
@given(value=json_values)
def test_any_manifest_field_value_exits_cleanly(work, field, value):
    line = {"study_id": "x", "view": "frontal", "report": "no finding"}
    if field == "label_entry":
        line["labels"] = [0, 0, value, 0, 0]
    else:
        line[field] = value
    manifest = work / "in.jsonl"
    manifest.write_text("".join(json.dumps(row) + "\n" for row in [*_GOOD, line]))
    for argv in (["label"], ["split", "--sizes", "a=1,b=rest"]):
        code = main([*argv, "--manifest", str(manifest), "--out-dir", str(work / "out")])
        if _wrong_type(field, value):
            assert code == 2, (argv[0], line)
        else:
            assert code in (0, 1), (argv[0], line)
