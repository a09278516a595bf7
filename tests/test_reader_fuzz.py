"""Fuzz of the scores CSV, prompt, lexicon and config JSON and PGM readers through the CLI.

One field of an otherwise valid file gets an arbitrary value, or one byte
of it an arbitrary byte, and the command that reads the file runs through
`glre.cli.main`: `eval` for a scores CSV, `zeroshot` for a prompt file or a
PGM, `label` for a lexicon and `train` for a config file; `split` and `eval`
also read a config entry named after one of their flags, whose type the flag
table declares. No exception may escape; a value of the wrong type, a JSON
string that decodes to a lone surrogate, or a file that is not UTF-8, exits 2
under the CLI contract, and anything else exits 0, 1 or 2. Config and PGM runs
also check that every exit 2 names the mutated file.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glre.cli import _FLAGS, main
from glre.datapipe import PATHOLOGIES, default_lexicon
from glre.encoders import read_pgm
from glre.errors import FormatError

# lone surrogates, high and low, and surrogate pairs, which JSON writes as two escapes
_SURROGATES = ["\ud800", "n\udbff", "\udc00", "\udfff", "\ud83d\ude00", "x\udbff\udfffy"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.text(max_size=8) | st.sampled_from(["edema", "no", "Possible", "", *_SURROGATES]),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)

# CSV cells: numbers as text, near-numbers and anything else
cells = (st.floats().map(repr) | st.integers().map(str) | st.text(max_size=8)
         | st.sampled_from(["", "nan", "-inf", "1e400", "0x1", "1_0", " 0.5 ", "s000"]))


def _lone_surrogate(payload) -> bool:
    """Whether json.dumps writes `payload` with an escape that json.loads decodes to a lone
    surrogate, which UTF-8 cannot encode; a pair of escapes decodes to one character."""
    try:
        json.dumps(json.loads(json.dumps(payload)), ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def _run_naming(path, *argv) -> int:
    """Exit code of `argv`; an exit 2 must name `path` in its message."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = _run(*argv)
    assert code != 2 or f"{path}: " in err.getvalue(), err.getvalue()
    return code


def _read(work, kind, path) -> int:
    """Exit code of the command that reads `path` as a file of `kind`."""
    held = work / "data" / "heldout.jsonl"
    argv = {"scores": ["eval", "--scores", path, "--labels", held],
            "prompts": ["zeroshot", "--checkpoint", work / "run" / "checkpoint.bin",
                        "--manifest", held, "--prompts", path],
            "lexicon": ["label", "--manifest", held, "--lexicon", path]}[kind]
    return _run(*argv, "--out-dir", work / "out")


def _scores_rows(work) -> list[list[str]]:
    held = [json.loads(line) for line in (work / "data" / "heldout.jsonl").open()]
    return [["study_id", *PATHOLOGIES]] + [[r["study_id"], *[str(0.1 * k) for k in range(5)]]
                                           for r in held]


def _write_scores(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _prompts() -> dict:
    return {name: [name] for name in PATHOLOGIES}


def _lexicon() -> dict:
    base = default_lexicon()
    return {"mentions": {name: [name] for name in PATHOLOGIES},
            "negations": base.negations, "uncertainties": base.uncertainties,
            "negation_window": 6}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A tiny synthetic corpus, whose held-out manifest is labeled, and a checkpoint."""
    root = tmp_path_factory.mktemp("reader_fuzz")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"n_train": 20, "n_heldout": 4, "image_size": 12},
                               "train": {"steps": 2, "dim": 8, "batch_size": 4,
                                         "patch_pool": 2}}))
    assert _run("synth", "--config", cfg, "--seed", 3, "--out-dir", root / "data") == 0
    assert _run("train", "--config", cfg, "--seed", 3, "--manifest",
                root / "data" / "train.jsonl", "--out-dir", root / "run") == 0
    return root


# ---------------------------------------------------------------------------
# scores CSV (glre eval)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", ["header", "study_id", "score"])
@settings(max_examples=15, deadline=None)
@given(cell=cells)
def test_any_scores_cell_exits_cleanly(work, field, cell):
    rows = _scores_rows(work)
    row, col = {"header": (0, 2), "study_id": (1, 0), "score": (2, 3)}[field]
    rows[row][col] = cell
    _write_scores(work / "scores.csv", rows)
    code = _read(work, "scores", work / "scores.csv")
    if field == "score" and not _parses_as_float(cell):
        assert code == 2, rows
    else:
        assert code in (0, 1, 2), rows


# ---------------------------------------------------------------------------
# prompt JSON (glre zeroshot)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", ["file", "class", "prompt"])
@settings(max_examples=10, deadline=None)
@given(value=json_values)
def test_any_prompt_value_exits_cleanly(work, field, value):
    payload = _prompts()
    if field == "file":
        payload = value
    elif field == "class":
        payload["edema"] = value
    else:
        payload["edema"] = ["edema", value]
    (work / "prompts.json").write_text(json.dumps(payload))
    code = _read(work, "prompts", work / "prompts.json")
    if (not (isinstance(payload, dict) and all(map(_is_str_list, payload.values())))
            or _lone_surrogate(payload)):
        assert code == 2, payload
    else:
        assert code in (0, 1, 2), payload


# ---------------------------------------------------------------------------
# lexicon JSON (glre label)
# ---------------------------------------------------------------------------


def _lexicon_wrong_type(payload) -> bool:
    if not (isinstance(payload, dict)
            and {"mentions", "negations", "uncertainties"} <= payload.keys()):
        return True
    mentions, window = payload["mentions"], payload.get("negation_window", 6)
    return not (isinstance(mentions, dict) and all(map(_is_str_list, mentions.values()))
                and _is_str_list(payload["negations"])
                and _is_str_list(payload["uncertainties"])
                and type(window) is int)


@pytest.mark.parametrize("field", ["file", "mentions", "mention", "negations", "negation",
                                   "uncertainties", "negation_window"])
@settings(max_examples=10, deadline=None)
@given(value=json_values)
def test_any_lexicon_value_exits_cleanly(work, field, value):
    payload = _lexicon()
    if field == "file":
        payload = value
    elif field == "mention":
        payload["mentions"]["edema"] = ["edema", value]
    elif field == "negation":
        payload["negations"].append(value)
    else:
        payload[field] = value
    (work / "lexicon.json").write_text(json.dumps(payload))
    code = _read(work, "lexicon", work / "lexicon.json")
    if _lexicon_wrong_type(payload) or _lone_surrogate(payload):
        assert code == 2, payload
    else:
        assert code in (0, 1, 2), payload


# ---------------------------------------------------------------------------
# any byte of any of the three files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["scores", "prompts", "lexicon"])
@settings(max_examples=15, deadline=None)
@given(position=st.integers(0, 2**16), byte=st.integers(0, 255))
def test_any_byte_in_a_reader_file_exits_cleanly(work, kind, position, byte):
    path = work / kind
    if kind == "scores":
        _write_scores(path, _scores_rows(work))
    else:
        path.write_text(json.dumps(_prompts() if kind == "prompts" else _lexicon()))
    blob = bytearray(path.read_bytes())
    blob[position % len(blob)] = byte
    path.write_bytes(blob)
    code = _read(work, kind, path)
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 2, blob
    else:
        assert code in (0, 1, 2), blob


# ---------------------------------------------------------------------------
# config JSON (glre train)
# ---------------------------------------------------------------------------

# setting values: integers stay small, so no mutation asks for a long or large run
setting_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=8)
    | st.sampled_from(_SURROGATES),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=2),
    max_leaves=4)

_INT_SETTINGS = ("steps", "batch_size", "dim", "patch_pool", "max_length", "seed")
_FLOAT_SETTINGS = ("learning_rate", "beta1", "beta2", "epsilon", "init_scale")


def _config() -> dict:
    return {"seed": 3, "manifest": "flag.jsonl", "out_dir": "flag",
            "train": {"steps": 2, "dim": 8, "batch_size": 4, "patch_pool": 2}}


def _config_wrong_type(field, key, value) -> bool:
    is_int = isinstance(value, int) and not isinstance(value, bool)
    return {"file": not isinstance(value, dict),
            "entry": not (is_int if key == "seed" else isinstance(value, str)),
            "section": not isinstance(value, dict),
            "setting": (key in _INT_SETTINGS and not is_int) or (
                key in _FLOAT_SETTINGS and not (is_int or isinstance(value, float)))}[field]


@pytest.mark.parametrize("field", ["file", "entry", "section", "setting"])
@settings(max_examples=10, deadline=None)
@given(entry=st.sampled_from(["seed", "manifest", "out_dir"]),
       setting=st.sampled_from([*_INT_SETTINGS, *_FLOAT_SETTINGS, "region_grid",
                                "use_positions", "loss", "vocab_size"]),
       value=setting_values)
def test_any_config_value_exits_cleanly(work, field, entry, setting, value):
    payload = _config()
    if field == "file":
        payload = value
    elif field == "entry":
        payload[entry] = value
    elif field == "section":
        payload["train"] = value
    else:
        payload["train"][setting] = value
    path = work / "config.json"
    path.write_text(json.dumps(payload))
    # flags name every file, so the config's own path entries are only type-checked
    code = _run_naming(path, "train", "--config", path, "--manifest",
                       work / "data" / "train.jsonl", "--out-dir", work / "out")
    if (_config_wrong_type(field, entry if field == "entry" else setting, value)
            or _lone_surrogate(payload)):
        assert code == 2, payload
    else:
        assert code in (0, 1, 2), payload


# ---------------------------------------------------------------------------
# top-level config entries named after a flag (glre split, glre eval)
# ---------------------------------------------------------------------------


def _entry_wrong_type(key, value) -> bool:
    """Whether `value` is not of the kind the flag table declares for `key`."""
    kw = _FLAGS["--" + key.replace("_", "-")]
    if kw.get("type") is int:
        return type(value) is not int
    if kw.get("action") == "store_true":
        return type(value) is not bool
    return not (isinstance(value, str) or (key == "sizes" and isinstance(value, dict)))


@pytest.mark.parametrize("key", ["view", "require_report", "sizes", "uncertain_policy"])
@settings(max_examples=10, deadline=None)
@given(value=json_values)
def test_any_config_entry_for_a_flag_exits_cleanly(work, key, value):
    path = work / "entry.json"
    path.write_text(json.dumps({key: value}))
    held = work / "data" / "heldout.jsonl"
    if key == "uncertain_policy":
        _write_scores(work / "scores.csv", _scores_rows(work))
        argv = ["eval", "--scores", work / "scores.csv", "--labels", held]
    else:
        argv = ["split", "--manifest", held, *([] if key == "sizes" else ["--sizes", "all=rest"])]
    code = _run_naming(path, *argv, "--config", path, "--out-dir", work / "out")
    if _entry_wrong_type(key, value) or _lone_surrogate(value):
        assert code == 2, value
    else:
        assert code in (0, 1, 2), value


# ---------------------------------------------------------------------------
# PGM (glre zeroshot)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("damage", ["byte", "truncate"])
@settings(max_examples=15, deadline=None)
@given(position=st.integers(0, 2**16), byte=st.integers(0, 255))
def test_any_damaged_pgm_exits_cleanly(work, damage, position, byte):
    row = json.loads((work / "data" / "heldout.jsonl").read_text().splitlines()[0])
    blob = bytearray((work / "data" / row["image_path"]).read_bytes())
    if damage == "byte":
        blob[position % len(blob)] = byte
    else:
        del blob[position % len(blob):]
    pgm = (work / "bad.pgm").resolve()
    pgm.write_bytes(blob)
    (work / "one.jsonl").write_text(json.dumps({**row, "image_path": "bad.pgm"}) + "\n")
    code = _run_naming(pgm, "zeroshot", "--checkpoint", work / "run" / "checkpoint.bin",
                       "--manifest", work / "one.jsonl", "--out-dir", work / "out")
    try:
        read_pgm(pgm)
    except FormatError:
        assert code == 2, bytes(blob)
    else:
        assert code in (0, 1, 2), bytes(blob)
