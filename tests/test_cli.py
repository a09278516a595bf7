"""End-to-end tests of the command-line pipeline and its exit-code contract."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glre
from glre.cli import main, runreport_fingerprint
from glre.datapipe import (
    PATHOLOGIES,
    LabelVector,
    StudyRecord,
    label_report,
    read_manifest,
    synth_lexicon,
    write_manifest,
)
from glre.encoders import load_external_embeddings
from glre.trainer import load_checkpoint


def run(*argv) -> int:
    return main([str(a) for a in argv])


def report_of(out_dir, command):
    path = out_dir / f"run_report_{command.replace('-', '_')}.json"
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Shared pipeline artifacts (small synthetic corpus, short training run)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "synth": {"n_train": 60, "n_heldout": 20},
        "train": {"steps": 40, "dim": 16, "batch_size": 8},
    }))
    data = root / "data"
    run_dir = root / "run"
    assert run("synth", "--config", cfg, "--seed", 5, "--out-dir", data) == 0
    assert run("train", "--config", cfg, "--seed", 5,
               "--manifest", data / "train.jsonl", "--out-dir", run_dir) == 0
    return {"root": root, "cfg": cfg, "data": data, "run": run_dir,
            "checkpoint": run_dir / "checkpoint.bin"}


# ---------------------------------------------------------------------------
# label
# ---------------------------------------------------------------------------


def test_label_matches_library_labeler(tmp_path):
    reports = [
        "there is severe consolidation. no pleural effusion.",
        "cannot exclude edema; heart size is normal.",
        "clear lungs.",
    ]
    records = [StudyRecord(study_id=f"s{i}", report_text=t)
               for i, t in enumerate(reports)]
    write_manifest(records, tmp_path / "in.jsonl")
    out_dir = tmp_path / "out"
    assert run("label", "--manifest", tmp_path / "in.jsonl",
               "--out-dir", out_dir) == 0
    labeled = read_manifest(out_dir / "labeled.jsonl")
    from glre.datapipe import default_lexicon
    lex = default_lexicon()
    for rec, text in zip(labeled, reports):
        assert rec.labels == label_report(text, lex)


def test_label_with_custom_lexicon(tmp_path):
    records = [StudyRecord(study_id="a", report_text="mild edema is present.")]
    write_manifest(records, tmp_path / "in.jsonl")
    lex = synth_lexicon()
    lex.save(tmp_path / "lex.json")
    assert run("label", "--manifest", tmp_path / "in.jsonl",
               "--lexicon", tmp_path / "lex.json", "--out-dir", tmp_path) == 0
    labeled = read_manifest(tmp_path / "labeled.jsonl")
    assert labeled[0].labels["edema"] == 1


# ---------------------------------------------------------------------------
# split / subset
# ---------------------------------------------------------------------------


def _flat_manifest(path, n=30, view="frontal"):
    records = [StudyRecord(study_id=f"s{i:03d}", view=view,
                           report_text=f"report {i}") for i in range(n)]
    write_manifest(records, path)
    return records


def test_split_counts_disjoint_and_deterministic(tmp_path):
    _flat_manifest(tmp_path / "in.jsonl")
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    for d in (d1, d2):
        assert run("split", "--manifest", tmp_path / "in.jsonl",
                   "--sizes", "train=10,test=rest", "--seed", 3,
                   "--out-dir", d) == 0
    assert (d1 / "train.jsonl").read_bytes() == (d2 / "train.jsonl").read_bytes()
    assert (d1 / "split.json").read_bytes() == (d2 / "split.json").read_bytes()
    train = read_manifest(d1 / "train.jsonl")
    test = read_manifest(d1 / "test.jsonl")
    assert len(train) == 10 and len(test) == 20
    ids = {r.study_id for r in train} | {r.study_id for r in test}
    assert len(ids) == 30


def test_split_view_and_report_filters(tmp_path):
    records = [StudyRecord(study_id=f"f{i}", view="frontal", report_text="x")
               for i in range(8)]
    records += [StudyRecord(study_id=f"l{i}", view="lateral", report_text="x")
                for i in range(4)]
    records += [StudyRecord(study_id=f"e{i}", view="frontal", report_text="  ")
                for i in range(3)]
    write_manifest(records, tmp_path / "in.jsonl")
    assert run("split", "--manifest", tmp_path / "in.jsonl", "--view", "frontal",
               "--require-report", "--sizes", "all=rest", "--seed", 0,
               "--out-dir", tmp_path) == 0
    kept = read_manifest(tmp_path / "all.jsonl")
    assert sorted(r.study_id for r in kept) == [f"f{i}" for i in range(8)]


def test_split_oversubscription_exits_1(tmp_path, capsys):
    _flat_manifest(tmp_path / "in.jsonl", n=5)
    code = run("split", "--manifest", tmp_path / "in.jsonl",
               "--sizes", "train=99", "--out-dir", tmp_path)
    assert code == 1
    assert "available" in capsys.readouterr().err


def test_subset_respects_cap(tmp_path):
    records = []
    for i in range(10):
        labels = [0] * len(PATHOLOGIES)
        labels[i % 2] = 1
        records.append(StudyRecord(study_id=f"s{i}",
                                   labels=LabelVector(tuple(labels))))
    write_manifest(records, tmp_path / "in.jsonl")
    assert run("subset", "--manifest", tmp_path / "in.jsonl", "--cap", 3,
               "--seed", 1, "--out-dir", tmp_path) == 0
    subset = json.loads((tmp_path / "subset.json").read_text())
    counts = {k: v["count"] for k, v in subset["classes"].items()}
    assert counts["atelectasis"] == 3 and counts["cardiomegaly"] == 3
    assert counts["edema"] == 0


# ---------------------------------------------------------------------------
# synth / train
# ---------------------------------------------------------------------------


def test_synth_writes_relative_image_paths(pipeline):
    records = read_manifest(pipeline["data"] / "train.jsonl")
    assert len(records) == 60
    for rec in records:
        assert rec.image_path == f"images/{rec.study_id}.pgm"
        assert (pipeline["data"] / rec.image_path).exists()
        assert rec.labels is not None


def test_train_produces_loadable_checkpoint_and_log(pipeline):
    ckpt = load_checkpoint(pipeline["checkpoint"])
    assert ckpt.step == 40
    assert ckpt.config.seed == 5
    rows = [json.loads(line) for line in
            (pipeline["run"] / "train_log.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == list(range(40))
    report = report_of(pipeline["run"], "train")
    assert report["config_hash"] == ckpt.config_hash
    assert report["seed"] == 5


def test_seed_flag_overrides_config(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "train": {"steps": 4, "dim": 16, "batch_size": 8},
    }))
    assert run("train", "--config", cfg, "--seed", 9,
               "--manifest", pipeline["data"] / "train.jsonl",
               "--out-dir", tmp_path / "o") == 0
    ckpt = load_checkpoint(tmp_path / "o" / "checkpoint.bin")
    assert ckpt.config.seed == 9


def test_train_rerun_byte_identical(pipeline, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert run("train", "--config", pipeline["cfg"], "--seed", 5,
                   "--manifest", pipeline["data"] / "train.jsonl",
                   "--out-dir", d) == 0
    assert (d1 / "checkpoint.bin").read_bytes() == (d2 / "checkpoint.bin").read_bytes()
    assert (d1 / "train_log.jsonl").read_bytes() == (d2 / "train_log.jsonl").read_bytes()
    f1 = runreport_fingerprint(d1 / "run_report_train.json")
    f2 = runreport_fingerprint(d2 / "run_report_train.json")
    assert f1 == f2
    r1, r2 = report_of(d1, "train"), report_of(d2, "train")
    assert r1["content_hash"] == r2["content_hash"]


def test_train_resume_matches_uninterrupted(pipeline, tmp_path):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"train": {"steps": 20, "dim": 16, "batch_size": 8}}))
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"train": {"steps": 40, "dim": 16, "batch_size": 8}}))
    manifest = pipeline["data"] / "train.jsonl"
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", short, "--seed", 5, "--manifest", manifest,
               "--out-dir", a) == 0
    assert run("train", "--config", full, "--seed", 5, "--manifest", manifest,
               "--resume", a / "checkpoint.bin", "--out-dir", a) == 0
    assert run("train", "--config", full, "--seed", 5, "--manifest", manifest,
               "--out-dir", b) == 0
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()


# ---------------------------------------------------------------------------
# zeroshot / probe / eval / exports
# ---------------------------------------------------------------------------


def test_zeroshot_scores_cover_manifest(pipeline, tmp_path):
    assert run("zeroshot", "--checkpoint", pipeline["checkpoint"],
               "--manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 0
    lines = (tmp_path / "zeroshot_scores.csv").read_text().splitlines()
    assert lines[0] == "study_id," + ",".join(PATHOLOGIES)
    assert len(lines) == 1 + 20


def test_probe_fit_and_score(pipeline, tmp_path):
    assert run("probe", "--checkpoint", pipeline["checkpoint"],
               "--manifest", pipeline["data"] / "train.jsonl",
               "--score-manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 0
    model = json.loads((tmp_path / "probe.json").read_text())
    assert np.asarray(model["weights"]).shape == (len(PATHOLOGIES), 16)
    lines = (tmp_path / "probe_scores.csv").read_text().splitlines()
    assert len(lines) == 1 + 20


def _separable_case(tmp_path):
    """Ten studies, each positive for exactly one class, scores dead on."""
    records, rows = [], []
    for i in range(10):
        k = i % len(PATHOLOGIES)
        labels = [0] * len(PATHOLOGIES)
        labels[k] = 1
        records.append(StudyRecord(study_id=f"s{i}",
                                   labels=LabelVector(tuple(labels))))
        rows.append([1.0 if j == k else 0.0 for j in range(len(PATHOLOGIES))])
    write_manifest(records, tmp_path / "labels.jsonl")
    with open(tmp_path / "scores.csv", "w") as fh:
        fh.write("study_id," + ",".join(PATHOLOGIES) + "\n")
        for rec, row in zip(records, rows):
            fh.write(",".join([rec.study_id, *[repr(v) for v in row]]) + "\n")


def test_eval_separable_scores_mean_auc_one(tmp_path):
    _separable_case(tmp_path)
    assert run("eval", "--scores", tmp_path / "scores.csv",
               "--labels", tmp_path / "labels.jsonl", "--out-dir", tmp_path) == 0
    report = report_of(tmp_path, "eval")
    assert report["auc_mean"] == 1.0
    assert all(report["auc"][name] == 1.0 for name in PATHOLOGIES)


def test_eval_uncertain_policy_changes_result(tmp_path):
    labels = [1, 0, -1, 1, 0, 1]
    scores = [0.9, 0.1, 0.05, 0.8, 0.2, 0.7]
    records = []
    for i, v in enumerate(labels):
        vec = [v] + [None] * (len(PATHOLOGIES) - 1)
        records.append(StudyRecord(study_id=f"s{i}", labels=LabelVector(tuple(vec))))
    write_manifest(records, tmp_path / "labels.jsonl")
    with open(tmp_path / "scores.csv", "w") as fh:
        fh.write("study_id," + ",".join(PATHOLOGIES) + "\n")
        for rec, s in zip(records, scores):
            fh.write(",".join([rec.study_id, repr(s), "0.0", "0.0", "0.0", "0.0"]) + "\n")
    results = {}
    for policy in ("exclude", "pos", "neg"):
        out = tmp_path / policy
        assert run("eval", "--scores", tmp_path / "scores.csv",
                   "--labels", tmp_path / "labels.jsonl",
                   "--uncertain-policy", policy, "--out-dir", out) == 0
        results[policy] = report_of(out, "eval")["auc"]["atelectasis"]
    assert results["exclude"] == 1.0
    assert results["pos"] == 0.75
    assert results["neg"] == 1.0
    # the other columns are single-class and therefore undefined
    report = report_of(tmp_path / "exclude", "eval")
    assert report["auc"]["edema"] is None


def test_export_roc_writes_curve_files(pipeline, tmp_path):
    zs = tmp_path / "zs"
    assert run("zeroshot", "--checkpoint", pipeline["checkpoint"],
               "--manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", zs) == 0
    assert run("export-roc", "--scores", zs / "zeroshot_scores.csv",
               "--labels", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 0
    for name in PATHOLOGIES:
        path = tmp_path / f"roc_{name.replace(' ', '_')}.csv"
        assert path.exists()
        assert path.read_text().splitlines()[0] == "fpr,tpr,threshold"


def test_export_embeddings_round_trip(pipeline, tmp_path):
    assert run("export-embeddings", "--checkpoint", pipeline["checkpoint"],
               "--manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 0
    items = load_external_embeddings(tmp_path / "embeddings.bin")
    held = read_manifest(pipeline["data"] / "heldout.jsonl")
    expected = set()
    for rec in held:
        expected.add(f"{rec.study_id}:image")
        expected.add(f"{rec.study_id}:text")
    assert set(items) == expected
    some = items[f"{held[0].study_id}:image"]
    assert some.global_feat.data.shape == (16,)


# ---------------------------------------------------------------------------
# exit codes and argument handling
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_1_with_usage(capsys):
    assert main(["label", "--bogus", "x"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_no_command_exits_1(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True


def test_missing_required_flag_exits_1(capsys):
    assert main(["train"]) == 1
    assert "--manifest" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert run("label", "--manifest", tmp_path / "absent.jsonl",
               "--out-dir", tmp_path) == 2


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert run("synth", "--config", bad, "--out-dir", tmp_path) == 2


def test_malformed_scores_header_exits_2(tmp_path, capsys):
    (tmp_path / "scores.csv").write_text("wrong,header\n")
    _flat_manifest(tmp_path / "labels.jsonl", n=2)
    assert run("eval", "--scores", tmp_path / "scores.csv",
               "--labels", tmp_path / "labels.jsonl",
               "--out-dir", tmp_path) == 2


def test_bad_sizes_value_exits_1(tmp_path, capsys):
    _flat_manifest(tmp_path / "in.jsonl", n=4)
    assert run("split", "--manifest", tmp_path / "in.jsonl",
               "--sizes", "train", "--out-dir", tmp_path) == 1


def test_truncated_checkpoint_exits_2(pipeline, tmp_path, capsys):
    blob = pipeline["checkpoint"].read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(blob[: len(blob) // 2])
    assert run("zeroshot", "--checkpoint", cut,
               "--manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 2


def test_manifest_line_without_study_id_exits_2(tmp_path, capsys):
    manifest = tmp_path / "in.jsonl"
    _flat_manifest(manifest, n=2)
    with open(manifest, "a") as fh:
        fh.write(json.dumps({"view": "frontal", "report": "no id"}) + "\n")
    assert run("label", "--manifest", manifest, "--out-dir", tmp_path) == 2
    assert "line 3" in capsys.readouterr().err


def _drop_arrays(header):
    del header["arrays"]


def _unknown_config_key(header):
    header["config"]["bogus"] = 1


def _rng_without_state(header):
    del header["rng_state"]["state"]


def _negative_shape(header):
    header["arrays"][0]["shape"] = [-1]


def _non_int_shape(header):
    header["arrays"][0]["shape"] = ["a"]


def _trailing_bytes(header):
    return b"junk"


@pytest.mark.parametrize("mutate", [_drop_arrays, _unknown_config_key, _rng_without_state,
                                    _negative_shape, _non_int_shape, _trailing_bytes])
def test_malformed_checkpoint_header_exits_2(pipeline, tmp_path, capsys, mutate):
    # a mutator edits the header in place and may return bytes to append
    blob = pipeline["checkpoint"].read_bytes()
    start = 13  # magic (5 bytes), version and header length (4 bytes each)
    (length,) = struct.unpack_from("<I", blob, start - 4)
    header = json.loads(blob[start : start + length])
    tail = mutate(header) or b""
    raw = json.dumps(header).encode("utf-8")
    body = blob[: start - 4] + struct.pack("<I", len(raw)) + raw + blob[start + length :]
    bad = tmp_path / "bad_header.bin"
    bad.write_bytes(body + tail)
    assert run("zeroshot", "--checkpoint", bad,
               "--manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 2
    assert f"offset {len(body) if tail else start}" in capsys.readouterr().err


def test_module_entry_point_runs():
    # the child gets the import path pytest used, so a bare `pytest` works
    src = str(Path(glre.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "glre.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


def test_runreport_fingerprint_ignores_wall_clock(tmp_path):
    _separable_case(tmp_path)
    d1, d2 = tmp_path / "e1", tmp_path / "e2"
    for d in (d1, d2):
        assert run("eval", "--scores", tmp_path / "scores.csv",
                   "--labels", tmp_path / "labels.jsonl", "--out-dir", d) == 0
    assert runreport_fingerprint(d1 / "run_report_eval.json") == \
        runreport_fingerprint(d2 / "run_report_eval.json")
    r1, r2 = report_of(d1, "eval"), report_of(d2, "eval")
    assert r1["wall_clock_seconds"] > 0 and r2["wall_clock_seconds"] > 0
