"""End-to-end tests of the command-line pipeline and its exit-code contract."""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import glre
from glre import trainer
from glre.cli import main, runreport_fingerprint
from glre.datapipe import (
    PATHOLOGIES,
    LabelVector,
    StudyRecord,
    default_lexicon,
    label_report,
    read_manifest,
    write_manifest,
)
from glre.encoders import (ImageGrid, encode_image_patches, encode_text_toy, image_patch_matrix,
                           read_pgm, save_embeddings, write_pgm)
from glre.trainer import encode_report, load_checkpoint

from pool_oracle import pool_each


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
    lex = default_lexicon()
    for rec, text in zip(labeled, reports):
        assert rec.labels == label_report(text, lex)


_NAMES = {name: [name] for name in PATHOLOGIES}


def _name_lexicon(**changes):
    """A lexicon payload whose one mention phrase per pathology is its name."""
    base = default_lexicon()
    return {"mentions": _NAMES, "negations": base.negations,
            "uncertainties": base.uncertainties, "negation_window": 6, **changes}


def _write_name_lexicon(path, negation_window=6):
    path.write_text(json.dumps(_name_lexicon(negation_window=negation_window)))


def test_label_with_custom_lexicon(tmp_path):
    records = [StudyRecord(study_id="a", report_text="mild edema is present.")]
    write_manifest(records, tmp_path / "in.jsonl")
    _write_name_lexicon(tmp_path / "lex.json")
    assert run("label", "--manifest", tmp_path / "in.jsonl",
               "--lexicon", tmp_path / "lex.json", "--out-dir", tmp_path) == 0
    labeled = read_manifest(tmp_path / "labeled.jsonl")
    assert labeled[0].labels["edema"] == 1


def test_label_config_hash_covers_negation_window(tmp_path):
    records = [StudyRecord(study_id="a", report_text="no sign of mild edema.")]
    write_manifest(records, tmp_path / "in.jsonl")
    hashes = []
    for window in (6, 1):
        _write_name_lexicon(tmp_path / f"lex{window}.json", negation_window=window)
        out = tmp_path / f"out{window}"
        assert run("label", "--manifest", tmp_path / "in.jsonl",
                   "--lexicon", tmp_path / f"lex{window}.json", "--out-dir", out) == 0
        hashes.append(report_of(out, "label")["config_hash"])
    assert hashes[0] != hashes[1]


def test_label_config_hash_of_default_lexicon_is_pinned(tmp_path):
    # the lexicon's phrase index is no dataclass field, so it is not hashed
    _flat_manifest(tmp_path / "in.jsonl", n=2)
    assert run("label", "--manifest", tmp_path / "in.jsonl", "--out-dir", tmp_path) == 0
    assert report_of(tmp_path, "label")["config_hash"] == (
        "7056cf781fcaceb1a5260a7bf6d1a75fbe1b1baae20aa8ae3a3c230b00bd5546")


@pytest.mark.parametrize("changes, message", [
    ({"mentions": {**_NAMES, "edema": ["..."]}}, "lexicon phrase '...' has no tokens"),
    ({"mentions": {**_NAMES, "edema": ["edema", ""]}}, "lexicon phrase '' has no tokens"),
    ({"negations": ["no", "?"]}, "lexicon phrase '?' has no tokens"),
    ({"uncertainties": ["possible", "--"]}, "lexicon phrase '--' has no tokens"),
    ({"negation_window": -1}, "negation_window must be >= 0, got -1"),
], ids=["mention_dots", "mention_empty", "negation_mark", "uncertainty_dashes",
        "window_negative"])
def test_lexicon_entry_that_could_never_match_exits_1(tmp_path, capsys, changes, message):
    _flat_manifest(tmp_path / "in.jsonl", n=2)
    lex = _write_json(tmp_path / "lex.json", _name_lexicon(**changes))
    assert run("label", "--manifest", tmp_path / "in.jsonl", "--lexicon", lex,
               "--out-dir", tmp_path / "out") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "labeled.jsonl").exists()


@pytest.mark.parametrize("flag, entry, recorded", [
    (None, 3, 3), (5, 3, 5), (5, None, 5), (None, None, None)])
def test_label_run_report_seed_is_the_flag_else_the_config_entry(tmp_path, flag, entry,
                                                                  recorded):
    _flat_manifest(tmp_path / "in.jsonl", n=2)
    cfg = _write_json(tmp_path / "cfg.json", {} if entry is None else {"seed": entry})
    seed = [] if flag is None else ["--seed", flag]
    assert run("label", "--config", cfg, *seed, "--manifest", tmp_path / "in.jsonl",
               "--out-dir", tmp_path) == 0
    assert report_of(tmp_path, "label")["seed"] == recorded


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
    assert report["config_hash"] == ckpt.config.hash()
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


def test_resume_truncates_a_log_that_runs_past_the_checkpoint(pipeline, tmp_path):
    # resuming a step-2 checkpoint into a directory whose log already holds
    # steps 0-3 must leave the log of an uninterrupted 4-step run, not 6 lines
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"train": {"steps": 2, "dim": 16, "batch_size": 8}}))
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"train": {"steps": 4, "dim": 16, "batch_size": 8}}))
    manifest = pipeline["data"] / "train.jsonl"
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", short, "--seed", 5, "--manifest", manifest,
               "--out-dir", a) == 0
    assert run("train", "--config", full, "--seed", 5, "--manifest", manifest,
               "--out-dir", b) == 0
    uninterrupted = (b / "train_log.jsonl").read_bytes()
    assert run("train", "--config", full, "--seed", 5, "--manifest", manifest,
               "--resume", a / "checkpoint.bin", "--out-dir", b) == 0
    assert (b / "train_log.jsonl").read_bytes() == uninterrupted
    assert len(uninterrupted.splitlines()) == 4


class _Killed(Exception):
    """A crash the CLI does not handle, standing in for a killed process."""


def test_resume_after_a_run_killed_between_checkpoints(pipeline, tmp_path, monkeypatch):
    # a resume from step 2 toward step 6 dies in step 4, after logging steps
    # 2-3; resuming the step-2 checkpoint again must still give the
    # uninterrupted run's log and checkpoint, byte for byte
    configs = {}
    for steps in (2, 6):
        configs[steps] = tmp_path / f"steps{steps}.json"
        configs[steps].write_text(json.dumps({"train": {"steps": steps, "dim": 16,
                                                         "batch_size": 8}}))
    manifest = pipeline["data"] / "train.jsonl"
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", configs[6], "--seed", 5, "--manifest", manifest,
               "--out-dir", b) == 0
    assert run("train", "--config", configs[2], "--seed", 5, "--manifest", manifest,
               "--out-dir", a) == 0
    step2 = tmp_path / "step2.bin"
    step2.write_bytes((a / "checkpoint.bin").read_bytes())
    real_step = trainer.optimizer_step

    def killed_in_step_4(params, grads, state, config):
        if state.t == 4:  # Adam has taken one update per finished step
            raise _Killed
        real_step(params, grads, state, config)

    with monkeypatch.context() as patch:
        patch.setattr(trainer, "optimizer_step", killed_in_step_4)
        with pytest.raises(_Killed):
            run("train", "--config", configs[6], "--seed", 5, "--manifest", manifest,
                "--resume", a / "checkpoint.bin", "--out-dir", a)
    assert len((a / "train_log.jsonl").read_bytes().splitlines()) == 4
    assert (a / "checkpoint.bin").read_bytes() == step2.read_bytes()
    assert run("train", "--config", configs[6], "--seed", 5, "--manifest", manifest,
               "--resume", a / "checkpoint.bin", "--out-dir", a) == 0
    for name in ("train_log.jsonl", "checkpoint.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_fresh_run_replaces_a_longer_log(pipeline, tmp_path):
    # a fresh run starts from step 0, so it keeps none of an existing log
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"train": {"steps": 2, "dim": 16, "batch_size": 8}}))
    manifest = pipeline["data"] / "train.jsonl"
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", pipeline["cfg"], "--seed", 5, "--manifest", manifest,
               "--out-dir", a) == 0
    for out in (a, b):
        assert run("train", "--config", short, "--seed", 5, "--manifest", manifest,
                   "--out-dir", out) == 0
    assert (a / "train_log.jsonl").read_bytes() == (b / "train_log.jsonl").read_bytes()
    assert len((a / "train_log.jsonl").read_bytes().splitlines()) == 2


def _train_config(path, steps, **settings):
    return _write_json(path, {"train": {"steps": steps, "dim": 16, "batch_size": 8,
                                        **settings}})


def test_every_logged_step_is_on_disk_when_its_step_ends(pipeline, tmp_path, monkeypatch):
    # a step's line is written and closed before the next step's update, so a
    # second handle sees lines 0..t-1 as step t updates
    log = tmp_path / "out" / "train_log.jsonl"
    on_disk = []
    real_step = trainer.optimizer_step

    def counting_step(params, grads, state, config):
        on_disk.append(len(log.read_bytes().splitlines()))
        real_step(params, grads, state, config)

    monkeypatch.setattr(trainer, "optimizer_step", counting_step)
    assert run("train", "--config", _train_config(tmp_path / "cfg.json", 30), "--seed", 5,
               "--manifest", pipeline["data"] / "train.jsonl", "--out-dir", tmp_path / "out") == 0
    assert on_disk == list(range(30))
    assert len(log.read_bytes().splitlines()) == 30


# each case of a rejected resume returns the manifest to resume on, the
# resume config's changes and the error that must name the rejection


def _other_dim(tmp_path, pipeline):
    return pipeline["data"] / "train.jsonl", {"dim": 8}, "produced under a different configuration"


def _unknown_token_manifest(tmp_path, pipeline):
    """The pipeline's training studies, one report holding a word outside its vocabulary."""
    rows = [json.loads(line) for line in (pipeline["data"] / "train.jsonl").read_text()
            .splitlines()]
    for row in rows:
        row["image_path"] = str(pipeline["data"] / row["image_path"])
    rows[7]["report"] += " zebra"
    (tmp_path / "in.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    return tmp_path / "in.jsonl", {}, "unknown token 'zebra'"


@pytest.mark.parametrize("case", [_other_dim, _unknown_token_manifest],
                         ids=lambda case: case.__name__.lstrip("_"))
def test_rejected_resume_leaves_the_log_as_it_was(pipeline, tmp_path, capsys, case):
    # the log holds steps 0-3 and the checkpoint is at step 2: a resume that
    # cut the log before its inputs were checked would leave 2 lines
    manifest = pipeline["data"] / "train.jsonl"
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", _train_config(tmp_path / "two.json", 2), "--seed", 5,
               "--manifest", manifest, "--out-dir", a) == 0
    assert run("train", "--config", _train_config(tmp_path / "four.json", 4), "--seed", 5,
               "--manifest", manifest, "--out-dir", b) == 0
    before = (b / "train_log.jsonl").read_bytes()
    resume_on, settings, named = case(tmp_path, pipeline)
    cfg = _train_config(tmp_path / "resume.json", 4, **settings)
    capsys.readouterr()
    assert run("train", "--config", cfg, "--seed", 5, "--manifest", resume_on,
               "--resume", a / "checkpoint.bin", "--out-dir", b) == 1
    assert named in capsys.readouterr().err
    assert (b / "train_log.jsonl").read_bytes() == before


def test_zero_steps_cut_the_log_to_the_start_step(pipeline, tmp_path):
    # a fresh zero-step run keeps none of an existing log; a resume with no
    # steps left keeps the checkpoint's steps and no more
    manifest = pipeline["data"] / "train.jsonl"
    a, b = tmp_path / "a", tmp_path / "b"
    two, four = (_train_config(tmp_path / f"{n}.json", n) for n in (2, 4))
    assert run("train", "--config", four, "--seed", 5, "--manifest", manifest,
               "--out-dir", a) == 0
    assert run("train", "--config", _train_config(tmp_path / "zero.json", 0), "--seed", 5,
               "--manifest", manifest, "--out-dir", a) == 0
    assert (a / "train_log.jsonl").read_bytes() == b""

    assert run("train", "--config", two, "--seed", 5, "--manifest", manifest,
               "--out-dir", a) == 0
    assert run("train", "--config", four, "--seed", 5, "--manifest", manifest,
               "--out-dir", b) == 0
    four_steps = (b / "train_log.jsonl").read_bytes()
    assert run("train", "--config", two, "--seed", 5, "--manifest", manifest,
               "--resume", a / "checkpoint.bin", "--out-dir", b) == 0
    assert (b / "train_log.jsonl").read_bytes() == b"".join(four_steps.splitlines(True)[:2])
    assert (b / "checkpoint.bin").read_bytes() == (a / "checkpoint.bin").read_bytes()


@pytest.mark.parametrize("steps", [1, 2])
def test_resume_on_studies_outside_checkpoint_order_exits_1(tmp_path, capsys, steps):
    # after 1 step at B=4 the saved epoch order indexes past the 8 studies
    # resumed on; after 2 it sits at their end and would reshuffle over them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"n_train": 20, "n_heldout": 2},
                               "train": {"steps": steps, "dim": 8, "batch_size": 4}}))
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps({"train": {"steps": 5, "dim": 8, "batch_size": 4}}))
    data = tmp_path / "data"
    assert run("synth", "--config", cfg, "--seed", 3, "--out-dir", data) == 0
    lines = (data / "train.jsonl").read_text().splitlines(keepends=True)
    (data / "first8.jsonl").write_text("".join(lines[:8]))
    assert run("train", "--config", cfg, "--seed", 3, "--manifest", data / "train.jsonl",
               "--out-dir", tmp_path / "a") == 0
    assert run("train", "--config", longer, "--seed", 3, "--manifest", data / "first8.jsonl",
               "--resume", tmp_path / "a" / "checkpoint.bin", "--out-dir", tmp_path / "b") == 1
    assert "epoch order covers 20 studies" in capsys.readouterr().err


def test_resume_past_configured_steps_exits_1(tmp_path, capsys, monkeypatch):
    # a checkpoint at step 5 resumed with "steps": 2 would otherwise come back
    # stamped step 2 while holding the step-5 parameters and moments
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"n_train": 20, "n_heldout": 2},
                               "train": {"steps": 5, "dim": 8, "batch_size": 4}}))
    shorter = tmp_path / "shorter.json"
    shorter.write_text(json.dumps({"train": {"steps": 2, "dim": 8, "batch_size": 4}}))
    data = tmp_path / "data"
    assert run("synth", "--config", cfg, "--seed", 3, "--out-dir", data) == 0
    assert run("train", "--config", cfg, "--seed", 3, "--manifest", data / "train.jsonl",
               "--out-dir", tmp_path / "a") == 0
    capsys.readouterr()

    def no_pooling(*args):
        raise AssertionError("an image was pooled")

    monkeypatch.setattr(trainer, "image_patch_matrix", no_pooling)
    assert run("train", "--config", shorter, "--seed", 3, "--manifest", data / "train.jsonl",
               "--resume", tmp_path / "a" / "checkpoint.bin", "--out-dir", tmp_path / "b") == 1
    assert "checkpoint is at step 5, past the 2 steps configured" in capsys.readouterr().err
    assert not (tmp_path / "b" / "checkpoint.bin").exists()


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


def test_eval_reports_kept_class_counts_per_pathology(tmp_path):
    # atelectasis holds 1, 0, -1, 1, 0, 1; the other columns are blank, which
    # counts as negative, so their AUC is undefined but their counts are not
    labels = [1, 0, -1, 1, 0, 1]
    records = [StudyRecord(study_id=f"s{i}",
                           labels=LabelVector((v,) + (None,) * (len(PATHOLOGIES) - 1)))
               for i, v in enumerate(labels)]
    write_manifest(records, tmp_path / "labels.jsonl")
    with open(tmp_path / "scores.csv", "w") as fh:
        fh.write("study_id," + ",".join(PATHOLOGIES) + "\n")
        for i in range(len(labels)):
            fh.write(f"s{i}," + ",".join([repr(0.1 * i)] * len(PATHOLOGIES)) + "\n")
    for policy, pos, neg in (("exclude", 3, 2), ("pos", 4, 2), ("neg", 3, 3)):
        out = tmp_path / policy
        assert run("eval", "--scores", tmp_path / "scores.csv",
                   "--labels", tmp_path / "labels.jsonl",
                   "--uncertain-policy", policy, "--out-dir", out) == 0
        report = report_of(out, "eval")
        assert report["class_counts"]["atelectasis"] == {"n_pos": pos, "n_neg": neg}
        for name in PATHOLOGIES[1:]:
            assert report["auc"][name] is None
            assert report["class_counts"][name] == {"n_pos": 0, "n_neg": 6}
        assert set(report["auc"]) == set(report["class_counts"]) == set(PATHOLOGIES)


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
    ckpt = load_checkpoint(pipeline["checkpoint"])
    items = {}
    for rec in read_manifest(pipeline["data"] / "heldout.jsonl"):
        image = ImageGrid(read_pgm(pipeline["data"] / rec.image_path),
                          region_grid=ckpt.config.region_grid)
        patches = image_patch_matrix(image, ckpt.params.patch_pool)
        items[f"{rec.study_id}:image"] = encode_image_patches([patches], ckpt.params)
        seq = encode_report(rec.report_text, ckpt.vocab, ckpt.config)
        items[f"{rec.study_id}:text"] = encode_text_toy(seq, ckpt.params)
    save_embeddings(tmp_path / "expected.bin", items)
    assert (tmp_path / "embeddings.bin").read_bytes() == \
        (tmp_path / "expected.bin").read_bytes()


def test_export_embeddings_failure_leaves_no_file(pipeline, tmp_path, capsys):
    # the id is checked while the file's bytes are built, after earlier records
    records = read_manifest(pipeline["data"] / "heldout.jsonl")
    records[-1].study_id = "s" * 0x10000
    for rec in records:
        rec.image_path = str(pipeline["data"] / rec.image_path)
    write_manifest(records, tmp_path / "long_id.jsonl")
    out = tmp_path / "out"
    assert run("export-embeddings", "--checkpoint", pipeline["checkpoint"],
               "--manifest", tmp_path / "long_id.jsonl", "--out-dir", out) == 1
    assert "too long" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_export_embeddings_unknown_token_names_study_and_manifest(pipeline, tmp_path, capsys):
    manifest, _, named = _unknown_token_manifest(tmp_path, pipeline)
    study_id = json.loads(manifest.read_text().splitlines()[7])["study_id"]
    assert run("export-embeddings", "--checkpoint", pipeline["checkpoint"],
               "--manifest", manifest, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert all(part in err for part in (named, repr(study_id), str(manifest))), err
    assert list((tmp_path / "out").iterdir()) == []


def _changed_study(tmp_path, pipeline, split, **fields):
    """The split's studies with absolute image paths, the fourth one's `fields` replaced;
    returns the manifest and that study's id."""
    rows = [json.loads(line) for line in (pipeline["data"] / f"{split}.jsonl").read_text()
            .splitlines()]
    for row in rows:
        row["image_path"] = str(pipeline["data"] / row["image_path"])
    rows[3].update(fields)
    (tmp_path / "changed.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    return tmp_path / "changed.jsonl", rows[3]["study_id"]


_IMAGE_PROBLEMS = [
    ("probe", None, "has no image"),
    ("train", None, "has no image"),
    ("probe", (3, 3), "cannot pool 1x1 block to 8x8"),
    *((command, (24, 25), "image 24x25 not divisible by region grid 3x3")
      for command in ("zeroshot", "probe", "export-embeddings", "train")),
]


@pytest.mark.parametrize("command, shape, named", _IMAGE_PROBLEMS, ids=[
    f"{command}-{'x'.join(map(str, shape)) if shape else 'no_image'}"
    for command, shape, _ in _IMAGE_PROBLEMS])
def test_image_problem_exits_1_before_any_output_naming_study_and_file(
        pipeline, tmp_path, capsys, command, shape, named):
    # probe's study is on its --score-manifest, whose features come after the fit's
    pgm = None if shape is None else tmp_path / "bad.pgm"
    if pgm is not None:
        write_pgm(pgm, np.zeros(shape))
    manifest, study_id = _changed_study(tmp_path, pipeline, "train" if command == "train" else
                                        "heldout", image_path=pgm and str(pgm))
    ckpt = ["--checkpoint", pipeline["checkpoint"]]
    argv = {"zeroshot": ["zeroshot", *ckpt, "--manifest", manifest],
            "probe": ["probe", *ckpt, "--manifest", pipeline["data"] / "train.jsonl",
                      "--score-manifest", manifest],
            "export-embeddings": ["export-embeddings", *ckpt, "--manifest", manifest],
            "train": ["train", "--config", pipeline["cfg"], "--manifest", manifest]}[command]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"study {study_id!r} of {manifest}" in err and named in err, err
    assert pgm is None or f"{pgm}: " in err, err
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", ["probe", "eval"])
def test_study_without_labels_exits_1_naming_it_and_its_manifest(pipeline, tmp_path, capsys,
                                                                 command):
    manifest, study_id = _changed_study(tmp_path, pipeline, "heldout", labels=None)
    if command == "probe":
        argv = ["probe", "--checkpoint", pipeline["checkpoint"], "--manifest", manifest]
    else:
        ids = [json.loads(line)["study_id"] for line in manifest.read_text().splitlines()]
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join([",".join(["study_id", *PATHOLOGIES]),
                                     *(f"{sid},0.1,0.2,0.3,0.4,0.5" for sid in ids)]) + "\n")
        argv = ["eval", "--scores", scores, "--labels", manifest]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    assert f"study {study_id!r} of {manifest} has no labels" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_zeroshot_prompt_outside_the_vocabulary_exits_1_naming_the_prompts_file(
        pipeline, tmp_path, capsys):
    prompts = _write_json(tmp_path / "prompts.json",
                          {p: [p] for p in PATHOLOGIES} | {"edema": ["zzz unknownword"]})
    assert run("zeroshot", "--checkpoint", pipeline["checkpoint"],
               "--manifest", pipeline["data"] / "heldout.jsonl", "--prompts", prompts,
               "--out-dir", tmp_path / "out") == 1
    assert f"{prompts}: unknown token 'zzz'" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def _mixed_size_manifest(pipeline, split, out_dir):
    """The split's studies, every other one with a 48x48 image in place of its 24x24 one."""
    rng = np.random.default_rng(48)
    rows = [json.loads(line) for line in (pipeline["data"] / f"{split}.jsonl").read_text()
            .splitlines()]
    for row in rows[1::2]:
        pixels = np.kron(read_pgm(pipeline["data"] / row["image_path"]), np.ones((2, 2)))
        row["image_path"] = f"{row['study_id']}-48.pgm"
        write_pgm(out_dir / row["image_path"], np.clip(pixels + rng.normal(0, 0.1, (48, 48)), 0, 1))
    for row in rows[::2]:
        row["image_path"] = str(pipeline["data"] / row["image_path"])
    (out_dir / f"{split}.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    return out_dir / f"{split}.jsonl"


def test_mixed_image_sizes_score_as_when_pooled_one_by_one(pipeline, tmp_path, monkeypatch):
    # each size is pooled in its own stacked call; the outputs must be the
    # bytes that pooling every image in its own call gives
    (tmp_path / "data").mkdir()
    train, heldout = (_mixed_size_manifest(pipeline, split, tmp_path / "data")
                      for split in ("train", "heldout"))
    ckpt = pipeline["checkpoint"]
    commands = [
        ("zeroshot", "--checkpoint", ckpt, "--manifest", heldout),
        ("probe", "--checkpoint", ckpt, "--manifest", train, "--score-manifest", heldout),
        ("export-embeddings", "--checkpoint", ckpt, "--manifest", heldout),
    ]

    def outputs(out_dir):
        for argv in commands:
            assert run(*argv, "--out-dir", out_dir) == 0
        return {name: (out_dir / name).read_bytes() for name in (
            "zeroshot_scores.csv", "probe.json", "probe_scores.csv", "embeddings.bin")}

    batched = outputs(tmp_path / "batched")
    monkeypatch.setattr(glre.encoders, "image_patch_matrix", pool_each)
    assert outputs(tmp_path / "one_by_one") == batched
    sizes = {read_pgm(tmp_path / "data" / json.loads(line)["image_path"]).shape
             for line in heldout.read_text().splitlines()}
    assert sizes == {(24, 24), (48, 48)}


def test_images_are_pooled_in_one_call_per_chunk(pipeline, tmp_path, monkeypatch):
    # training pools its corpus in one call, image_features in one call per chunk of
    # synth's 24 x 24 images; a return to one pooling call per image would show here first
    step = glre.encoders.CHUNK_PIXELS // (24 * 24)
    sizes = []

    def counting(real):
        def pool(images, patch_pool):
            sizes.append(len(images))
            return real(images, patch_pool)
        return pool

    monkeypatch.setattr(trainer, "image_patch_matrix", counting(trainer.image_patch_matrix))
    assert run("train", "--config", _train_config(tmp_path / "cfg.json", 2), "--seed", 5,
               "--manifest", pipeline["data"] / "train.jsonl", "--out-dir", tmp_path / "t") == 0
    assert sizes == [60]
    sizes.clear()
    monkeypatch.setattr(glre.encoders, "image_patch_matrix",
                        counting(glre.encoders.image_patch_matrix))
    assert run("probe", "--checkpoint", pipeline["checkpoint"],
               "--manifest", pipeline["data"] / "train.jsonl",
               "--score-manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path / "p") == 0
    assert run("zeroshot", "--checkpoint", pipeline["checkpoint"],
               "--manifest", pipeline["data"] / "heldout.jsonl", "--out-dir", tmp_path / "z") == 0
    assert 2 * step < 60 and sizes == [step, step, 60 - 2 * step, 20, 20]


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
    out = capsys.readouterr().out
    for name in ("label", "split", "subset", "synth", "train", "probe", "zeroshot", "eval",
                 "export-embeddings", "export-roc"):
        assert re.search(rf"^ +{name} +\S", out, re.MULTILINE), name  # its help line


def test_a_second_main_call_builds_no_parser(monkeypatch, capsys):
    assert main([]) == 1  # the first call in a process may build it
    built = []
    build = glre.cli._Parser.__init__
    monkeypatch.setattr(glre.cli._Parser, "__init__",
                        lambda self, *args, **kw: built.append(self) or build(self, *args, **kw))
    assert main([]) == 1 and main(["label"]) == 1 and main(["--help"]) == 0
    assert built == []


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


def test_scores_error_gives_the_line_in_the_file(tmp_path, capsys):
    # the first row's quoted study id spans two lines, so the short row is line 4
    scores = tmp_path / "scores.csv"
    scores.write_text(",".join(["study_id", *PATHOLOGIES]) + '\n"a\nb",1,1,1,1,1\nc,1,1,1,1\n')
    _flat_manifest(tmp_path / "labels.jsonl", n=2)
    assert run("eval", "--scores", scores, "--labels", tmp_path / "labels.jsonl",
               "--out-dir", tmp_path) == 2
    assert f"{scores}: line 4: expected 6 fields, got 5" in capsys.readouterr().err


def test_bad_sizes_value_exits_1(tmp_path, capsys):
    _flat_manifest(tmp_path / "in.jsonl", n=4)
    assert run("split", "--manifest", tmp_path / "in.jsonl",
               "--sizes", "train", "--out-dir", tmp_path) == 1


@pytest.mark.parametrize("spec, named", [
    ("train=2,train=3", "--sizes names split 'train' twice"),
    (",", "--sizes named no splits"),
], ids=["repeated", "empty"])
def test_sizes_that_name_a_split_twice_or_none_exit_1(tmp_path, capsys, spec, named):
    _flat_manifest(tmp_path / "in.jsonl", n=6)
    out = tmp_path / "out"
    assert run("split", "--manifest", tmp_path / "in.jsonl", "--sizes", spec,
               "--out-dir", out) == 1
    assert named in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["eval", "export-roc"])
def test_scores_that_repeat_a_study_exit_1_naming_both_lines(tmp_path, capsys, command):
    # a repeated row would count that study's labels twice
    _separable_case(tmp_path)
    scores = tmp_path / "scores.csv"
    lines = scores.read_text().splitlines(keepends=True)
    scores.write_text("".join(lines + lines[2:3]))
    out = tmp_path / "out"
    assert run(command, "--scores", scores, "--labels", tmp_path / "labels.jsonl",
               "--out-dir", out) == 1
    assert f"scores {scores} line 12: study_id 's1' repeats line 3" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_export_roc_with_single_class_labels_exits_1(tmp_path, capsys):
    records = [StudyRecord(study_id=f"s{i}", labels=LabelVector((0,) * len(PATHOLOGIES)))
               for i in range(4)]
    write_manifest(records, tmp_path / "labels.jsonl")
    (tmp_path / "scores.csv").write_text("".join(
        ",".join(row) + "\n" for row in [["study_id", *PATHOLOGIES],
                                         *([r.study_id, *"01010"] for r in records)]))
    assert run("export-roc", "--scores", tmp_path / "scores.csv",
               "--labels", tmp_path / "labels.jsonl", "--out-dir", tmp_path / "out") == 1
    assert "no pathology had both label classes present" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_export_embeddings_of_nothing_exits_1(pipeline, tmp_path, capsys):
    # no image and a blank report: the study has no entry to export
    write_manifest([StudyRecord(study_id="empty", report_text="  ")], tmp_path / "in.jsonl")
    assert run("export-embeddings", "--checkpoint", pipeline["checkpoint"],
               "--manifest", tmp_path / "in.jsonl", "--out-dir", tmp_path / "out") == 1
    assert "no images or reports to export" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_train_batch_size_1_exits_1_naming_it(pipeline, tmp_path, capsys, monkeypatch):
    # InfoNCE over one pair has no negatives: every loss is 0 and nothing trains
    cfg = _write_json(tmp_path / "cfg.json", {"train": {"steps": 2, "dim": 8, "batch_size": 1}})
    monkeypatch.setattr(glre.cli, "read_pgm", lambda path: pytest.fail(f"read {path}"))
    assert run("train", "--config", cfg, "--manifest", pipeline["data"] / "train.jsonl",
               "--out-dir", tmp_path / "out") == 1
    assert "batch_size must be >= 2, got 1" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_train_with_a_vocab_size_the_dataset_lacks_exits_1(pipeline, tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json",
                      {"train": {"steps": 2, "dim": 8, "batch_size": 4, "vocab_size": 3}})
    vocab = len(load_checkpoint(pipeline["checkpoint"]).vocab)
    assert run("train", "--config", cfg, "--manifest", pipeline["data"] / "train.jsonl",
               "--out-dir", tmp_path / "out") == 1
    assert f"config expects vocabulary of 3, dataset has {vocab}" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def _checkpoint_with_header(path, header: bytes, header_len: int):
    """A GLCK1 file of version 3 whose header is `header`, with a valid SHA-256 trailer."""
    body = b"GLCK1" + struct.pack("<II", 3, header_len) + header
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


@pytest.mark.parametrize("header, header_len, named", [
    (b'{"step": 0}', 64, "truncated checkpoint header"),
    (b'{"step": \xff}', 11, "unreadable checkpoint header"),
], ids=["truncated", "not_utf8"])
def test_checkpoint_header_past_the_trailer_or_unreadable_exits_2(pipeline, tmp_path, capsys,
                                                                  header, header_len, named):
    ckpt = _checkpoint_with_header(tmp_path / "bad.bin", header, header_len)
    assert run("zeroshot", "--checkpoint", ckpt,
               "--manifest", pipeline["data"] / "heldout.jsonl", "--out-dir", tmp_path / "out") == 2
    assert f"{ckpt}: {named}" in capsys.readouterr().err


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


@pytest.mark.parametrize("fields, named", [
    ({"view": "sideways"}, "sideways"),
    ({"labels": [2, 0, 0, 0, 0]}, "label 2"),
    ({"labels": [1, 0]}, "expected 5 labels, got 2"),
], ids=["view", "label", "label_count"])
def test_manifest_value_of_right_type_outside_its_range_exits_1(tmp_path, capsys, fields,
                                                                 named):
    manifest = tmp_path / "in.jsonl"
    _flat_manifest(manifest, n=2)
    with open(manifest, "a") as fh:
        fh.write(json.dumps({"study_id": "x", "view": "frontal", **fields}) + "\n")
    assert run("label", "--manifest", manifest, "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert named in err and f"manifest {manifest} line 3: " in err


@pytest.mark.parametrize("command", ["label", "split"])
def test_repeated_study_id_exits_1_naming_both_lines(tmp_path, capsys, command):
    manifest = tmp_path / "in.jsonl"
    lines = [{"study_id": "a", "view": "frontal", "report": "first"},
             {"study_id": "b", "view": "frontal", "report": "other"},
             {"study_id": "a", "view": "lateral", "report": "second"}]
    manifest.write_text("".join(json.dumps(line) + "\n" for line in lines))
    sizes = ["--sizes", "all=rest"] if command == "split" else []
    assert run(command, "--manifest", manifest, *sizes, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "'a'" in err and "line 3" in err and "line 1" in err
    assert not list((tmp_path / "out").glob("*.jsonl"))


# a JSON escape from \ud800 to \udfff decodes to a lone surrogate, which no UTF-8
# output can hold: the manifest is malformed, whichever command reads it
@pytest.mark.parametrize("command, field", [
    ("zeroshot", "study_id"), ("probe", "study_id"), ("export-embeddings", "study_id"),
    ("split", "study_id"), ("zeroshot", "image_path"), ("label", "report"),
], ids=lambda value: value)
def test_manifest_string_holding_a_lone_surrogate_exits_2_naming_its_line(
        pipeline, tmp_path, capsys, command, field):
    data, ckpt = pipeline["data"], pipeline["checkpoint"]
    rows = [json.loads(line) for line in (data / "heldout.jsonl").read_text().splitlines()]
    for row in rows:
        row["image_path"] = str(data / row["image_path"])
    rows[1][field] = "\ud800"
    bad = tmp_path / "bad.jsonl"
    text = "".join(json.dumps(row) + "\n" for row in rows)
    assert "\\ud800" in text
    # escapes are case-insensitive in JSON
    bad.write_text(text.replace("\\ud800", "\\uD800") if command == "label" else text)
    argv = {"zeroshot": ["zeroshot", "--checkpoint", ckpt, "--manifest", bad],
            "probe": ["probe", "--checkpoint", ckpt, "--manifest", data / "train.jsonl",
                      "--score-manifest", bad],
            "export-embeddings": ["export-embeddings", "--checkpoint", ckpt, "--manifest", bad],
            "split": ["split", "--manifest", bad, "--sizes", "all=rest"],
            "label": ["label", "--manifest", bad]}[command]
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    assert f"{bad}: line 2: {field!r} holds a lone surrogate" in capsys.readouterr().err
    assert not list((tmp_path / "out").iterdir())


def test_manifest_escaped_surrogate_pair_reads_as_its_character(tmp_path):
    manifest = tmp_path / "in.jsonl"
    manifest.write_text('{"study_id": "s\\ud83d\\ude00", "view": "frontal", '
                        '"report": "no edema \\uD83D\\uDE00."}\n')
    assert run("label", "--manifest", manifest, "--out-dir", tmp_path) == 0
    [rec] = read_manifest(tmp_path / "labeled.jsonl")
    assert (rec.study_id, rec.report_text) == ("s\U0001f600", "no edema \U0001f600.")
    assert rec.labels["edema"] == 0


def _lone_surrogate_prompt(tmp_path, pipeline, bad):
    _write_json(bad, {p: [p] for p in PATHOLOGIES} | {"edema": ["\ud800 edema"]})
    return ["zeroshot", "--checkpoint", pipeline["checkpoint"],
            "--manifest", pipeline["data"] / "heldout.jsonl", "--prompts", bad]


def _lexicon_with_negation(cue):
    def case(tmp_path, pipeline, bad):
        lexicon = asdict(default_lexicon())
        lexicon["negations"].append(cue)
        _write_json(bad, lexicon)
        return ["label", "--manifest", pipeline["data"] / "heldout.jsonl", "--lexicon", bad]
    return case


def _config_view(view):
    def case(tmp_path, pipeline, bad):
        _write_json(bad, {"view": view})
        return ["split", "--manifest", pipeline["data"] / "heldout.jsonl",
                "--sizes", "all=rest", "--config", bad]
    return case


def _lone_surrogate_config_lexicon_path(tmp_path, pipeline, bad):
    _write_json(bad, {"lexicon": str(tmp_path / "lex\ud800.json")})
    return ["label", "--manifest", pipeline["data"] / "heldout.jsonl", "--config", bad]


@pytest.mark.parametrize("case", [_lone_surrogate_prompt, _lexicon_with_negation("n\ud800"),
                                  _config_view("fr\ud800"), _lone_surrogate_config_lexicon_path],
                         ids=["prompt", "lexicon_negation", "config_view", "config_lexicon_path"])
def test_json_input_string_holding_a_lone_surrogate_exits_2_naming_its_file(
        pipeline, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    argv = case(tmp_path, pipeline, bad)
    assert "\\ud800" in bad.read_text()  # json.dumps writes the escape
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    assert f"{bad}: a string holds a lone surrogate" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*"))  # a config is read before out/ is made


@pytest.mark.parametrize("case", [_lexicon_with_negation("n\U0001f600"),
                                  _config_view("frontal\U0001f600")],
                         ids=["lexicon_negation", "config_view"])
def test_json_input_escaped_surrogate_pair_is_accepted(pipeline, tmp_path, case):
    bad = tmp_path / "pair.json"
    argv = case(tmp_path, pipeline, bad)
    assert "\\ud83d\\ude00" in bad.read_text()
    assert run(*argv, "--out-dir", tmp_path / "out") == 0


def _drop_arrays(header):
    del header["arrays"]


def _unknown_config_key(header):
    header["config"]["bogus"] = 1


def _rng_without_state(header):
    del header["rng_state"]["state"]


def _fractional_rng_inc(header):
    # numpy's state setter would take 1.5 as 1
    header["rng_state"]["state"]["inc"] = 1.5


def _negative_rng_inc(header):
    header["rng_state"]["state"]["inc"] = -1


def _negative_shape(header):
    header["arrays"][0]["shape"] = [-1]


def _non_int_shape(header):
    header["arrays"][0]["shape"] = ["a"]


def _trailing_bytes(header):
    return b"junk"


def _flattened_patch_proj(header):
    # same element count, so the byte layout still matches the header
    meta = next(m for m in header["arrays"] if m["name"] == "param/patch_proj")
    meta["shape"] = [meta["shape"][0] * meta["shape"][1]]


def _string_step(header):
    header["step"] = "5"


def _string_pointer(header):
    header["pointer"] = "x"


def _string_adam_t(header):
    header["adam_t"] = "x"


def _bool_adam_t(header):
    header["adam_t"] = True


def _negative_pointer(header):
    header["pointer"] = -1


def _fractional_order_entry(header):
    header["order"][0] = 0.5


def _order_not_a_list(header):
    header["order"] = {}


def _arrays_out_of_order(header):
    header["arrays"][:2] = header["arrays"][1::-1]


@pytest.mark.parametrize("mutate", [_drop_arrays, _unknown_config_key, _rng_without_state,
                                    _fractional_rng_inc, _negative_rng_inc,
                                    _negative_shape, _non_int_shape, _trailing_bytes,
                                    _flattened_patch_proj, _string_step, _string_pointer,
                                    _string_adam_t, _bool_adam_t, _negative_pointer,
                                    _fractional_order_entry, _order_not_a_list,
                                    _arrays_out_of_order])
def test_malformed_checkpoint_header_exits_2(pipeline, tmp_path, capsys, mutate):
    # a mutator edits the header in place and may return bytes to append; the
    # file is signed again, so the edit reaches the check made for it
    blob = pipeline["checkpoint"].read_bytes()[:-32]  # without the SHA-256 trailer
    start = 13  # magic (5 bytes), version and header length (4 bytes each)
    (length,) = struct.unpack_from("<I", blob, start - 4)
    header = json.loads(blob[start : start + length])
    tail = mutate(header) or b""
    raw = json.dumps(header).encode("utf-8")
    body = blob[: start - 4] + struct.pack("<I", len(raw)) + raw + blob[start + length :]
    bad = tmp_path / "bad_header.bin"
    bad.write_bytes(body + tail + hashlib.sha256(body + tail).digest())
    assert run("zeroshot", "--checkpoint", bad,
               "--manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 2
    assert f"offset {len(body) if tail else start}" in capsys.readouterr().err


@pytest.mark.parametrize("part", ["param", "adam_m", "adam_v"])
def test_checkpoint_with_a_flipped_payload_bit_exits_2(pipeline, tmp_path, capsys, part):
    # the payload is the parameters, then adam_m, then adam_v, in three equal
    # thirds; one flipped bit in the middle of a third breaks the file's
    # digest, which the 32-byte trailer holds
    blob = bytearray(pipeline["checkpoint"].read_bytes())
    (length,) = struct.unpack_from("<I", blob, 9)
    start = 13 + length
    trailer = len(blob) - 32
    third = (trailer - start) // 3
    blob[start + ("param", "adam_m", "adam_v").index(part) * third + third // 2] ^= 0x10
    bad = tmp_path / "flipped.bin"
    bad.write_bytes(bytes(blob))
    assert run("zeroshot", "--checkpoint", bad,
               "--manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert "SHA-256" in err and f"offset {trailer}" in err
    assert not (tmp_path / "zeroshot_scores.csv").exists()


@pytest.mark.parametrize("part", ["param", "adam_m"])
def test_checkpoint_with_a_signed_non_finite_payload_value_exits_2(pipeline, tmp_path, capsys,
                                                                   part):
    # a NaN written into a third of the payload and signed again passes the digest,
    # so only the loader's check of the values keeps it out
    blob = bytearray(pipeline["checkpoint"].read_bytes()[:-32])
    (length,) = struct.unpack_from("<I", blob, 9)
    start = 13 + length
    at = start + ("param", "adam_m").index(part) * (len(blob) - start) // 3 + 8 * 5
    blob[at : at + 8] = struct.pack("<d", float("nan"))
    bad = tmp_path / "nan.bin"
    bad.write_bytes(bytes(blob) + hashlib.sha256(blob).digest())
    assert run("zeroshot", "--checkpoint", bad,
               "--manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{bad}: checkpoint {part} payload holds a non-finite value" in err
    assert f"offset {at}" in err
    assert not (tmp_path / "zeroshot_scores.csv").exists()


@pytest.mark.parametrize("version", [1, 2])
def test_older_checkpoint_version_exits_2(pipeline, tmp_path, capsys, version):
    blob = bytearray(pipeline["checkpoint"].read_bytes())
    blob[5:9] = struct.pack("<I", version)
    old = tmp_path / "old.bin"
    old.write_bytes(bytes(blob))
    assert run("zeroshot", "--checkpoint", old,
               "--manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 2
    assert f"version {version} is not supported (expected 3)" in capsys.readouterr().err


def test_checkpoint_with_a_changed_rng_state_digit_exits_2(pipeline, tmp_path, capsys):
    # the header is under the digest too: one changed digit of the stored
    # PCG64 increment would otherwise resume on a different random stream
    blob = pipeline["checkpoint"].read_bytes()
    (length,) = struct.unpack_from("<I", blob, 9)
    inc = json.loads(blob[13 : 13 + length])["rng_state"]["state"]["inc"]
    digits = str(inc).encode()
    at = blob.index(digits, 13) + len(digits) // 2
    changed = bytes([b"0123456789"[(blob[at] - ord("0") + 1) % 10]])
    bad = tmp_path / "changed_inc.bin"
    bad.write_bytes(blob[:at] + changed + blob[at + 1 :])
    assert run("zeroshot", "--checkpoint", bad,
               "--manifest", pipeline["data"] / "heldout.jsonl",
               "--out-dir", tmp_path) == 2
    assert "SHA-256" in capsys.readouterr().err
    assert not (tmp_path / "zeroshot_scores.csv").exists()


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


# each case writes its inputs and returns (argv, text the error must name)


def _setting(command, section, named, name):
    """`command` run with `section` as its config section; the error names `named`."""
    def case(tmp_path, pipeline):
        cfg = _write_json(tmp_path / "cfg.json", {command: section})
        flags = {"train": ["--manifest", pipeline["data"] / "train.jsonl"],
                 "probe": ["--checkpoint", pipeline["checkpoint"],
                           "--manifest", pipeline["data"] / "train.jsonl"],
                 "zeroshot": ["--checkpoint", pipeline["checkpoint"],
                              "--manifest", pipeline["data"] / "heldout.jsonl"]}
        return [command, "--config", cfg, *flags.get(command, [])], named
    case.__name__ = name
    return case


def _unknown_section_key(command):
    return _setting(command, {"bogus": 1}, "bogus", f"unknown_{command}_key")


def _train_loss(loss, name, named="weight_global_i2t"):
    return _setting("train", {"steps": 3, "loss": loss}, named, f"train_loss_{name}")


def _top_level(command, payload):
    """`command` run with `payload` as its whole config; the error names its key."""
    (named, value), = payload.items()

    def case(tmp_path, pipeline):
        _flat_manifest(tmp_path / "in.jsonl", n=2)
        cfg = _write_json(tmp_path / "cfg.json", payload)
        manifest = [] if command == "synth" else ["--manifest", tmp_path / "in.jsonl"]
        return [command, "--config", cfg, *manifest], named
    case.__name__ = f"{command}_{named}_{type(value).__name__}"
    return case


def _lexicon_file(payload, name=None, named="lex.json"):
    def case(tmp_path, pipeline):
        _flat_manifest(tmp_path / "in.jsonl", n=2)
        lex = _write_json(tmp_path / "lex.json", payload)
        return ["label", "--manifest", tmp_path / "in.jsonl", "--lexicon", lex], named
    case.__name__ = f"lexicon_{name or type(payload).__name__}"
    return case


def _prompts_list(tmp_path, pipeline):
    prompts = _write_json(tmp_path / "prompts.json", [["atelectasis"]])
    return ["zeroshot", "--checkpoint", pipeline["checkpoint"],
            "--manifest", pipeline["data"] / "heldout.jsonl",
            "--prompts", prompts], "prompts.json"


def _prompts_file(name, **classes):
    """The default prompts with `classes` replaced, as a zeroshot --prompts file."""
    def case(tmp_path, pipeline):
        payload = {p: [p] for p in PATHOLOGIES} | classes
        prompts = _write_json(tmp_path / "prompts.json", payload)
        return ["zeroshot", "--checkpoint", pipeline["checkpoint"],
                "--manifest", pipeline["data"] / "heldout.jsonl",
                "--prompts", prompts], "prompts.json"
    case.__name__ = f"prompts_{name}"
    return case


def _path_entry(command, key):
    """`command` with the path entry `key` set to a number in its config."""
    def case(tmp_path, pipeline):
        cfg = _write_json(tmp_path / "cfg.json", {key: 5})
        given = {"checkpoint": pipeline["checkpoint"],
                 "manifest": pipeline["data"] / "heldout.jsonl"}
        needs = {"label": ["manifest"], "train": ["manifest"],
                 "zeroshot": ["checkpoint", "manifest"]}[command]
        flags = [x for k in needs if k != key for x in (f"--{k}", given[k])]
        return [command, "--config", cfg, *flags], repr(key)
    case.__name__ = f"{command}_{key}_int"
    return case


def _manifest_line(name=None, **fields):
    def case(tmp_path, pipeline):
        _flat_manifest(tmp_path / "in.jsonl", n=2)
        with open(tmp_path / "in.jsonl", "a") as fh:
            fh.write(json.dumps({"study_id": "bad", "view": "frontal", **fields}) + "\n")
        return ["label", "--manifest", tmp_path / "in.jsonl"], "in.jsonl: line 3"
    case.__name__ = f"manifest_{name or '_'.join(fields)}"
    return case


def _manifest_unknown_key(tmp_path, pipeline):
    argv, _ = _manifest_line(labls=[1, 0, 0, 0, 0])(tmp_path, pipeline)
    return argv, "in.jsonl: line 3: unknown key 'labls'"


@pytest.mark.parametrize("case", [
    _unknown_section_key("train"),
    _unknown_section_key("synth"),
    _unknown_section_key("probe"),
    _unknown_section_key("zeroshot"),
    _setting("zeroshot", {"global_weight": "high"}, "global_weight", "zeroshot_text_weight"),
    _train_loss([1], "list", "'loss'"),
    _train_loss({"weight_global_i2t": "abc"}, "weight_abc"),
    _train_loss({"weight_global_i2t": "1"}, "weight_str_number"),
    _train_loss({"weight_global_i2t": True}, "weight_bool"),
    _setting("train", {"dim": "8"}, "dim", "train_dim_str"),
    _setting("train", {"batch_size": 2.5}, "batch_size", "train_batch_size_float"),
    _setting("train", {"steps": 2.5}, "steps", "train_steps_float"),
    _setting("train", {"seed": True}, "seed", "train_seed_bool"),
    _setting("train", {"use_positions": "yes"}, "use_positions", "train_use_positions_str"),
    _setting("train", {"vocab_size": "40"}, "vocab_size", "train_vocab_size_str"),
    _setting("train", {"region_grid": [3]}, "region_grid", "train_region_grid_one"),
    _setting("train", {"region_grid": [3, 1.5]}, "region_grid", "train_region_grid_float"),
    _setting("probe", {"epochs": 2.5}, "epochs", "probe_epochs_float"),
    _setting("synth", {"n_train": 2.5}, "n_train", "synth_n_train_float"),
    _setting("synth", {"n_heldout": "9"}, "n_heldout", "synth_n_heldout_str"),
    _setting("synth", {"n_classes": True}, "n_classes", "synth_n_classes_bool"),
    _setting("synth", {"image_size": 24.0}, "image_size", "synth_image_size_float"),
    _setting("synth", {"region_grid": [3, "3"]}, "region_grid", "synth_region_grid_str"),
    _setting("synth", {"region_grid": 3}, "region_grid", "synth_region_grid_int"),
    _top_level("synth", {"seed": [1]}),
    _top_level("subset", {"cap": {"a": 1}}),
    _top_level("split", {"sizes": 5}),
    _top_level("split", {"sizes": {"a": "x"}}),
    _lexicon_file({}),
    _lexicon_file([]),
    _lexicon_file({"mentions": [], "negations": [], "uncertainties": []}, "mentions_list"),
    _lexicon_file({"mentions": {"edema": [1]}, "negations": [], "uncertainties": []},
                  "mention_not_str"),
    _lexicon_file({"mentions": {}, "negations": [], "uncertainties": [],
                   "negation_window": "6"}, "window_str"),
    _lexicon_file(_name_lexicon(mentions={**_NAMES, "Edema": ["edema"]}), "mention_key_unknown",
                  "lex.json: lexicon mentions: unknown key 'Edema'"),
    _prompts_list,
    _prompts_file("class_int", atelectasis=5),
    _prompts_file("prompt_int", edema=["x", 1]),
    _prompts_file("class_str", edema="edema"),
    _manifest_line(study_id=5),
    _manifest_line(view=5),
    _manifest_line("label_true", labels=[True, 0, 0, 0, 0]),
    _manifest_line("label_float", labels=[0, 0, 1.0, 0, 0]),
    _manifest_line(report=5),
    _manifest_line(labels=5),
    _manifest_line("image_path_int", image_path=5),
    _manifest_line("image_path_list", image_path=["x"]),
    _manifest_line("label_list", labels=[[1], 0, 0, 0, 0]),
    _manifest_line("label_object", labels=[{"a": 1}, 0, 0, 0, 0]),
    _manifest_unknown_key,
    _path_entry("label", "manifest"),
    _path_entry("zeroshot", "checkpoint"),
    _path_entry("zeroshot", "prompts"),
    _path_entry("train", "resume"),
], ids=lambda case: case.__name__.lstrip("_"))
def test_malformed_json_input_exits_2(pipeline, tmp_path, capsys, case):
    argv, named = case(tmp_path, pipeline)
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["manifest", "config", "prompts", "lexicon"])
def test_json_input_nested_past_the_recursion_limit_exits_2(pipeline, tmp_path, capsys, kind):
    bad = tmp_path / "bad"
    deep = "[" * 5000
    held, ckpt = pipeline["data"] / "heldout.jsonl", pipeline["checkpoint"]
    bad.write_text({"manifest": held.read_text() + f'{{"study_id": "x", "report": {deep}\n',
                    "config": f'{{"synth": {deep}',
                    "prompts": f'{{"edema": {deep}',
                    "lexicon": f'{{"mentions": {deep}'}[kind])
    argv = {"manifest": ["split", "--manifest", bad, "--sizes", "all=rest"],
            "config": ["synth", "--config", bad],
            "prompts": ["zeroshot", "--checkpoint", ckpt, "--manifest", held,
                        "--prompts", bad],
            "lexicon": ["label", "--manifest", held, "--lexicon", bad]}[kind]
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "maximum recursion depth exceeded" in err and f"{bad}: " in err
    if kind == "manifest":
        assert f"{bad}: line {len(held.read_text().splitlines()) + 1}: " in err


@pytest.mark.parametrize("kind", ["manifest", "config", "prompts", "lexicon", "scores"])
def test_input_file_that_is_not_utf8_exits_2(pipeline, tmp_path, capsys, kind):
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"a": "\xff"}\n')
    held, ckpt = pipeline["data"] / "heldout.jsonl", pipeline["checkpoint"]
    argv = {"manifest": ["label", "--manifest", bad],
            "config": ["label", "--config", bad, "--manifest", held],
            "prompts": ["zeroshot", "--checkpoint", ckpt, "--manifest", held,
                        "--prompts", bad],
            "lexicon": ["label", "--manifest", held, "--lexicon", bad],
            "scores": ["eval", "--scores", bad, "--labels", held]}[kind]
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "can't decode byte 0xff" in err and f"{bad}: " in err


# each case writes one damaged input and returns the command that reads it and
# the start of the message, the damaged file's path, that stderr must hold


def _damaged_pgm(name, damage):
    """zeroshot over one held-out study whose image has gone through `damage`."""
    def case(tmp_path, pipeline):
        row = json.loads((pipeline["data"] / "heldout.jsonl").read_text().splitlines()[0])
        pgm = tmp_path / "bad.pgm"
        pgm.write_bytes(damage((pipeline["data"] / row["image_path"]).read_bytes()))
        _write_json(tmp_path / "one.jsonl", {**row, "image_path": "bad.pgm"})
        return ["zeroshot", "--checkpoint", pipeline["checkpoint"],
                "--manifest", tmp_path / "one.jsonl"], f"{pgm.resolve()}: "
    case.__name__ = f"pgm_{name}"
    return case


def _damaged_checkpoint(name, damage):
    def case(tmp_path, pipeline):
        ckpt = tmp_path / "bad.bin"
        ckpt.write_bytes(damage(pipeline["checkpoint"].read_bytes()))
        return ["zeroshot", "--checkpoint", ckpt,
                "--manifest", pipeline["data"] / "heldout.jsonl"], f"{ckpt}: "
    case.__name__ = f"checkpoint_{name}"
    return case


def _manifest_syntax_line_3(tmp_path, pipeline):
    manifest = tmp_path / "in.jsonl"
    _flat_manifest(manifest, n=2)
    with open(manifest, "a") as fh:
        fh.write('{"study_id": "x", "view": }\n')
    return ["label", "--manifest", manifest], f"{manifest}: line 3 column 27: Expecting value"


def _bad_text(kind, name, text):
    """The command reading a `kind` file that holds `text`."""
    def case(tmp_path, pipeline):
        bad = tmp_path / f"bad.{kind}"
        bad.write_text(text)
        held, ckpt = pipeline["data"] / "heldout.jsonl", pipeline["checkpoint"]
        argv = {"config": ["synth", "--config", bad],
                "prompts": ["zeroshot", "--checkpoint", ckpt, "--manifest", held,
                            "--prompts", bad],
                "lexicon": ["label", "--manifest", held, "--lexicon", bad],
                "scores": ["eval", "--scores", bad, "--labels", held]}[kind]
        return argv, f"{bad}: "
    case.__name__ = f"{kind}_{name}"
    return case


@pytest.mark.parametrize("case", [
    _damaged_pgm("bad_header", lambda blob: b"P6" + blob[2:]),
    _damaged_pgm("truncated_raster", lambda blob: blob[:-1]),
    _damaged_checkpoint("bad_magic", lambda blob: b"XLCK1" + blob[5:]),
    _damaged_checkpoint("flipped_digest", lambda blob: blob[:-1] + bytes([blob[-1] ^ 1])),
    _manifest_syntax_line_3,
    _bad_text("config", "trailing_comma", '{"seed": 1,}'),
    _bad_text("config", "setting_type", '{"synth": {"n_train": 2.5}}'),
    _bad_text("prompts", "trailing_comma", '{"edema": ["edema"],}'),
    _bad_text("lexicon", "missing_value", '{"mentions": }'),
    _bad_text("scores", "field_past_csv_limit", "study_id," + "x" * 200_000 + "\n"),
], ids=lambda case: case.__name__.lstrip("_"))
def test_malformed_input_file_exits_2_naming_it(pipeline, tmp_path, capsys, case):
    argv, named = case(tmp_path, pipeline)
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["zeroshot", "train", "export-embeddings"])
def test_text_without_tokens_exits_1_naming_it(pipeline, tmp_path, capsys, command):
    data = pipeline["data"]
    if command == "zeroshot":
        prompts = _write_json(tmp_path / "prompts.json",
                              {p: [p] for p in PATHOLOGIES} | {"edema": ["edema", "..."]})
        argv = ["zeroshot", "--checkpoint", pipeline["checkpoint"],
                "--manifest", data / "heldout.jsonl", "--prompts", prompts]
        named = ["'...'", "'edema'"]
    else:
        rows = [json.loads(line) for line in (data / "train.jsonl").read_text().splitlines()[:4]]
        for row in rows:
            row["image_path"] = str(data / row["image_path"])
        rows[2]["report"] = "..."
        (tmp_path / "in.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        argv = [command, "--manifest", tmp_path / "in.jsonl"]
        if command == "export-embeddings":
            argv += ["--checkpoint", pipeline["checkpoint"]]
        named = [f"study {rows[2]['study_id']!r} of {tmp_path / 'in.jsonl'} has no report tokens"]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert all(name in err for name in named), err


@pytest.mark.parametrize("case", [
    _setting("train", {"patch_pool": 0}, "patch_pool", "train_patch_pool_0"),
    _setting("train", {"max_length": 0}, "max_length", "train_max_length_0"),
    _setting("train", {"region_grid": [0, 3]}, "region_grid", "train_region_grid_0"),
    _setting("train", {"learning_rate": float("nan")}, "learning_rate", "train_lr_nan"),
    _setting("train", {"epsilon": float("inf")}, "epsilon", "train_epsilon_inf"),
    _setting("train", {"init_scale": float("nan")}, "init_scale", "train_init_scale_nan"),
    _train_loss({"tau_global": float("nan")}, "tau_nan", "tau_global"),
    _train_loss({"weight_local_t2i": float("-inf")}, "weight_minus_inf", "weight_local_t2i"),
    _setting("probe", {"learning_rate": float("nan")}, "learning_rate", "probe_lr_nan"),
    _setting("zeroshot", {"global_weight": float("nan")}, "global_weight",
             "zeroshot_weight_nan"),
    _setting("synth", {"noise": float("nan")}, "noise", "synth_noise_nan"),
    _setting("synth", {"background": float("inf")}, "background", "synth_background_inf"),
    _setting("synth", {"region_grid": [0, 3]}, "region_grid", "synth_region_grid_0"),
    _setting("synth", {"n_train": -1}, "n_train", "synth_n_train_negative"),
    _setting("synth", {"image_size": 0}, "image_size", "synth_image_size_0"),
    _top_level("split", {"sizes": {"a": -3}}),
], ids=lambda case: case.__name__)
def test_bad_setting_value_exits_1_before_reading_images(pipeline, tmp_path, capsys,
                                                         monkeypatch, case):
    argv, named = case(tmp_path, pipeline)
    monkeypatch.setattr(glre.cli, "read_pgm", lambda path: pytest.fail(f"read {path}"))
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out" / "images").exists()


# each case is (command, config entry, value); the command's other settings are valid
_WRONG_TYPES = [("split", "view", 5), ("split", "require_report", "false"),
                ("split", "sizes", None), ("split", "sizes", 3), ("subset", "cap", None),
                ("subset", "cap", True), ("eval", "uncertain_policy", 5), ("label", "out", 5)]


@pytest.mark.parametrize("command, key, value", _WRONG_TYPES,
                         ids=[f"{c}-{k}-{json.dumps(v)}" for c, k, v in _WRONG_TYPES])
def test_config_entry_of_wrong_type_exits_2_naming_it(tmp_path, capsys, command, key, value):
    _separable_case(tmp_path)
    flags = {"split": ["--manifest", tmp_path / "labels.jsonl", "--sizes", "all=rest"],
             "subset": ["--manifest", tmp_path / "labels.jsonl", "--cap", 1],
             "eval": ["--scores", tmp_path / "scores.csv", "--labels", tmp_path / "labels.jsonl"],
             "label": ["--manifest", tmp_path / "labels.jsonl"]}[command]
    if key in ("sizes", "cap"):
        flags = flags[:2]  # the config entry is the only source of the setting
    cfg = _write_json(tmp_path / "cfg.json", {key: value})
    assert run(command, "--config", cfg, *flags, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{cfg}: config entry {key!r}" in err, err
    assert not (tmp_path / "out" / f"run_report_{command}.json").exists()


@pytest.mark.parametrize("command, missing", [
    ("label", "--manifest"),
    ("split", "--sizes"),
    ("subset", "--cap"),
    ("zeroshot", "--checkpoint"),
    ("eval", "--scores"),
    ("eval", "--labels"),
])
def test_missing_required_setting_exits_1(tmp_path, capsys, command, missing):
    _separable_case(tmp_path)
    given = {"--manifest": tmp_path / "labels.jsonl", "--labels": tmp_path / "labels.jsonl",
             "--scores": tmp_path / "scores.csv", "--sizes": "all=rest", "--cap": 1}
    needs = {"label": ["--manifest"], "split": ["--manifest", "--sizes"],
             "subset": ["--manifest", "--cap"], "zeroshot": ["--checkpoint", "--manifest"],
             "eval": ["--scores", "--labels"]}[command]
    flags = [x for flag in needs if flag != missing for x in (flag, given[flag])]
    # the config gives other settings, so the lookup reads it and still finds nothing
    cfg = _write_json(tmp_path / "cfg.json", {"seed": 1, "view": "frontal"})
    assert run(command, "--config", cfg, *flags, "--out-dir", tmp_path / "out") == 1
    assert f"{missing} is required (pass the flag or set it in --config)" in \
        capsys.readouterr().err


# a section setting that also has a flag is the flag, else the section's entry,
# else the top-level entry, else the default; each case gives some of the
# three (None: not given) and the value that must win


@pytest.mark.parametrize("flag, section, top, winner", [
    (9, 8, 7, 9), (None, 8, 7, 8), (9, None, 7, 9), (9, 8, None, 9),
    (None, None, 7, 7), (None, 8, None, 8), (9, None, None, 9), (None, None, None, 0),
])
def test_train_seed_is_flag_then_section_then_top_level(pipeline, tmp_path, flag, section,
                                                        top, winner):
    train = {"steps": 1, "dim": 8, "batch_size": 4} | ({"seed": section} if section else {})
    cfg = _write_json(tmp_path / "cfg.json", {"train": train} | ({"seed": top} if top else {}))
    flags = ["--seed", flag] if flag else []
    assert run("train", "--config", cfg, *flags, "--manifest", pipeline["data"] / "train.jsonl",
               "--out-dir", tmp_path / "out") == 0
    assert report_of(tmp_path / "out", "train")["seed"] == winner
    assert load_checkpoint(tmp_path / "out" / "checkpoint.bin").config.seed == winner


@pytest.mark.parametrize("flag, section, top, winner", [
    ("pos", "neg", "exclude", "pos"), (None, "neg", "pos", "neg"), ("pos", None, "neg", "pos"),
    ("neg", "pos", None, "neg"), (None, None, "pos", "pos"), (None, "pos", None, "pos"),
    ("neg", None, None, "neg"), (None, None, None, "exclude"),
])
def test_probe_uncertain_policy_is_flag_then_section_then_top_level(pipeline, tmp_path, flag,
                                                                    section, top, winner):
    probe = {"epochs": 1} | ({"uncertain_policy": section} if section else {})
    cfg = _write_json(tmp_path / "cfg.json",
                      {"probe": probe} | ({"uncertain_policy": top} if top else {}))
    flags = ["--uncertain-policy", flag] if flag else []
    assert run("probe", "--config", cfg, *flags, "--checkpoint", pipeline["checkpoint"],
               "--manifest", pipeline["data"] / "train.jsonl", "--out-dir", tmp_path / "out") == 0
    model = json.loads((tmp_path / "out" / "probe.json").read_text())
    assert model["metadata"]["uncertain_policy"] == winner


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
