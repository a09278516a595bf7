"""The benchmark's uses of the package must keep working.

perfbench/tracing.py patches glre functions by module and attribute name and
reports a missing one as a missing span rather than failing, so a rename or
deletion in glre would silently zero a per-layer metric. The first test
fails instead. perfbench/workloads.py calls glre's scoring API itself; the
second test runs that call on a tiny checkpoint. The third labels the curate
workload's generated reports with glre's labeler, call by call and through one
shared sentence memo, and with the per-phrase scan it replaced, which must
agree. The fourth counts the calls `glre label` makes to the function the
datapipe.label_report span wraps: one per record, so the span cannot read 0.
The fifth counts the calls `glre train` makes to the functions the
trainer.optimizer_step and numerics.backward spans wrap: one of each per step.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import glre.cli
from glre.datapipe import default_lexicon, label_report

import label_oracle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def _load(monkeypatch, name, path):
    """The perfbench module at `path`, loaded by path as `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_callable_in_glre(monkeypatch):
    tracing = _load(monkeypatch, "perfbench_tracing", TRACING)
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for _, module, attr in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_retrieval_workload_runs_on_a_trained_checkpoint(monkeypatch, tmp_path):
    # the evaluate workload drives glre's scoring API directly, so an API
    # change that breaks it fails here rather than as a failed benchmark op
    workloads = _load(monkeypatch, "perfbench_workloads", WORKLOADS)
    (tmp_path / "synth.json").write_text(json.dumps({"synth": {"n_train": 12, "n_heldout": 5}}))
    (tmp_path / "train.json").write_text(json.dumps({"train": {"steps": 2, "batch_size": 4}}))
    data = tmp_path / "data"
    workloads.glre_cli("synth", "--seed", 3, "--config", tmp_path / "synth.json",
                       "--out-dir", data)
    workloads.glre_cli("train", "--seed", 3, "--config", tmp_path / "train.json",
                       "--manifest", data / "train.jsonl", "--out-dir", tmp_path / "run")
    scores = workloads.retrieval_scores(tmp_path / "run" / "checkpoint.bin",
                                        data / "heldout.jsonl")
    assert scores.shape == (5, 5)
    assert np.all(np.isfinite(scores))


def test_curate_reports_label_as_the_per_phrase_scan_labels_them(monkeypatch):
    workloads = _load(monkeypatch, "perfbench_workloads", WORKLOADS)
    studies, _ = workloads.curation_manifest(7, workloads.SIZES["tiny"])
    lexicon = default_lexicon()
    reports = [row["report"] for row in studies]
    assert any(reports)
    expected = [label_oracle.label_report(text, lexicon) for text in reports]
    assert [label_report(text, lexicon) for text in reports] == expected
    seen = {}
    assert [label_report(text, lexicon, seen) for text in reports] == expected


def test_glre_label_calls_the_traced_labeler_once_per_record(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "perfbench_workloads", WORKLOADS)
    studies, _ = workloads.curation_manifest(7, workloads.SIZES["tiny"])
    workloads._write_jsonl(studies, tmp_path / "studies.jsonl")
    tracing = _load(monkeypatch, "perfbench_tracing", TRACING)
    assert ("datapipe.label_report", "glre.cli", "label_report") in tracing.TARGETS
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return label_report(*args, **kwargs)

    monkeypatch.setattr(glre.cli, "label_report", counted)
    workloads.glre_cli("label", "--manifest", tmp_path / "studies.jsonl",
                       "--out-dir", tmp_path / "out")
    assert calls == [row["report"] for row in studies]


def test_glre_train_calls_the_traced_step_functions_once_per_step(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "perfbench_workloads", WORKLOADS)
    tracing = _load(monkeypatch, "perfbench_tracing", TRACING)
    calls = {"trainer.optimizer_step": [], "numerics.backward": []}
    for name, module_name, attr in tracing.TARGETS:
        if name in calls:
            module = importlib.import_module(module_name)

            def counted(*args, _calls=calls[name], _original=getattr(module, attr), **kwargs):
                _calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
    (tmp_path / "synth.json").write_text(json.dumps({"synth": {"n_train": 12, "n_heldout": 0}}))
    (tmp_path / "train.json").write_text(json.dumps({"train": {"steps": 3, "batch_size": 4}}))
    data = tmp_path / "data"
    workloads.glre_cli("synth", "--seed", 3, "--config", tmp_path / "synth.json",
                       "--out-dir", data)
    workloads.glre_cli("train", "--seed", 3, "--config", tmp_path / "train.json",
                       "--manifest", data / "train.jsonl", "--out-dir", tmp_path / "run")
    assert [len(c) for c in calls.values()] == [3, 3]
    # the tracer tags each backward span with len(args[1]), the tape's record count
    assert all(len(args[1]) > 0 for args in calls["numerics.backward"])
