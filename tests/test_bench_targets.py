"""The benchmark's uses of the package must keep working.

perfbench/tracing.py patches glre functions by module and attribute name and
reports a missing one as a missing span rather than failing, so a rename or
deletion in glre would silently zero a per-layer metric. The first test
fails instead. perfbench/workloads.py calls glre's scoring API itself; the
second test runs that call on a tiny checkpoint.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def test_every_traced_target_is_a_callable_in_glre(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for _, module, attr in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_retrieval_workload_runs_on_a_trained_checkpoint(monkeypatch, tmp_path):
    # the evaluate workload drives glre's scoring API directly, so an API
    # change that breaks it fails here rather than as a failed benchmark op
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
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
