"""Span recording around calls into glre's public functions.

The tracer patches module attributes from outside the package: each target
names the module whose namespace the caller looks the function up in, so a
function imported into several modules is wrapped once per caller that the
benchmark wants to see. `uninstall` puts every original back; untraced runs
never call `install`. A target whose attribute no longer exists is reported
as a missing span instead of failing the run.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (span name, module looked up by the caller, attribute)
TARGETS = [
    ("cli.main", "glre.cli", "main"),
    ("trainer.train", "glre.cli", "train"),
    ("encoders.encode_image_patches", "glre.trainer", "encode_image_patches"),
    ("encoders.encode_text_toy", "glre.trainer", "encode_text_toy"),
    ("crossmodal.total_loss", "glre.trainer", "total_loss"),
    ("numerics.backward", "glre.trainer", "backward"),
    ("trainer.optimizer_step", "glre.trainer", "optimizer_step"),
    ("crossmodal.pairwise_scores", "glre.crossmodal", "pairwise_scores"),
    ("encoders.image_patch_matrix", "glre.trainer", "image_patch_matrix"),
    ("encoders.image_patch_matrix", "glre.encoders", "image_patch_matrix"),
    ("encoders.read_pgm", "glre.cli", "read_pgm"),
    ("encoders.read_pgm", "glre.encoders", "read_pgm"),
    ("trainer.save_checkpoint", "glre.cli", "save_checkpoint"),
    ("trainer.load_checkpoint", "glre.cli", "load_checkpoint"),
    ("trainer.load_checkpoint", "glre.trainer", "load_checkpoint"),
    ("classify.image_features", "glre.cli", "image_features"),
    ("classify.image_features", "glre.classify", "image_features"),
    ("classify.zero_shot_scores", "glre.cli", "zero_shot_scores"),
    ("classify.fit_linear_probe", "glre.cli", "fit_linear_probe"),
    ("classify.probe_predict", "glre.cli", "probe_predict"),
    ("metrics.roc_auc", "glre.cli", "roc_auc"),
    ("metrics.retrieval_top1", "glre.metrics", "retrieval_top1"),
    ("datapipe.label_report", "glre.cli", "label_report"),
    ("datapipe.read_manifest", "glre.cli", "read_manifest"),
    ("datapipe.read_manifest", "glre.datapipe", "read_manifest"),
    ("datapipe.write_manifest", "glre.cli", "write_manifest"),
    ("datapipe.make_splits", "glre.cli", "make_splits"),
    ("datapipe.build_single_disease_subset", "glre.cli", "build_single_disease_subset"),
    ("datapipe.synth_paired_dataset", "glre.cli", "synth_paired_dataset"),
]

# glre subcommands whose cli.main self time is reported
COMMANDS = ("synth", "train", "zeroshot", "probe", "eval", "label", "split",
            "subset", "export-roc")

# wrapped functions reported as milliseconds per call
PER_CALL = ("encoders.image_patch_matrix", "encoders.read_pgm",
            "trainer.save_checkpoint", "trainer.load_checkpoint",
            "classify.image_features", "classify.zero_shot_scores",
            "classify.fit_linear_probe", "classify.probe_predict",
            "metrics.roc_auc", "metrics.retrieval_top1",
            "datapipe.label_report", "datapipe.read_manifest",
            "datapipe.write_manifest", "datapipe.make_splits",
            "datapipe.build_single_disease_subset",
            "datapipe.synth_paired_dataset")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    tag: object = None  # cli.main: the subcommand; numerics.backward: len(tape)


class Tracer:
    """In-memory span list; spans are written out once the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, tag=None):
        """A span opened by the benchmark itself."""
        idx = self._open(name, tag)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str, tag) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, tag))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = perf_counter()

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tag = None
            if name == "cli.main" and args and args[0]:
                tag = str(args[0][0])
            elif name == "numerics.backward" and len(args) > 1:
                tag = len(args[1])
            idx = tracer._open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        missing = []
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        self.missing = missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "tag": s.tag} for s in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the span list
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Spans are strictly nested (one thread, one stack), so children never
    overlap and their durations add up.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans whose children lie outside them or add up to more than them."""
    child_total = [0.0] * len(spans)
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                errors.append(f"span {i} {s.name} lies outside parent {p.name}")
            child_total[s.parent] += s.end - s.start
    for i, s in enumerate(spans):
        if child_total[i] > (s.end - s.start):
            errors.append(f"children of span {i} {s.name} exceed it")
    return errors


def _ancestor(spans, i: int, name: str) -> int:
    """Index of the nearest enclosing span called `name`, or -1."""
    p = spans[i].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest of p50..p99.9 with at least ten samples above it, and its value.

    With fewer than twenty samples no such percentile exists; the median is
    reported with percentile 50.
    """
    n = len(values)
    ordered = sorted(values)
    best = 50.0
    for pct in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if round(n * (100.0 - pct) / 100.0, 6) >= 10:
            best = pct
    rank = min(n - 1, int(round(best / 100.0 * (n - 1))))
    return best, ordered[rank]


def layer_metrics(spans: list[Span], n_missing: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Step metrics are averaged over the training steps in the traced passes;
    `*_ms` of a wrapped function is its mean milliseconds per call; a layer
    the workload never enters reads 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def ms(i: int) -> float:
        return 1e3 * (spans[i].end - spans[i].start)

    # training inside a measured pass; set-up (evaluate's checkpoint) is left out
    train_spans = {i for i in by_name.get("trainer.train", [])
                   if _ancestor(spans, i, "bench.pass") >= 0}

    def in_train(name: str) -> list[int]:
        return [i for i in by_name.get(name, [])
                if _ancestor(spans, i, "trainer.train") in train_spans]

    backward = in_train("numerics.backward")
    steps = len(backward)

    def per_step(idx: list[int]) -> float:
        return sum(ms(i) for i in idx) / steps if steps else 0.0

    def per_call(name: str) -> float:
        idx = by_name.get(name, [])
        return sum(ms(i) for i in idx) / len(idx) if idx else 0.0

    # a step runs from the end of the previous optimizer step (or, for the
    # first step of a train() call, from the first encoder call) to the end
    # of its own optimizer step, so it includes the loss-log write
    step_ms: list[float] = []
    for t in sorted(train_spans):
        opt = [i for i in by_name.get("trainer.optimizer_step", []) if spans[i].parent == t]
        enc = [i for i in by_name.get("encoders.encode_image_patches", [])
               if spans[i].parent == t]
        if not opt or not enc:
            continue
        prev = spans[enc[0]].start
        for i in opt:
            step_ms.append(1e3 * (spans[i].end - prev))
            prev = spans[i].end
    tail_pct, tail_ms = tail_percentile(step_ms) if step_ms else (0.0, 0.0)

    retrieval = [i for i in by_name.get("crossmodal.pairwise_scores", [])
                 if _ancestor(spans, i, "crossmodal.total_loss") < 0]

    out: dict[str, tuple[float, str]] = {
        "numerics.tape_records_per_step":
            (sum(spans[i].tag for i in backward) / steps if steps else 0.0, "count"),
        "numerics.backward_ms_per_step": (per_step(backward), "ms"),
        "crossmodal.total_loss_ms_per_step": (per_step(in_train("crossmodal.total_loss")), "ms"),
        "crossmodal.pairwise_scores_ms_per_step":
            (per_step(in_train("crossmodal.pairwise_scores")), "ms"),
        "crossmodal.retrieval_scores_ms":
            (sum(ms(i) for i in retrieval) / len(retrieval) if retrieval else 0.0, "ms"),
        "encoders.encode_ms_per_step":
            (per_step(in_train("encoders.encode_image_patches")
                      + in_train("encoders.encode_text_toy")), "ms"),
        "trainer.optimizer_step_ms_per_step": (per_step(in_train("trainer.optimizer_step")), "ms"),
        "trainer.step_ms_p50": (statistics.median(step_ms) if step_ms else 0.0, "ms"),
        "trainer.step_ms_tail": (tail_ms, "ms"),
        "trainer.step_ms_tail_pct": (tail_pct, "pct"),
        "trainer.step_samples": (float(len(step_ms)), "count"),
        "trainer.train_self_ms":
            (1e3 * sum(own[i] for i in train_spans) / len(train_spans) if train_spans else 0.0,
             "ms"),
    }
    for name in PER_CALL:
        out[f"{name}_ms"] = (per_call(name), "ms")
    for command in COMMANDS:
        idx = [i for i in by_name.get("cli.main", []) if spans[i].tag == command]
        out[f"cli.self_ms.{command}"] = (
            1e3 * sum(own[i] for i in idx) / len(idx) if idx else 0.0, "ms")
    out["trace.missing_spans"] = (float(n_missing), "count")
    return out
