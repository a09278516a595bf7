"""The three benchmark workloads: their inputs, operations and output checks.

Every input is made from the workload seed: the synthetic paired corpus by
`glre synth --seed`, the curation manifest, true labels and scores CSV by
the generator below. glre only ever sees the generated files. Each workload
is one list of operations (a "pass"); the runner repeats passes in a closed
loop with one caller, so each operation ends before the next one starts.

Why these three:
- train-b16 runs `glre train` at the default config (B=16, D=64, 3x3
  regions). Training is ~92% of the pipeline's time and nearly all of it is
  tape recording and pairwise scoring, so any tape or scoring change shows.
  100 steps per call keep the per-call PGM reads and pooling to a minor
  share of the call, and leave the model past its initial loss plateau.
- evaluate scores a checkpoint forward-only: zero-shot (a small pair batch
  per image), linear probe (pooling for 700 images), retrieval (one large
  200x200 pair batch) and two evals. Tape-bookkeeping changes should read
  "no change" here; a shared scoring kernel or pooling rewrite should move it.
- curate runs the report-side tools on ~3.4k report-only studies. It never
  enters numerics, crossmodal or encoders, so every training or scoring
  change should read "no change"; datapipe, metrics and cli edits show here.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import glre.classify
import glre.cli
import glre.crossmodal
import glre.datapipe
import glre.encoders
import glre.metrics
import glre.trainer

PATHOLOGIES = ("atelectasis", "cardiomegaly", "consolidation", "edema", "pleural effusion")


class OpFailed(Exception):
    """An operation exited non-zero, raised, or failed an output check."""


@dataclass
class Sizes:
    """Input sizes; `full` is the benchmark, `tiny` the self-test."""

    n_train: int = 500
    n_heldout: int = 200
    train_steps: int = 100
    ckpt_batch: int = 8
    ckpt_steps: int = 200
    n_frontal: int = 3279
    n_lateral: int = 70
    n_empty: int = 50
    split_train: int = 2552
    split_test: int = 727
    subset_cap: int = 62


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(n_train=40, n_heldout=20, train_steps=3, ckpt_batch=4,
                  ckpt_steps=4, n_frontal=100, n_lateral=5, n_empty=5,
                  split_train=78, split_test=22, subset_cap=5),
}


@dataclass
class Op:
    """One program operation of a pass.

    `run(pass_dir)` makes the program call(s) and is the only timed part.
    `check(pass_dir, result)` verifies the outputs, raising OpFailed, and
    returns the bytes that must repeat exactly on every pass plus any
    quality values read from the outputs.
    """

    kind: str
    run: Callable[[Path], object]
    check: Callable[[Path, object], tuple[bytes, dict]]


def glre_cli(*argv) -> None:
    """Run one `glre` subcommand in-process; non-zero exit is a failure.

    `glre.cli.main` is looked up on every call so a traced pass sees the
    wrapped function.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = glre.cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"glre {argv[0]} exited {code}: {err.getvalue().strip()}")


def _need(path: Path) -> Path:
    if not path.is_file():
        raise OpFailed(f"expected output {path.name} is missing")
    return path


def _read_scores_csv(path: Path, rows: int) -> bytes:
    blob = _need(path).read_bytes()
    lines = list(csv.reader(io.StringIO(blob.decode())))
    if lines[0] != ["study_id", *PATHOLOGIES] or len(lines) != rows + 1:
        raise OpFailed(f"{path.name}: expected header and {rows} rows, got {len(lines) - 1}")
    values = np.array([[float(v) for v in line[1:]] for line in lines[1:]])
    if not np.all(np.isfinite(values)):
        raise OpFailed(f"{path.name} holds non-finite scores")
    return blob


def _eval_report(out_dir: Path) -> tuple[bytes, dict]:
    report = json.loads(_need(out_dir / "run_report_eval.json").read_text())
    aucs = report.get("auc") or {}
    if report.get("auc_mean") is None or not all(
            v is not None and math.isfinite(v) for v in aucs.values()):
        raise OpFailed(f"eval report has undefined or non-finite AUCs: {aucs}")
    return json.dumps(aucs, sort_keys=True).encode(), report


class Workload:
    name = ""
    setup_repeats = 5  # set-up time is the median of this many set-ups

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def setup(self, root: Path) -> None:
        raise NotImplementedError

    def ops(self, root: Path) -> list[Op]:
        raise NotImplementedError

    def items_per_pass(self) -> int:
        raise NotImplementedError

    def details(self, op_s: dict[str, float], quality: dict) -> dict:
        """The workload's named end-to-end figures: name -> (value, unit)."""
        raise NotImplementedError

    def quality(self, quality: dict) -> float:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# train-b16
# ---------------------------------------------------------------------------


def _synth(root: Path, seed: int, sizes: Sizes) -> None:
    cfg = root / "synth.json"
    cfg.write_text(json.dumps({"synth": {"n_train": sizes.n_train,
                                         "n_heldout": sizes.n_heldout}}))
    glre_cli("synth", "--seed", seed, "--config", cfg, "--out-dir", root / "data")


def studies_consumed(n: int, batch: int, steps: int) -> int:
    """Studies one run of train() feeds through the encoders (its batching rule)."""
    pointer, total = 0, 0
    for _ in range(steps):
        if n - pointer < 2:
            pointer = 0
        take = min(batch, n - pointer)
        pointer += take
        total += take
    return total


class TrainB16(Workload):
    name = "train-b16"
    batch = 16  # TrainConfig default

    def setup(self, root: Path) -> None:
        _synth(root, self.seed, self.sizes)
        (root / "train.json").write_text(
            json.dumps({"train": {"steps": self.sizes.train_steps}}))

    def ops(self, root: Path) -> list[Op]:
        steps = self.sizes.train_steps

        def run(pass_dir: Path):
            glre_cli("train", "--seed", self.seed, "--config", root / "train.json",
                     "--manifest", root / "data" / "train.jsonl",
                     "--out-dir", pass_dir / "run")

        def check(pass_dir: Path, _):
            ckpt = _need(pass_dir / "run" / "checkpoint.bin").read_bytes()
            log = _need(pass_dir / "run" / "train_log.jsonl").read_bytes()
            rows = [json.loads(line) for line in log.decode().splitlines()]
            if len(rows) != steps:
                raise OpFailed(f"train_log.jsonl has {len(rows)} rows for {steps} steps")
            if not all(math.isfinite(v) for row in rows for k, v in row.items() if k != "step"):
                raise OpFailed("train_log.jsonl holds a non-finite loss")
            tail = max(1, steps // 10)
            final = sum(row["total"] for row in rows[-tail:]) / tail
            return ckpt + b"\0" + log, {"train_loss_final": final}

        return [Op("train", run, check)]

    def items_per_pass(self) -> int:
        return studies_consumed(self.sizes.n_train, self.batch, self.sizes.train_steps)

    def details(self, op_s, quality):
        return {
            "train_samples_per_s": (self.items_per_pass() / op_s["train"], "1/s"),
            "train_loss_final": (quality["train_loss_final"], "nats"),
        }

    def quality(self, quality):
        # chance-level loss over the loss reached: the four InfoNCE terms of
        # a model that cannot tell pairs apart each cost ln(B)
        return 4.0 * math.log(self.batch) / quality["train_loss_final"]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _attach_images(records, manifest: Path, region_grid) -> None:
    base = manifest.parent
    for rec in records:
        pixels = glre.encoders.read_pgm(base / rec.image_path)
        rec.image = glre.encoders.ImageGrid(pixels, region_grid=tuple(region_grid))


def retrieval_scores(checkpoint: Path, manifest: Path) -> np.ndarray:
    """Mixed global/local image-to-text scores over all held-out pairs."""
    ckpt = glre.trainer.load_checkpoint(checkpoint)
    held = glre.datapipe.read_manifest(manifest)
    _attach_images(held, manifest, ckpt.config.region_grid)
    imgs = glre.classify.image_features(held, ckpt)
    txts = [glre.encoders.encode_text_toy(
                glre.trainer.encode_report(r.report_text, ckpt.vocab, ckpt.config),
                ckpt.params)
            for r in held]
    g, l = glre.crossmodal.pairwise_scores(imgs, txts, ckpt.config.loss)
    return 0.5 * g.numpy() + 0.5 * l.numpy()


class Evaluate(Workload):
    name = "evaluate"
    setup_repeats = 3  # each set-up trains a checkpoint

    def setup(self, root: Path) -> None:
        _synth(root, self.seed, self.sizes)
        cfg = root / "ckpt.json"
        cfg.write_text(json.dumps({"train": {"batch_size": self.sizes.ckpt_batch,
                                             "steps": self.sizes.ckpt_steps}}))
        glre_cli("train", "--seed", self.seed, "--config", cfg,
                 "--manifest", root / "data" / "train.jsonl", "--out-dir", root / "ckpt")

    def ops(self, root: Path) -> list[Op]:
        ckpt = root / "ckpt" / "checkpoint.bin"
        train, held = root / "data" / "train.jsonl", root / "data" / "heldout.jsonl"
        n = self.sizes.n_heldout

        def zeroshot(pass_dir: Path):
            glre_cli("zeroshot", "--checkpoint", ckpt, "--manifest", held,
                     "--out-dir", pass_dir / "zs")

        def check_zeroshot(pass_dir: Path, _):
            return _read_scores_csv(pass_dir / "zs" / "zeroshot_scores.csv", n), {}

        def probe(pass_dir: Path):
            glre_cli("probe", "--checkpoint", ckpt, "--manifest", train,
                     "--score-manifest", held, "--out-dir", pass_dir / "probe")

        def check_probe(pass_dir: Path, _):
            model = _need(pass_dir / "probe" / "probe.json").read_bytes()
            scores = _read_scores_csv(pass_dir / "probe" / "probe_scores.csv", n)
            return model + b"\0" + scores, {}

        def retrieval(pass_dir: Path):
            scores = retrieval_scores(ckpt, held)
            return scores, glre.metrics.retrieval_top1(scores)

        def check_retrieval(pass_dir: Path, result):
            scores, top1 = result
            if scores.shape != (n, n) or not np.all(np.isfinite(scores)):
                raise OpFailed(f"retrieval scores are not a finite {n}x{n} matrix")
            return scores.tobytes(), {"retrieval_top1_mean": top1["mean"]}

        def evaluator(tag: str, scores: str):
            def run(pass_dir: Path):
                glre_cli("eval", "--scores", pass_dir / scores, "--labels", held,
                         "--out-dir", pass_dir / f"{tag}_eval")

            def check(pass_dir: Path, _):
                blob, report = _eval_report(pass_dir / f"{tag}_eval")
                if tag == "zs":
                    return blob, {"zeroshot_auc_min": min(report["auc"].values()),
                                  "zeroshot_auc_mean": report["auc_mean"]}
                return blob, {"probe_auc_mean": report["auc_mean"]}
            return run, check

        return [
            Op("zeroshot", zeroshot, check_zeroshot),
            Op("probe", probe, check_probe),
            Op("retrieval", retrieval, check_retrieval),
            Op("eval", *evaluator("zs", "zs/zeroshot_scores.csv")),
            Op("eval", *evaluator("probe", "probe/probe_scores.csv")),
        ]

    def items_per_pass(self) -> int:
        return self.sizes.n_heldout

    def details(self, op_s, quality):
        n = self.sizes.n_heldout
        return {
            "zeroshot_images_per_s": (n / op_s["zeroshot"], "1/s"),
            "probe_studies_per_s": ((self.sizes.n_train + n) / op_s["probe"], "1/s"),
            "retrieval_pairs_per_s": (n * n / op_s["retrieval"], "1/s"),
            "zeroshot_auc_min": (quality["zeroshot_auc_min"], "auc"),
            "zeroshot_auc_mean": (quality["zeroshot_auc_mean"], "auc"),
            "probe_auc_mean": (quality["probe_auc_mean"], "auc"),
            "retrieval_top1_mean": (quality["retrieval_top1_mean"], "ratio"),
        }

    def quality(self, quality):
        # Zero-shot class-mean AUC and probe mean AUC. The min AUC and
        # retrieval top-1 stay in the details only: across seeds they swing
        # with the checkpoint far more (quartile spread over ten seeds 0.11
        # and 0.21, against 0.06 for this mean).
        return (quality["zeroshot_auc_mean"] + quality["probe_auc_mean"]) / 2.0


# ---------------------------------------------------------------------------
# curate
# ---------------------------------------------------------------------------

# surface forms the default lexicon knows, per pathology
_PHRASES = {
    "atelectasis": ["atelectasis", "atelectatic changes", "lobar collapse"],
    "cardiomegaly": ["cardiomegaly", "enlarged heart", "cardiac enlargement",
                     "enlarged cardiac silhouette"],
    "consolidation": ["consolidation", "consolidative opacity", "airspace disease"],
    "edema": ["edema", "pulmonary edema", "vascular congestion"],
    "pleural effusion": ["pleural effusion", "effusion", "pleural fluid"],
}
_TEMPLATES = {
    1: ["there is {p}", "findings consistent with {p}", "{p} is present",
        "interval development of {p}"],
    0: ["no {p}", "no evidence of {p}", "negative for {p}", "lungs are clear without {p}"],
    -1: ["possible {p}", "cannot exclude {p}", "suspicious for {p}", "questionable {p}"],
}
# true label, template: phrasings a sentence-level rule labeler misreads
_HARD = [(1, "no interval change in the known {p}"), (0, "the previously seen {p} has resolved")]
_FILLER = ["the trachea is midline", "osseous structures appear intact",
           "visualized soft tissues are within normal limits",
           "surgical clips project over the upper abdomen"]


def curation_manifest(seed: int, sizes: Sizes) -> tuple[list[dict], list[dict]]:
    """Report-only studies and their true labels, fully determined by `seed`.

    `n_frontal` frontal studies carry reports; lateral studies and frontal
    studies with empty reports are the ones a frontal, report-required
    split must drop.
    """
    rng = np.random.default_rng(seed)
    kinds = (["frontal"] * sizes.n_frontal + ["lateral"] * sizes.n_lateral
             + ["empty"] * sizes.n_empty)
    order = rng.permutation(len(kinds))
    studies, truth = [], []
    for serial, k in enumerate(order):
        kind = kinds[k]
        labels: list = [None] * len(PATHOLOGIES)
        sentences = []
        if kind != "empty":
            for j, name in enumerate(PATHOLOGIES):
                state = rng.choice([None, 1, 0, -1], p=[0.55, 0.2, 0.17, 0.08])
                if state is None:
                    continue
                phrase = _PHRASES[name][rng.integers(len(_PHRASES[name]))]
                if state != -1 and rng.random() < 0.04:
                    state, template = _HARD[rng.integers(len(_HARD))]
                else:
                    options = _TEMPLATES[state]
                    template = options[rng.integers(len(options))]
                labels[j] = int(state)
                sentences.append(template.format(p=phrase))
            sentences.append(_FILLER[rng.integers(len(_FILLER))])
            rng.shuffle(sentences)
        sid = f"cur-{serial:05d}"
        view = "lateral" if kind == "lateral" else "frontal"
        report = ". ".join(sentences) + "." if sentences else ""
        studies.append({"study_id": sid, "view": view, "report": report})
        truth.append({"study_id": sid, "view": view, "report": report, "labels": labels})
    return studies, truth


def _write_jsonl(rows: list[dict], path: Path) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


class Curate(Workload):
    name = "curate"

    def setup(self, root: Path) -> None:
        studies, truth = curation_manifest(self.seed, self.sizes)
        _write_jsonl(studies, root / "studies.jsonl")
        _write_jsonl(truth, root / "truth.jsonl")
        rng = np.random.default_rng(self.seed + 1)
        with open(root / "scores.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["study_id", *PATHOLOGIES])
            for row in truth:
                y = np.array([1.0 if v == 1 else 0.0 for v in row["labels"]])
                w.writerow([row["study_id"],
                            *[repr(float(v)) for v in y + rng.normal(0.0, 0.8, size=y.size)]])
        self.truth = {row["study_id"]: row["labels"] for row in truth}

    def ops(self, root: Path) -> list[Op]:
        s = self.sizes
        n_reports = len(self.truth)

        def label(pass_dir: Path):
            glre_cli("label", "--manifest", root / "studies.jsonl", "--out-dir", pass_dir)

        def check_label(pass_dir: Path, _):
            blob = _need(pass_dir / "labeled.jsonl").read_bytes()
            rows = [json.loads(line) for line in blob.decode().splitlines()]
            if len(rows) != n_reports:
                raise OpFailed(f"labeled.jsonl has {len(rows)} rows for {n_reports} studies")
            agree = sum(a == b for r in rows for a, b in zip(r["labels"], self.truth[r["study_id"]]))
            return blob, {"label_accuracy": agree / (len(PATHOLOGIES) * n_reports)}

        def split(pass_dir: Path):
            glre_cli("split", "--manifest", pass_dir / "labeled.jsonl", "--view", "frontal",
                     "--require-report", "--sizes", f"train={s.split_train},test={s.split_test}",
                     "--seed", self.seed, "--out-dir", pass_dir / "split")

        def check_split(pass_dir: Path, _):
            blobs = []
            for name, want in (("train", s.split_train), ("test", s.split_test)):
                blob = _need(pass_dir / "split" / f"{name}.jsonl").read_bytes()
                if len(blob.splitlines()) != want:
                    raise OpFailed(f"split {name} has {len(blob.splitlines())} rows, want {want}")
                blobs.append(blob)
            blobs.append(_need(pass_dir / "split" / "split.json").read_bytes())
            return b"\0".join(blobs), {}

        def subset(pass_dir: Path):
            glre_cli("subset", "--manifest", pass_dir / "labeled.jsonl", "--cap", s.subset_cap,
                     "--seed", self.seed, "--out-dir", pass_dir / "subset")

        def check_subset(pass_dir: Path, _):
            blob = _need(pass_dir / "subset" / "subset.json").read_bytes()
            classes = json.loads(blob)["classes"]
            if sorted(classes) != sorted(PATHOLOGIES) or any(
                    c["count"] > s.subset_cap for c in classes.values()):
                raise OpFailed("subset.json classes or caps are wrong")
            return blob, {}

        def evaluate(pass_dir: Path):
            glre_cli("eval", "--scores", root / "scores.csv", "--labels", root / "truth.jsonl",
                     "--out-dir", pass_dir / "eval")

        def check_eval(pass_dir: Path, _):
            return _eval_report(pass_dir / "eval")[0], {}

        def export_roc(pass_dir: Path):
            glre_cli("export-roc", "--scores", root / "scores.csv",
                     "--labels", root / "truth.jsonl", "--out-dir", pass_dir / "roc")

        def check_roc(pass_dir: Path, _):
            names = [f"roc_{p.replace(' ', '_')}.csv" for p in PATHOLOGIES]
            return b"\0".join(_need(pass_dir / "roc" / n).read_bytes() for n in names), {}

        return [
            Op("label", label, check_label),
            Op("split", split, check_split),
            Op("subset", subset, check_subset),
            Op("eval", evaluate, check_eval),
            Op("export-roc", export_roc, check_roc),
        ]

    def items_per_pass(self) -> int:
        return len(self.truth)

    def details(self, op_s, quality):
        n = len(self.truth)
        return {
            "curate_reports_per_s": (n / (op_s["label"] + op_s["split"] + op_s["subset"]), "1/s"),
            "auc_rows_per_s": (2 * n / (op_s["eval"] + op_s["export-roc"]), "1/s"),
            "label_accuracy": (quality["label_accuracy"], "ratio"),
        }

    def quality(self, quality):
        return quality["label_accuracy"]


WORKLOADS = {w.name: w for w in (TrainB16, Evaluate, Curate)}
