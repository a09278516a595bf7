"""Command-line pipeline over manifests: label, split, synth, train, evaluate.

Every subcommand draws all randomness from a single --seed, writes artifacts
under --out-dir, and finishes with a RunReport JSON describing the run.
Outputs are byte-identical across reruns with identical inputs and seed, but
for the wall-clock field, which runreport_fingerprint excludes.

A command's settings are one lookup: its given flags over the top-level
entries of an optional JSON --config. A setting that a config section also
holds (train's seed, probe's uncertain_policy) is the flag, else the section's
entry, else the top-level entry, else the default. A top-level entry named
after a flag must have the flag's type; a wrong type, null included, exits 2.

One helper loads every PGM, naming the study and file of a missing or untileable
image; eval and export-roc share one per-pathology ROC pass.

Exit codes: 0 success, 1 contract errors (bad values, bad state) and running out of
memory, 2 I/O and file-format errors, each naming the file at fault.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
import time
from collections import ChainMap
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .classify import (
    ProbeConfig,
    PromptSet,
    default_prompts,
    fit_linear_probe,
    image_features,
    probe_predict,
    zero_shot_scores,
)
from .datapipe import (
    PATHOLOGIES,
    Lexicon,
    SynthConfig,
    build_single_disease_subset,
    default_lexicon,
    filter_with_report,
    label_matrix,
    label_report,
    make_splits,
    manifest_hash,
    read_manifest,
    synth_paired_dataset,
    tokenize,
    write_manifest,
)
from .encoders import (
    ImageGrid,
    LocalGlobalFeatures,
    encode_text_toy,
    read_pgm,
    save_embeddings,
    write_pgm,
)
from .errors import (
    ConsistencyError,
    FormatError,
    InsufficientDataError,
    SettingTypeError,
    ShapeError,
    UndefinedAucError,
    VersionError,
    VocabularyError,
    check_number,
)
from .files import json_value, reading, step_log, write_csv, write_json
from .metrics import aggregate_auc, roc_auc
from .numerics import Tensor
from .trainer import TrainConfig, encode_report, load_checkpoint, save_checkpoint, train


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """What a subcommand did: inputs digest, outputs, and any scores."""

    command: str = ""  # the subcommand, filled in by _dispatch
    config_hash: str = ""
    seed: int | None = None
    outputs: list[str] = field(default_factory=list)
    auc: dict | None = None
    auc_mean: float | None = None
    auc_std: float | None = None
    class_counts: dict | None = None  # eval: {pathology: {"n_pos", "n_neg"}} of kept labels
    content_hash: str | None = None
    wall_clock_seconds: float = 0.0


def runreport_fingerprint(path) -> str:
    """Digest of a RunReport with the wall-clock timing stripped.

    Two runs of the same command over the same inputs and seed must agree
    on this fingerprint even though their timings differ.
    """
    with reading(path) as data:
        payload = json_value(data)
    payload.pop("wall_clock_seconds", None)
    return _digest(payload)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _content_hash(out_dir: Path, outputs: list[str]) -> str:
    """Digest over the bytes of every listed output, directories walked."""
    h = hashlib.sha256()
    files: list[Path] = []
    for rel in sorted(outputs):
        p = out_dir / rel
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*") if q.is_file()))
        else:
            files.append(p)
    for p in files:
        h.update(_out_key(p, out_dir).encode("utf-8"))
        h.update(b"\x00")
        with reading(p) as data:
            h.update(data)
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


# every flag's add_argument settings (argparse derives the dest from the flag)
_FLAGS = {
    "--config": {"help": "JSON config file; flags override it"},
    "--seed": {"type": int, "help": "seed for all randomness"},
    "--out-dir": {"help": "artifact directory (default .)"},
    "--manifest": {"help": "input manifest (JSONL, one study per line)"},
    "--lexicon": {"help": "phrase lexicon JSON (default: built-in)"},
    "--out": {"help": "output file name (default depends on the command)"},
    "--sizes": {"help": "split sizes, e.g. train=2552,test=727 or test=rest"},
    "--view": {"help": "keep only records with this view"},
    "--require-report": {"action": "store_true", "default": None,
                         "help": "drop records with empty reports"},
    "--cap": {"type": int, "help": "per-class study cap"},
    "--resume": {"help": "checkpoint to continue training from"},
    "--checkpoint": {"help": "trained checkpoint file"},
    "--score-manifest": {"help": "extra manifest to score with the fitted probe"},
    "--uncertain-policy": {"choices": ("exclude", "pos", "neg"),
                           "help": "how -1 labels enter binary evaluation"},
    "--prompts": {"help": "prompt set JSON (default: built-in prompts)"},
    "--scores": {"help": "scores CSV (study_id plus one column per pathology)"},
    "--labels": {"help": "labeled manifest to evaluate against"},
}
# the JSON types a config entry may take in place of each flag; null is none of them
_ENTRY_TYPES = {flag[2:].replace("-", "_"): (kw.get("type", bool if "action" in kw else str),)
                for flag, kw in _FLAGS.items()} | {"sizes": (str, dict)}
_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string", dict: "an object"}


def _load_json(path) -> dict:
    with reading(path) as data:
        payload = json_value(data)
        if not isinstance(payload, dict):
            raise FormatError("a config file must hold a JSON object")
        for key, types in _ENTRY_TYPES.items():
            if key in payload and type(payload[key]) not in types:
                raise SettingTypeError(
                    f"config entry {key!r} must be {' or '.join(map(_TYPE_NAMES.get, types))}, "
                    f"got {json.dumps(payload[key])}")
    return payload


class _Settings(ChainMap):
    """A command's given flags (`maps[0]`) over its config's top-level entries. Looking
    up a setting that neither gives is a contract error; `get` takes a default."""

    def __missing__(self, key):
        raise ValueError(f"--{key.replace('_', '-')} is required "
                         "(pass the flag or set it in --config)")


def _from_section(cls, s: _Settings, name: str, key: str | None = None):
    """`cls` from config section `name`; unknown keys or bad types are setting type errors.

    `key` names a section setting that also has a flag: the flag's value,
    else the section's entry, else the top-level entry, else the default.
    """
    values = s.get(name, {})
    if not isinstance(values, dict):
        raise SettingTypeError(f"config section {name!r} must be a JSON object")
    if key in s and (key in s.maps[0] or key not in values):
        values = {**values, key: s[key]}
    try:
        return cls(**values)
    except TypeError as exc:
        raise SettingTypeError(f"config section {name!r}: {exc}") from exc


def _require(records, manifest_path, what: str, has) -> None:
    """Every record `has` `what`, else a contract error names the first without it."""
    for rec in records:
        if not has(rec):
            raise InsufficientDataError(f"study {rec.study_id!r} of {manifest_path} has no {what}")


def _attach_images(records, manifest_path, region_grid, patch_pool: int = 1) -> None:
    """Load every record's PGM, its path relative to the manifest. A study with no image,
    or whose image the grid cannot tile into blocks patch_pool pixels a side, is named."""
    _require(records, manifest_path, "image", lambda rec: rec.image_path)
    base = Path(manifest_path).resolve().parent
    for rec in records:
        path = base / rec.image_path
        where = f"study {rec.study_id!r} of {manifest_path}: {path}"
        try:
            rec.image = ImageGrid(read_pgm(path), region_grid=tuple(region_grid))
        except ShapeError as exc:
            raise ShapeError(f"{where}: {exc}") from None
        h, w = (n // g for n, g in zip(rec.image.pixels.shape, rec.image.region_grid))
        if min(h, w) < patch_pool:
            raise ShapeError(f"{where}: cannot pool {h}x{w} block to {patch_pool}x{patch_pool}")


def _encode_reports(records, manifest_path, ckpt) -> list:
    """Each record's report under the checkpoint's vocabulary; an unknown word names its study."""
    seqs = []
    for rec in records:
        try:
            seqs.append(encode_report(rec.report_text, ckpt.vocab, ckpt.config))
        except VocabularyError as exc:
            raise VocabularyError(f"study {rec.study_id!r} of {manifest_path}: {exc}") from None
    return seqs


def _load_scoring_inputs(s):
    """The --checkpoint and the --manifest records, images attached."""
    ckpt = load_checkpoint(s["checkpoint"])
    records = read_manifest(s["manifest"])
    _attach_images(records, s["manifest"], ckpt.config.region_grid, ckpt.config.patch_pool)
    return ckpt, records


def _out_key(path: Path, out_dir: Path) -> str:
    """Relative form for the outputs list when the file sits under out_dir."""
    try:
        return str(path.relative_to(out_dir))
    except ValueError:
        return str(path)


def _write_scores(path, ids, scores) -> None:
    write_csv(path, ["study_id", *PATHOLOGIES], [ids, *np.asarray(scores, dtype=np.float64).T])


def _read_scores(path):
    expected = ["study_id", *PATHOLOGIES]
    line_of, rows = {}, []  # each study id's line in the file; its scores
    with reading(path) as data:
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        header = next(reader, None)
        if header != expected:
            raise FormatError(f"a scores file must start with header {expected}")
        for line in reader:
            n = reader.line_num  # the file's line: a quoted newline puts it past the row
            if len(line) != len(expected):
                raise FormatError(f"line {n}: expected {len(expected)} fields, got {len(line)}")
            if line[0] in line_of:
                raise ConsistencyError(f"scores {path} line {n}: study_id {line[0]!r} "
                                       f"repeats line {line_of[line[0]]}")
            line_of[line[0]] = n
            try:
                rows.append([float(v) for v in line[1:]])
            except ValueError as exc:
                raise FormatError(f"line {n}: {exc}") from exc
    return list(line_of), np.asarray(rows, dtype=np.float64).reshape(len(rows), len(PATHOLOGIES))


def _roc_curves(s):
    """Per-pathology ROC of the --scores file against the --labels manifest.

    A pathology whose kept labels are single-class maps to None. Returns the
    curves, each pathology's kept positive and negative counts (undefined
    curves included), and the config hash that eval and export-roc both
    report.
    """
    scores_path, labels_path = s["scores"], s["labels"]
    policy = s.get("uncertain_policy", "exclude")
    ids, scores = _read_scores(scores_path)
    label_records = read_manifest(labels_path)
    by_id = {r.study_id: r for r in label_records}
    missing = [sid for sid in ids if sid not in by_id]
    if missing:
        raise ConsistencyError(
            f"{len(missing)} scored studies absent from the label manifest, "
            f"first {missing[0]!r}")
    labeled = [by_id[sid] for sid in ids]
    _require(labeled, labels_path, "labels", lambda rec: rec.labels is not None)
    y, mask = label_matrix(labeled, uncertain_policy=policy)
    curves, counts = {}, {}
    for k, name in enumerate(PATHOLOGIES):
        keep = mask[:, k]
        truth = y[keep, k].astype(int)
        n_pos = int(truth.sum())
        counts[name] = {"n_pos": n_pos, "n_neg": len(truth) - n_pos}
        try:
            curves[name] = roc_auc(scores[keep, k], truth)
        except UndefinedAucError:
            curves[name] = None
    return curves, counts, _digest({"uncertain_policy": policy, "scores": _digest(ids),
                                    "labels": manifest_hash(label_records)})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_label(s, out_dir: Path) -> RunReport:
    records = read_manifest(s["manifest"])
    lex_path = s.get("lexicon")
    lexicon = Lexicon.load(lex_path) if lex_path else default_lexicon()
    seen: dict = {}  # one sentence memo per command
    for rec in records:
        rec.labels = label_report(rec.report_text, lexicon, seen)
    out = out_dir / s.get("out", "labeled.jsonl")  # an absolute --out stands alone
    write_manifest(records, out)
    return RunReport(
        config_hash=_digest({"lexicon": asdict(lexicon)}),
        outputs=[_out_key(out, out_dir)],
    )


def _parse_sizes(spec: str) -> dict:
    sizes: dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        if not name or not value:
            raise ValueError(f"--sizes entries look like name=count, got {part!r}")
        if name in sizes:
            raise ValueError(f"--sizes names split {name!r} twice")
        sizes[name] = value if value == "rest" else int(value)
    if not sizes:
        raise ValueError("--sizes named no splits")
    return sizes


def _cmd_split(s, out_dir: Path) -> RunReport:
    records = read_manifest(s["manifest"])
    view = s.get("view")
    if view is not None:
        records = [r for r in records if r.view == view]
    require_report = s.get("require_report", False)
    if require_report:
        records = filter_with_report(records)
    sizes = _parse_sizes(s["sizes"]) if isinstance(s["sizes"], str) else dict(s["sizes"])
    seed = check_number("seed", s.get("seed", 0), integer=True, minimum=0)

    split = make_splits(records, sizes, seed)
    split.save(out_dir / "split.json")
    by_id = {r.study_id: r for r in records}
    outputs = ["split.json"]
    for name in sizes:
        part = [by_id[sid] for sid in split.splits[name]]
        write_manifest(part, out_dir / f"{name}.jsonl")
        outputs.append(f"{name}.jsonl")
    return RunReport(
        seed=seed, outputs=outputs,
        config_hash=_digest({"sizes": sizes, "seed": seed, "view": view,
                             "require_report": require_report,
                             "source": manifest_hash(records)}),
    )


def _cmd_subset(s, out_dir: Path) -> RunReport:
    records = read_manifest(s["manifest"])
    cap = check_number("cap", s["cap"], integer=True, minimum=0)
    seed = check_number("seed", s.get("seed", 0), integer=True, minimum=0)
    subset = build_single_disease_subset(records, cap, seed)
    out = out_dir / s.get("out", "subset.json")
    write_json(out, subset)
    return RunReport(
        seed=seed, outputs=[_out_key(out, out_dir)],
        config_hash=_digest({"cap": cap, "seed": seed,
                             "source": manifest_hash(records)}),
    )


def _cmd_synth(s, out_dir: Path) -> RunReport:
    scfg = _from_section(SynthConfig, s, "synth")
    seed = check_number("seed", s.get("seed", 0), integer=True, minimum=0)
    train_recs, heldout = synth_paired_dataset(scfg, seed)
    (out_dir / "images").mkdir(exist_ok=True)
    for rec in (*train_recs, *heldout):
        rel = f"images/{rec.study_id}.pgm"
        write_pgm(out_dir / rel, rec.image.pixels)
        rec.image_path = rel
    write_manifest(train_recs, out_dir / "train.jsonl")
    write_manifest(heldout, out_dir / "heldout.jsonl")
    return RunReport(
        seed=seed,
        outputs=["train.jsonl", "heldout.jsonl", "images"],
        config_hash=_digest({"synth": asdict(scfg), "seed": seed}),
    )


def _cmd_train(s, out_dir: Path) -> RunReport:
    manifest = s["manifest"]
    tcfg = _from_section(TrainConfig, s, "train", "seed")
    records = filter_with_report(read_manifest(manifest))
    _require(records, manifest, "report tokens", lambda rec: tokenize(rec.report_text))
    _attach_images(records, manifest, tcfg.region_grid, tcfg.patch_pool)
    resume_path = s.get("resume")
    resume = load_checkpoint(resume_path) if resume_path else None
    if resume is not None:
        _encode_reports(records, manifest, resume)
    ckpt = train(records, tcfg, resume_from=resume,
                 on_step=step_log(out_dir / "train_log.jsonl"))
    save_checkpoint(ckpt, out_dir / "checkpoint.bin")
    return RunReport(
        seed=tcfg.seed,
        outputs=["checkpoint.bin", "train_log.jsonl"],
        config_hash=tcfg.hash(),
    )


def _cmd_probe(s, out_dir: Path) -> RunReport:
    pcfg = _from_section(ProbeConfig, s, "probe", "uncertain_policy")
    ckpt, records = _load_scoring_inputs(s)
    _require(records, s["manifest"], "labels", lambda rec: rec.labels is not None)
    feats = image_features(records, ckpt)
    score_manifest = s.get("score_manifest")
    if score_manifest:  # its features are made before the fit, so a bad one leaves no output
        srecs = read_manifest(score_manifest)
        _attach_images(srecs, score_manifest, ckpt.config.region_grid, ckpt.config.patch_pool)
        sfeats = image_features(srecs, ckpt)
    model = fit_linear_probe(feats.global_feat.numpy(), [r.labels for r in records], pcfg)
    model.save(out_dir / "probe.json")
    outputs = ["probe.json"]
    if score_manifest:
        probs = probe_predict(model, sfeats.global_feat.numpy())
        _write_scores(out_dir / "probe_scores.csv",
                      [r.study_id for r in srecs], probs)
        outputs.append("probe_scores.csv")
    return RunReport(
        outputs=outputs,
        config_hash=_digest({"probe": asdict(pcfg),
                             "checkpoint": ckpt.config.hash()}),
    )


def _zeroshot_weights(global_weight=0.5, local_weight=0.5) -> tuple[float, float]:
    """The global/local mix of zero-shot scores; both weights must be finite numbers."""
    return (float(check_number("global_weight", global_weight)),
            float(check_number("local_weight", local_weight)))


def _cmd_zeroshot(s, out_dir: Path) -> RunReport:
    gw, lw = _from_section(_zeroshot_weights, s, "zeroshot")
    ckpt, records = _load_scoring_inputs(s)
    prompts_path = s.get("prompts")
    prompts = PromptSet.load(prompts_path) if prompts_path else default_prompts()
    try:
        scores = (zero_shot_scores(image_features(records, ckpt), prompts, ckpt,
                                   global_weight=gw, local_weight=lw)
                  if records else np.zeros((0, len(PATHOLOGIES))))
    except VocabularyError as exc:  # only the prompts are encoded as text
        raise VocabularyError(f"{prompts_path or 'built-in prompts'}: {exc}") from None
    _write_scores(out_dir / "zeroshot_scores.csv",
                  [r.study_id for r in records], scores)
    return RunReport(
        outputs=["zeroshot_scores.csv"],
        config_hash=_digest({"checkpoint": ckpt.config.hash(),
                             "prompts": prompts.prompts,
                             "global_weight": gw, "local_weight": lw}),
    )


def _cmd_eval(s, out_dir: Path) -> RunReport:
    curves, counts, config_hash = _roc_curves(s)
    per = {name: c.auc if c is not None else None for name, c in curves.items()}
    defined = [auc for auc in per.values() if auc is not None]
    mean, std = aggregate_auc(defined) if defined else (None, None)
    return RunReport(auc=per, auc_mean=mean, auc_std=std, class_counts=counts,
                     config_hash=config_hash)


def _per_study(feats: LocalGlobalFeatures):
    """Each study of a feature batch, in order, as single-study features."""
    rows = np.split(feats.local.data, np.cumsum(feats.lengths)[:-1])
    for local, glob in zip(rows, feats.global_feat.data):
        yield LocalGlobalFeatures(Tensor(local), Tensor(glob[None]), feats.modality)


def _cmd_export_embeddings(s, out_dir: Path) -> RunReport:
    ckpt = load_checkpoint(s["checkpoint"])
    records = read_manifest(s["manifest"])
    imaged = [rec for rec in records if rec.image_path]
    _attach_images(imaged, s["manifest"], ckpt.config.region_grid, ckpt.config.patch_pool)
    reported = filter_with_report(records)  # train's rule: a blank report has no text entry
    _require(reported, s["manifest"], "report tokens", lambda rec: tokenize(rec.report_text))
    seqs = _encode_reports(reported, s["manifest"], ckpt)
    # each side is encoded in one call, then handed out study by study
    images = _per_study(image_features(imaged, ckpt)) if imaged else iter(())
    texts = _per_study(encode_text_toy(seqs, ckpt.params)) if seqs else iter(())
    items = {}
    for rec in records:
        if rec.image is not None:
            items[f"{rec.study_id}:image"] = next(images)
        if rec.report_text.strip():
            items[f"{rec.study_id}:text"] = next(texts)
    if not items:
        raise InsufficientDataError("no images or reports to export")
    out = out_dir / s.get("out", "embeddings.bin")
    save_embeddings(out, items)
    return RunReport(
        outputs=[_out_key(out, out_dir)],
        config_hash=_digest({"checkpoint": ckpt.config.hash(),
                             "records": sorted(items)}),
    )


def _cmd_export_roc(s, out_dir: Path) -> RunReport:
    curves, _, config_hash = _roc_curves(s)
    outputs = []
    for name, curve in curves.items():
        if curve is not None:
            rel = f"roc_{name.replace(' ', '_')}.csv"
            curve.write_csv(out_dir / rel)
            outputs.append(rel)
    if not outputs:
        raise UndefinedAucError("no pathology had both label classes present")
    return RunReport(outputs=outputs, config_hash=config_hash)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors (including unknown flags) exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `glre` parser, built on the first call and shared: parsing keeps no state in it."""
    parser = _Parser(prog="glre", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name: str, handler, help_text: str, *flags: str) -> None:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag in ("--config", "--seed", "--out-dir", *flags):
            p.add_argument(flag, **_FLAGS[flag])

    add("label", _cmd_label, "derive rule-based labels for a manifest",
        "--manifest", "--lexicon", "--out")
    add("split", _cmd_split, "seeded disjoint splits of a manifest",
        "--manifest", "--sizes", "--view", "--require-report")
    add("subset", _cmd_subset, "single-disease study subsets per pathology",
        "--manifest", "--cap", "--out")
    add("synth", _cmd_synth, "generate the paired synthetic corpus")
    add("train", _cmd_train, "contrastive training over a paired manifest",
        "--manifest", "--resume")
    add("probe", _cmd_probe, "fit a linear probe on frozen global features",
        "--checkpoint", "--manifest", "--score-manifest", "--uncertain-policy")
    add("zeroshot", _cmd_zeroshot, "prompt-based class scores for images",
        "--checkpoint", "--manifest", "--prompts")
    add("eval", _cmd_eval, "per-pathology AUC of a scores file against labels",
        "--scores", "--labels", "--uncertain-policy")
    add("export-embeddings", _cmd_export_embeddings,
        "write image/text embeddings in GLRE1 format", "--checkpoint", "--manifest", "--out")
    add("export-roc", _cmd_export_roc, "write per-pathology ROC curve CSVs",
        "--scores", "--labels", "--uncertain-policy")
    return parser


def _dispatch(args) -> int:
    config = _load_json(args.config) if args.config else {}
    s = _Settings({key: value for key, value in vars(args).items()
                   if key in _ENTRY_TYPES and value is not None}, config)
    out_dir = Path(s.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    try:
        report = args.handler(s, out_dir)
    except SettingTypeError as exc:
        # argparse types every flag, so a setting of the wrong type is a config entry
        exc.args = (f"{args.config}: {exc}",)
        raise
    report.command = args.command
    if report.seed is None:
        report.seed = s.get("seed")
    report.content_hash = _content_hash(out_dir, report.outputs)
    report.wall_clock_seconds = time.perf_counter() - started

    report_path = out_dir / f"run_report_{args.command.replace('-', '_')}.json"
    write_json(report_path, asdict(report))
    line = f"{args.command}: wrote {report_path}"
    if report.auc_mean is not None:
        line += f" (mean AUC {report.auc_mean:.4f})"
    print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except (FormatError, VersionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {args.command}: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
