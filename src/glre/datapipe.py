"""Dataset plumbing: report labeling, manifests, splits, and synthetic data.

Reports are labeled with a transparent rule system over a phrase lexicon:
sentences split on [.;:], per-sentence verdicts with precedence
uncertainty > negation > positive, and cross-sentence aggregation
1 > -1 > 0 > blank. Splits are seeded and reproducible; the synthetic
generator builds paired image/report studies whose labels round-trip
through the labeler.
"""

from __future__ import annotations

import hashlib
import json
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoders import ImageGrid
from .errors import FormatError, SplitSizeError, VocabularyError

PATHOLOGIES = ("atelectasis", "cardiomegaly", "consolidation", "edema", "pleural effusion")

POSITIVE = 1
NEGATIVE = 0
UNCERTAIN = -1
BLANK = None

_ALLOWED = {POSITIVE, NEGATIVE, UNCERTAIN, BLANK}


@dataclass(frozen=True)
class LabelVector:
    """One value per pathology from {1, 0, -1, blank}."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(PATHOLOGIES):
            raise ValueError(f"expected {len(PATHOLOGIES)} labels, got {len(self.values)}")
        for v in self.values:
            if v not in _ALLOWED:
                raise ValueError(f"label {v!r} not in {{1, 0, -1, blank}}")

    @classmethod
    def blank(cls) -> "LabelVector":
        return cls((BLANK,) * len(PATHOLOGIES))

    @classmethod
    def positive_for(cls, pathology: str) -> "LabelVector":
        idx = PATHOLOGIES.index(pathology)
        return cls(tuple(POSITIVE if i == idx else BLANK for i in range(len(PATHOLOGIES))))

    def __getitem__(self, pathology: str):
        return self.values[PATHOLOGIES.index(pathology)]

    def as_list(self) -> list:
        return list(self.values)


@dataclass
class StudyRecord:
    """One study: a report, an image reference, and optional labels."""

    study_id: str
    view: str = "frontal"
    report_text: str = ""
    image_path: str | None = None
    image: ImageGrid | None = None
    labels: LabelVector | None = None

    def __post_init__(self):
        if self.view not in ("frontal", "lateral", "unknown"):
            raise ValueError(f"view must be frontal|lateral|unknown, got {self.view!r}")


# ---------------------------------------------------------------------------
# Tokenization and vocabulary
# ---------------------------------------------------------------------------

_STRIP = string.punctuation


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP)
        if tok:
            out.append(tok)
    return out


@dataclass(frozen=True)
class Vocabulary:
    """Token -> ID table with deterministic (sorted) ID assignment."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})
        if len(self._index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    @classmethod
    def from_texts(cls, texts) -> "Vocabulary":
        seen = set()
        for text in texts:
            seen.update(tokenize(text))
        return cls(tuple(sorted(seen)))

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def encode(self, text: str) -> list[int]:
        ids = []
        for tok in tokenize(text):
            if tok not in self._index:
                raise VocabularyError(f"unknown token {tok!r} in text {text!r}")
            ids.append(self._index[tok])
        return ids


# ---------------------------------------------------------------------------
# Rule-based report labeling
# ---------------------------------------------------------------------------


@dataclass
class Lexicon:
    """Mention phrases per pathology plus global negation/uncertainty cues.

    negation_window: a negation cue scopes a phrase when the cue's last token
    ends at most this many tokens before the phrase starts (same sentence).
    Uncertainty cues scope the whole sentence.
    """

    mentions: dict[str, list[str]]
    negations: list[str]
    uncertainties: list[str]
    negation_window: int = 6

    def __post_init__(self):
        for name in PATHOLOGIES:
            if not self.mentions.get(name):
                raise ValueError(f"lexicon missing mention phrases for {name!r}")
        for cue in list(self.negations) + list(self.uncertainties):
            if cue != cue.lower():
                raise ValueError(f"cue {cue!r} must be lowercase")

    def save(self, path) -> None:
        payload = {
            "mentions": self.mentions,
            "negations": self.negations,
            "uncertainties": self.uncertainties,
            "negation_window": self.negation_window,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "Lexicon":
        payload = json.loads(Path(path).read_text())
        return cls(
            mentions=payload["mentions"],
            negations=payload["negations"],
            uncertainties=payload["uncertainties"],
            negation_window=payload.get("negation_window", 6),
        )


def default_lexicon() -> Lexicon:
    """Hand-curated phrase lists for the five target pathologies."""
    return Lexicon(
        mentions={
            "atelectasis": ["atelectasis", "atelectatic changes", "lobar collapse"],
            "cardiomegaly": [
                "cardiomegaly",
                "enlarged heart",
                "heart size is enlarged",
                "cardiac enlargement",
                "enlarged cardiac silhouette",
            ],
            "consolidation": ["consolidation", "consolidative opacity", "airspace disease"],
            "edema": ["edema", "pulmonary edema", "vascular congestion"],
            "pleural effusion": ["pleural effusion", "effusion", "pleural fluid"],
        },
        negations=[
            "no",
            "not",
            "without",
            "no evidence of",
            "free of",
            "negative for",
            "absent",
            "clear of",
        ],
        uncertainties=[
            "possible",
            "possibly",
            "probable",
            "may",
            "might",
            "cannot exclude",
            "cannot be excluded",
            "suspicious for",
            "suspected",
            "questionable",
            "question of",
            "borderline",
            "equivocal",
            "concerning for",
            "versus",
        ],
    )


def split_sentences(text: str) -> list[str]:
    """Split on period, semicolon, or colon; drop empty pieces."""
    parts = []
    buf = []
    for ch in text:
        if ch in ".;:":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return [p for p in parts if p.strip()]


def _find_subsequences(haystack: list[str], needle: list[str]) -> list[int]:
    """Start indices of every contiguous occurrence of needle in haystack."""
    n = len(needle)
    if n == 0 or n > len(haystack):
        return []
    return [i for i in range(len(haystack) - n + 1) if haystack[i : i + n] == needle]


def label_report(text: str, lexicon: Lexicon) -> LabelVector:
    """Label one report; total over all inputs including the empty string.

    Per sentence and pathology: no phrase -> blank; phrase in a sentence with
    any uncertainty cue -> -1; phrase with a negation cue in scope -> 0;
    otherwise 1. Across sentences the strongest verdict wins: 1 > -1 > 0.
    """
    mention_tokens = {
        name: [tokenize(p) for p in phrases] for name, phrases in lexicon.mentions.items()
    }
    neg_tokens = [tokenize(c) for c in lexicon.negations]
    unc_tokens = [tokenize(c) for c in lexicon.uncertainties]

    # cross-sentence precedence, higher wins
    rank = {POSITIVE: 3, UNCERTAIN: 2, NEGATIVE: 1, BLANK: 0}
    best: dict[str, object] = {name: BLANK for name in PATHOLOGIES}

    for sentence in split_sentences(text):
        toks = tokenize(sentence)
        if not toks:
            continue
        uncertain_here = any(_find_subsequences(toks, cue) for cue in unc_tokens)
        neg_ends = sorted(
            start + len(cue)
            for cue in neg_tokens
            for start in _find_subsequences(toks, cue)
        )
        for name in PATHOLOGIES:
            for phrase in mention_tokens[name]:
                for start in _find_subsequences(toks, phrase):
                    if uncertain_here:
                        verdict = UNCERTAIN
                    elif any(0 <= start - end <= lexicon.negation_window
                             for end in neg_ends):
                        verdict = NEGATIVE
                    else:
                        verdict = POSITIVE
                    if rank[verdict] > rank[best[name]]:
                        best[name] = verdict
    return LabelVector(tuple(best[name] for name in PATHOLOGIES))


def labels_to_matrix(label_vectors, blank_value: int = 0,
                     uncertain_policy: str = "exclude"):
    """Binary per-pathology targets plus a validity mask.

    blank maps to `blank_value` (default 0: unmentioned means absent);
    uncertain (-1) follows `uncertain_policy`: exclude (masked out), pos, neg.
    Returns (y, mask) both shaped [N x 5].
    """
    if uncertain_policy not in ("exclude", "pos", "neg"):
        raise ValueError(f"unknown uncertain policy {uncertain_policy!r}")
    n = len(label_vectors)
    y = np.zeros((n, len(PATHOLOGIES)))
    mask = np.ones((n, len(PATHOLOGIES)), dtype=bool)
    for i, lv in enumerate(label_vectors):
        for j, v in enumerate(lv.values):
            if v is BLANK:
                y[i, j] = blank_value
            elif v == UNCERTAIN:
                if uncertain_policy == "exclude":
                    mask[i, j] = False
                else:
                    y[i, j] = 1 if uncertain_policy == "pos" else 0
            else:
                y[i, j] = v
    return y, mask


def label_matrix(records, blank_value: int = 0, uncertain_policy: str = "exclude"):
    """labels_to_matrix over StudyRecords; every record must be labeled."""
    for rec in records:
        if rec.labels is None:
            raise ValueError(f"record {rec.study_id!r} has no labels")
    return labels_to_matrix([rec.labels for rec in records],
                            blank_value=blank_value,
                            uncertain_policy=uncertain_policy)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def write_manifest(records, path) -> None:
    """One JSON object per line; images referenced by path, not inlined."""
    with open(path, "w") as fh:
        for rec in records:
            row = {
                "study_id": rec.study_id,
                "view": rec.view,
                "report": rec.report_text,
                "image_path": rec.image_path,
                "labels": rec.labels.as_list() if rec.labels is not None else None,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_manifest(path) -> list[StudyRecord]:
    """Parse a JSONL manifest; every line needs `study_id` and `view`."""
    records = []
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        row = json.loads(line)
        if not isinstance(row, dict) or not {"study_id", "view"} <= row.keys():
            raise FormatError(
                f"manifest {path} line {n}: expected a JSON object with 'study_id' and 'view'")
        records.append(StudyRecord(
            study_id=row["study_id"],
            view=row["view"],
            report_text=row.get("report", ""),
            image_path=row.get("image_path"),
            labels=LabelVector(tuple(row["labels"])) if row.get("labels") is not None else None,
        ))
    return records


def filter_with_report(records) -> list[StudyRecord]:
    """Keep records whose report text is non-empty, preserving order."""
    return [r for r in records if r.report_text.strip()]


def manifest_hash(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.study_id.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


@dataclass
class SplitManifest:
    """Named disjoint ID lists drawn from one source manifest."""

    seed: int
    splits: dict[str, list[str]]
    source_hash: str

    def save(self, path) -> None:
        payload = {"seed": self.seed, "source_hash": self.source_hash,
                   "splits": self.splits}
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "SplitManifest":
        payload = json.loads(Path(path).read_text())
        return cls(seed=payload["seed"], splits=payload["splits"],
                   source_hash=payload["source_hash"])


def make_splits(records, sizes: dict, seed: int) -> SplitManifest:
    """Seeded sampling without replacement into named splits.

    `sizes` maps split name to a count, or to "rest" for at most one split
    that absorbs the remainder. Requesting more records than available
    raises SplitSizeError.
    """
    ids = [r.study_id for r in records]
    rest_names = [name for name, v in sizes.items() if v == "rest"]
    if len(rest_names) > 1:
        raise ValueError(f"only one split may be 'rest', got {rest_names}")
    requested = sum(int(v) for v in sizes.values() if v != "rest")
    if requested > len(ids):
        raise SplitSizeError(requested, len(ids))

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    cursor = 0
    splits: dict[str, list[str]] = {}
    for name, size in sizes.items():
        if size == "rest":
            continue
        take = order[cursor : cursor + int(size)]
        cursor += int(size)
        splits[name] = [ids[i] for i in take]
    if rest_names:
        splits[rest_names[0]] = [ids[i] for i in order[cursor:]]
    return SplitManifest(seed=int(seed), splits=splits, source_hash=manifest_hash(records))


def build_single_disease_subset(records, per_class_cap: int, seed: int) -> dict:
    """IDs of records positive for exactly one pathology, per pathology.

    A -1 anywhere disqualifies a record. Candidate lists longer than the cap
    are truncated by seeded sampling. Returns {"cap", "seed", "classes":
    {name: {"count", "study_ids"}}}; empty classes report count 0.
    """
    candidates: dict[str, list[str]] = {name: [] for name in PATHOLOGIES}
    for rec in records:
        if rec.labels is None:
            continue
        vals = rec.labels.values
        if UNCERTAIN in vals:
            continue
        pos = [i for i, v in enumerate(vals) if v == POSITIVE]
        if len(pos) == 1:
            candidates[PATHOLOGIES[pos[0]]].append(rec.study_id)

    rng = np.random.default_rng(seed)
    classes = {}
    for name in PATHOLOGIES:
        pool = candidates[name]
        if len(pool) > per_class_cap:
            pick = rng.choice(len(pool), size=per_class_cap, replace=False)
            chosen = [pool[i] for i in sorted(pick)]
        else:
            chosen = list(pool)
        classes[name] = {"count": len(chosen), "study_ids": chosen}
    return {"cap": int(per_class_cap), "seed": int(seed), "classes": classes}


# ---------------------------------------------------------------------------
# Synthetic paired dataset
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    """Layout of the synthetic paired corpus.

    Each class owns a home region of the grid; remaining regions are "zones"
    that carry instance-specific textures at one of three levels (off, low,
    high), named in the report by tokens like z3high. Severity picks the home
    texture variant. Every (severity, zone-levels) combination is unique
    within a class while combinations last, which gives retrieval a
    one-to-one image/report correspondence.
    """

    n_classes: int = 5
    n_train: int = 500
    n_heldout: int = 200
    image_size: int = 24
    region_grid: tuple[int, int] = (3, 3)
    noise: float = 0.02
    background: float = 0.5

    def __post_init__(self):
        if not 1 <= self.n_classes <= len(PATHOLOGIES):
            raise ValueError(f"n_classes must be in 1..{len(PATHOLOGIES)}")
        gr, gc = self.region_grid
        if self.image_size % gr or self.image_size % gc:
            raise ValueError("image_size must be divisible by the region grid")
        if gr * gc < self.n_classes:
            raise ValueError("need at least one region per class")


_SEVERITIES = ("mild", "severe")
_ZONE_LEVELS = ("off", "low", "high")

_POSITIVE_TEMPLATES = (
    "findings consistent with {sev} {phrase}",
    "{sev} {phrase} is present",
    "there is {sev} {phrase}",
)

_DISTRACTORS = (
    "the lungs are otherwise grossly unremarkable",
    "osseous structures appear intact",
    "visualized soft tissues are within normal limits",
    "the trachea is midline",
    "surgical clips project over the upper abdomen",
    "degenerative changes noted in the spine",
)


def synth_lexicon() -> Lexicon:
    """Minimal lexicon matching the synthetic report templates."""
    base = default_lexicon()
    mentions = {name: [name] for name in PATHOLOGIES}
    return Lexicon(mentions=mentions, negations=base.negations,
                   uncertainties=base.uncertainties)


def _home_regions(n_regions: int, n_classes: int) -> list[int]:
    """Evenly spread class home regions across the grid."""
    return [round(i * (n_regions - 1) / max(n_classes - 1, 1)) for i in range(n_classes)]


def _texture(rng: np.random.Generator, shape, lo: float, hi: float) -> np.ndarray:
    # binary patterns: texture atoms stay near-orthogonal after mean pooling,
    # which keeps class directions well separated in feature space
    return rng.choice([lo, hi], size=shape)


def synth_paired_dataset(config: SynthConfig, seed: int):
    """Generate (train, heldout) lists of fully seeded paired studies.

    Images carry a class-specific home texture plus per-instance zone
    textures; reports name the class, severity, and active zones. Labels are
    constructed positive for the study's class and blank elsewhere, which
    matches what label_report derives with synth_lexicon.
    """
    rng = np.random.default_rng(seed)
    gr, gc = config.region_grid
    n_regions = gr * gc
    region_h, region_w = config.image_size // gr, config.image_size // gc
    homes = _home_regions(n_regions, config.n_classes)
    zones = [r for r in range(n_regions) if r not in homes]

    # fixed pattern library: one texture per (home region, severity) and
    # per (zone, active level); drawn once so studies share them exactly
    home_tex = {
        (homes[k], sev): _texture(rng, (region_h, region_w), 0.1, 0.9)
        for k in range(config.n_classes)
        for sev in _SEVERITIES
    }
    zone_tex = {
        (z, lvl): _texture(rng, (region_h, region_w), 0.2, 0.8)
        for z in zones
        for lvl in ("low", "high")
    }

    def per_class(total: int, k: int) -> int:
        base, extra = divmod(total, config.n_classes)
        return base + (1 if k < extra else 0)

    n_combos = len(_SEVERITIES) * len(_ZONE_LEVELS) ** len(zones)

    def decode_combo(code: int):
        sev = _SEVERITIES[code % len(_SEVERITIES)]
        code //= len(_SEVERITIES)
        levels = []
        for _ in zones:
            levels.append(_ZONE_LEVELS[code % len(_ZONE_LEVELS)])
            code //= len(_ZONE_LEVELS)
        return sev, levels

    train: list[StudyRecord] = []
    heldout: list[StudyRecord] = []
    serial = 0
    for k in range(config.n_classes):
        name = PATHOLOGIES[k]
        want_train = per_class(config.n_train, k)
        want_held = per_class(config.n_heldout, k)
        want = want_train + want_held
        if want <= n_combos:
            codes = rng.permutation(n_combos)[:want]
        else:
            codes = rng.integers(0, n_combos, size=want)
        for j, code in enumerate(codes):
            sev, levels = decode_combo(int(code))
            pixels = np.full((config.image_size, config.image_size), config.background)

            def paste(region: int, tex: np.ndarray) -> None:
                i, jj = divmod(region, gc)
                pixels[i * region_h : (i + 1) * region_h,
                       jj * region_w : (jj + 1) * region_w] = tex

            paste(homes[k], home_tex[(homes[k], sev)])
            active = []
            for z, lvl in zip(zones, levels):
                if lvl != "off":
                    paste(z, zone_tex[(z, lvl)])
                    active.append(f"z{z}{lvl}")
            if config.noise > 0:
                pixels = pixels + rng.uniform(-config.noise, config.noise, pixels.shape)
            pixels = np.clip(pixels, 0.0, 1.0)
            # snap to the 8-bit grid so in-memory pixels match a PGM round trip
            pixels = np.round(pixels * 255.0) / 255.0

            positive = _POSITIVE_TEMPLATES[int(rng.integers(len(_POSITIVE_TEMPLATES)))]
            sentences = [
                positive.format(sev=sev, phrase=name),
                "pattern codes " + (" ".join(active) if active else "none"),
                _DISTRACTORS[int(rng.integers(len(_DISTRACTORS)))],
            ]
            report = ". ".join(sentences) + "."

            rec = StudyRecord(
                study_id=f"synth-{serial:05d}",
                view="frontal",
                report_text=report,
                image=ImageGrid(pixels, region_grid=config.region_grid),
                labels=LabelVector.positive_for(name),
            )
            serial += 1
            (train if j < want_train else heldout).append(rec)

    order = rng.permutation(len(train))
    train = [train[i] for i in order]
    order = rng.permutation(len(heldout))
    heldout = [heldout[i] for i in order]
    return train, heldout
