"""Dataset plumbing: report labeling, manifests, splits, and synthetic data.

Reports are labeled with a transparent rule system over a phrase lexicon:
sentences split on [.;:], per-sentence verdicts with precedence
uncertainty > negation > positive, and cross-sentence aggregation
1 > -1 > 0 > blank. A Lexicon indexes its tokenized phrases by first token
when it is built, so labeling walks each sentence's tokens once, and a memo
the caller passes lets a run label each distinct sentence once. Splits are
seeded and reproducible; the synthetic generator builds paired image/report
studies whose labels round-trip through the labeler.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import string
from dataclasses import dataclass

import numpy as np

from .encoders import ImageGrid
from .errors import (ConsistencyError, FormatError, ParameterError, SplitSizeError,
                     VocabularyError, check_grid, check_number, is_str_list)
from .files import has_surrogate_escape, json_value, reading, write_file, write_json

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
    return [tok for raw in text.lower().split() if (tok := raw.strip(_STRIP))]


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
    def from_tokens(cls, token_lists) -> "Vocabulary":
        """Every token of the token lists (one a text, as tokenize gives), sorted."""
        return cls(tuple(sorted({tok for tokens in token_lists for tok in tokens})))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: list[str]) -> list[int]:
        """IDs of a token list; an unknown token is named with its 1-based word position."""
        try:
            return [self._index[tok] for tok in tokens]
        except KeyError as exc:
            word = tokens.index(exc.args[0]) + 1
            raise VocabularyError(f"unknown token {exc.args[0]!r} at word {word}") from None


# ---------------------------------------------------------------------------
# Rule-based report labeling
# ---------------------------------------------------------------------------


_LEXICON_KEYS = {"mentions", "negations", "uncertainties"}


@dataclass(frozen=True)
class Lexicon:
    """Mention phrases per pathology plus global negation/uncertainty cues.

    negation_window: a negation cue scopes a phrase when the cue's last token
    ends at most this many tokens before the phrase starts (same sentence).
    Uncertainty cues scope the whole sentence.

    Construction tokenizes every phrase once and indexes it by its first
    token for `label_report`, so a phrase list edited in place afterwards is
    not seen: build a new Lexicon instead. Construction rejects a phrase with
    no tokens, a mention key outside PATHOLOGIES and a negative window.
    """

    mentions: dict[str, list[str]]
    negations: list[str]
    uncertainties: list[str]
    negation_window: int = 6

    def __post_init__(self):
        check_number("negation_window", self.negation_window, integer=True, minimum=0)
        for name in self.mentions:
            if name not in PATHOLOGIES:
                raise FormatError(f"lexicon mentions: unknown key {name!r}")
        for name in PATHOLOGIES:
            if not self.mentions.get(name):
                raise ValueError(f"lexicon missing mention phrases for {name!r}")
        # first token -> [(tokens, length, kind)], kind a pathology's index or a cue kind
        index: dict[str, list[tuple[list[str], int, object]]] = {}
        phrases = [(p, k) for k, name in enumerate(PATHOLOGIES) for p in self.mentions[name]]
        phrases += [(c, "negation") for c in self.negations]
        phrases += [(c, "uncertainty") for c in self.uncertainties]
        for phrase, kind in phrases:
            toks = tokenize(phrase)
            if not toks:
                raise ValueError(f"lexicon phrase {phrase!r} has no tokens")
            if isinstance(kind, str) and phrase != phrase.lower():
                raise ValueError(f"cue {phrase!r} must be lowercase")
            index.setdefault(toks[0], []).append((toks, len(toks), kind))
        object.__setattr__(self, "_index", index)

    @classmethod
    def load(cls, path) -> "Lexicon":
        with reading(path) as data:
            payload = json_value(data)
            if not isinstance(payload, dict) or not _LEXICON_KEYS <= payload.keys():
                raise FormatError(f"a lexicon must be a JSON object with keys "
                                  f"{', '.join(sorted(_LEXICON_KEYS))}")
            mentions = payload["mentions"]
            if not (isinstance(mentions, dict) and all(map(is_str_list, mentions.values()))
                    and is_str_list(payload["negations"])
                    and is_str_list(payload["uncertainties"])):
                raise FormatError("lexicon mentions must map names to lists of strings, "
                                  "and negations and uncertainties must be lists of strings")
            return cls(
                mentions=mentions,
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


_split_sentences = re.compile(r"[.;:]").split
_VERDICTS = (BLANK, NEGATIVE, UNCERTAIN, POSITIVE)  # indexed by rank: 1 > -1 > 0 > blank


def _sentence_verdicts(sentence: str, lexicon: Lexicon) -> int:
    """One sentence's verdicts as bits: a verdict of rank r (1, 2, 3 for 0, -1, 1) on
    pathology k sets bit 3k + r - 1, and a blank sets none. The sentence's tokens are
    walked once, testing at each token only the lexicon phrases that start with it."""
    toks = tokenize(sentence)
    found: dict[object, list[tuple[int, int]]] = {}  # kind -> [(start, end)]
    for start, tok in enumerate(toks):
        for phrase, n, kind in lexicon._index.get(tok, ()):
            if toks[start : start + n] == phrase:
                found.setdefault(kind, []).append((start, start + n))
    bits = 0
    uncertain_here = "uncertainty" in found
    neg_ends = [end for _, end in found.get("negation", ())]
    for k in range(len(PATHOLOGIES)):
        for start, _ in found.get(k, ()):
            if uncertain_here:
                rank = 2
            elif any(0 <= start - end <= lexicon.negation_window for end in neg_ends):
                rank = 1
            else:
                rank = 3
            bits |= 1 << (3 * k + rank - 1)
    return bits


def label_report(text: str, lexicon: Lexicon, seen: dict | None = None) -> LabelVector:
    """Label one report; total over all inputs including the empty string.

    Per sentence and pathology: no phrase -> blank; phrase in a sentence with
    any uncertainty cue -> -1; phrase with a negation cue in scope -> 0;
    otherwise 1. Across sentences the strongest verdict wins: 1 > -1 > 0.

    `seen` is a dict the caller owns and passes, with the same lexicon, to every
    call that may share its work. It maps each sentence met to its verdict bits,
    so a repeated sentence is tokenized and matched once, and each rank tuple to
    one shared LabelVector.
    """
    seen = {} if seen is None else seen
    bits = 0
    for sentence in _split_sentences(text):
        verdicts = seen.get(sentence)
        if verdicts is None:
            verdicts = seen[sentence] = _sentence_verdicts(sentence, lexicon)
        bits |= verdicts
    # each pathology's rank is the highest of its three bits set
    ranks = tuple((bits >> 3 * k & 7).bit_length() for k in range(len(PATHOLOGIES)))
    vector = seen.get(ranks)
    if vector is None:
        vector = seen[ranks] = LabelVector(tuple(_VERDICTS[r] for r in ranks))
    return vector


def labels_to_matrix(label_vectors, uncertain_policy: str = "exclude"):
    """Binary per-pathology targets plus a validity mask.

    blank maps to 0 (unmentioned means absent); uncertain (-1) follows
    `uncertain_policy`: exclude (masked out), pos, neg.
    Returns (y, mask) both shaped [N x 5].
    """
    if uncertain_policy not in ("exclude", "pos", "neg"):
        raise ValueError(f"unknown uncertain policy {uncertain_policy!r}")
    v = np.array([lv.values for lv in label_vectors],  # a blank, None, becomes nan
                 dtype=np.float64).reshape(-1, len(PATHOLOGIES))
    uncertain = v == UNCERTAIN
    y = (v == POSITIVE) | (uncertain & (uncertain_policy == "pos"))
    return y.astype(np.float64), ~(uncertain & (uncertain_policy == "exclude"))


def label_matrix(records, uncertain_policy: str = "exclude"):
    """labels_to_matrix over StudyRecords; every record must be labeled."""
    for rec in records:
        if rec.labels is None:
            raise ValueError(f"record {rec.study_id!r} has no labels")
    return labels_to_matrix([rec.labels for rec in records],
                            uncertain_policy=uncertain_policy)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def write_manifest(records, path) -> None:
    """One JSON object per line, keys sorted; images referenced by path, not inlined.

    `study_id`, `view`, `report_text` and `image_path` must be strings (`image_path`
    may be None); another type raises TypeError. The bytes are those of
    json.JSONEncoder(sort_keys=True): each line fills one template with each string
    escaped as that encoder escapes it, encoding each labels object once.
    """
    write_file(path, "".join(_manifest_lines(records)))


def _manifest_lines(records):
    labels_json = {}  # id -> (labels, its JSON); holding the labels keeps the id theirs
    for rec in records:
        labels = rec.labels
        if id(labels) not in labels_json:
            labels_json[id(labels)] = labels, json.dumps(labels if labels is None
                                                         else labels.as_list())
        image_path = "null" if rec.image_path is None else _json_str(rec.image_path)
        yield (f'{{"image_path": {image_path}, "labels": {labels_json[id(labels)][1]}, '
               f'"report": {_json_str(rec.report_text)}, '
               f'"study_id": {_json_str(rec.study_id)}, "view": {_json_str(rec.view)}}}\n')


_json_str = json.encoder.encode_basestring_ascii
_SCAN = json.JSONDecoder().scan_once
_SPACES = re.compile(r"[ \t\r]*").match  # the blanks json.loads skips around a line's value
_KEYS = frozenset({"study_id", "view", "report", "image_path", "labels"})
_STRING_KEYS = ("study_id", "view", "report", "image_path")
_LABEL_TYPES = frozenset({int, type(None)})


def _manifest_rows(text: str):
    """(line number, JSON value) for each non-blank line of `text`, lines ending at "\n".

    The C scanner reads each value in place in `text`, from the line's first non-blank
    character. A line it does not read whole, to the line's end past trailing blanks,
    goes to json.loads on its own, so every value and every error is the one json.loads
    gives for that line.
    """
    n, stop, size = 0, -1, len(text)
    while stop < size:
        n, line_start = n + 1, stop + 1
        stop = text.find("\n", line_start)
        if stop < 0:
            stop = size
        # a line starting with "{" has no leading blanks, and a value ending at the
        # line's end no trailing ones: most manifest lines need neither match
        start = (line_start if text.startswith("{", line_start)
                 else _SPACES(text, line_start).end())
        try:
            row, end = _SCAN(text, start)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != stop and (end < 0 or _SPACES(text, end).end() != stop):
            line = text[line_start:stop]
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"line {n} column {exc.colno}: {exc.msg}") from exc
            except RecursionError as exc:
                raise FormatError(f"line {n}: {exc}") from exc
        yield n, row


def read_manifest(path) -> list[StudyRecord]:
    """Parse a JSONL manifest (lines end at "\n"): each line needs `study_id` and `view`,
    may add only `report`, `image_path` and `labels`, and no two share a `study_id`.
    A string whose escapes decode to a lone surrogate, which UTF-8 cannot encode, is a
    format error."""
    records, first_line, vectors = [], {}, {}  # vectors: one LabelVector per labels tuple
    with reading(path) as data:
        text = data.decode("utf-8")
        check_surrogates = has_surrogate_escape(text) is not None
        for n, row in _manifest_rows(text):
            # JSON yields exact types, so `type(x) is str` accepts what isinstance accepts
            if type(row) is not dict or "study_id" not in row or "view" not in row:
                raise FormatError(f"line {n}: expected a JSON object with 'study_id' and 'view'")
            if not _KEYS.issuperset(row):
                raise FormatError(f"line {n}: unknown key {min(row.keys() - _KEYS)!r}")
            study_id, view, report = row["study_id"], row["view"], row.get("report", "")
            image_path, labels = row.get("image_path"), row.get("labels")
            # labels are ints or null: a JSON true or 1.0 equals 1 but is no label
            if not (type(study_id) is str and type(view) is str and type(report) is str
                    and (image_path is None or type(image_path) is str)
                    and (labels is None or type(labels) is list
                         and _LABEL_TYPES.issuperset(map(type, labels)))):
                raise FormatError(f"line {n}: 'study_id', 'view' and 'report' must be "
                                  f"strings, 'image_path' a string or null and 'labels' a "
                                  f"list of integers or nulls")
            if check_surrogates:
                for key in _STRING_KEYS:
                    try:
                        (row.get(key) or "").encode("utf-8")
                    except UnicodeEncodeError:
                        raise FormatError(f"line {n}: {key!r} holds a lone surrogate, which "
                                          f"UTF-8 cannot encode") from None
            if study_id in first_line:
                raise ConsistencyError(f"manifest {path} line {n}: study_id {study_id!r} "
                                       f"repeats line {first_line[study_id]}")
            first_line[study_id] = n
            try:
                if labels is not None:
                    labels = tuple(labels)
                    if labels not in vectors:
                        vectors[labels] = LabelVector(labels)
                    labels = vectors[labels]
                # positional: keywords cost a dataclass __init__ ~0.5 us a record
                records.append(StudyRecord(study_id, view, report, image_path, None, labels))
            except ValueError as exc:  # the right type, out of range: the CLI's exit 1
                raise ValueError(f"manifest {path} line {n}: {exc}") from exc
    return records


def filter_with_report(records) -> list[StudyRecord]:
    """Keep records whose report text is non-empty, preserving order."""
    return [r for r in records if r.report_text.strip()]


def manifest_hash(records) -> str:
    """SHA-256 of the study ids in order, each UTF-8 encoded and followed by a NUL byte."""
    return hashlib.sha256(b"".join(rec.study_id.encode("utf-8") + b"\0"
                                   for rec in records)).hexdigest()


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
        write_json(path, {"seed": self.seed, "source_hash": self.source_hash,
                          "splits": self.splits})


def make_splits(records, sizes: dict, seed: int) -> SplitManifest:
    """Seeded sampling without replacement into named splits.

    `sizes` maps split name to a count (an integer >= 0), or to "rest" for
    at most one split that absorbs the remainder. Requesting more records
    than available raises SplitSizeError.
    """
    ids = [r.study_id for r in records]
    rest_names = [name for name, v in sizes.items() if v == "rest"]
    if len(rest_names) > 1:
        raise ValueError(f"only one split may be 'rest', got {rest_names}")
    counts = {name: check_number(f"sizes entry {name!r}", v, integer=True, minimum=0)
              for name, v in sizes.items() if v != "rest"}
    requested = sum(counts.values())
    if requested > len(ids):
        raise SplitSizeError(requested, len(ids))

    order = np.random.default_rng(seed).permutation(len(ids))
    # the piece past the last count is the remainder, kept only for a "rest" split
    pieces = np.split(order, np.cumsum(list(counts.values()), dtype=int))
    splits = {name: [ids[i] for i in piece] for name, piece in zip([*counts, *rest_names], pieces)}
    return SplitManifest(seed=int(seed), splits=splits, source_hash=manifest_hash(records))


def build_single_disease_subset(records, per_class_cap: int, seed: int) -> dict:
    """IDs of records positive for exactly one pathology, per pathology.

    A -1 anywhere disqualifies a record. Candidate lists longer than the cap
    are truncated by seeded sampling. Returns {"cap", "seed", "classes":
    {name: {"count", "study_ids"}}}; empty classes report count 0.
    """
    candidates: dict[str, list[str]] = {name: [] for name in PATHOLOGIES}
    for rec in records:
        vals = () if rec.labels is None else rec.labels.values
        if UNCERTAIN not in vals and vals.count(POSITIVE) == 1:
            candidates[PATHOLOGIES[vals.index(POSITIVE)]].append(rec.study_id)

    rng = np.random.default_rng(seed)
    for name, pool in candidates.items():
        if len(pool) > per_class_cap:
            pick = rng.choice(len(pool), size=per_class_cap, replace=False)
            candidates[name] = [pool[i] for i in sorted(pick)]
    return {"cap": int(per_class_cap), "seed": int(seed), "classes": {
        name: {"count": len(ids), "study_ids": ids} for name, ids in candidates.items()}}


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
        for name, minimum in (("n_classes", 1), ("n_train", 0), ("n_heldout", 0),
                              ("image_size", 1)):
            check_number(name, getattr(self, name), integer=True, minimum=minimum)
        self.region_grid = check_grid("region_grid", self.region_grid)
        check_number("noise", self.noise)
        check_number("background", self.background)
        if not 1 <= self.n_classes <= len(PATHOLOGIES):
            raise ValueError(f"n_classes must be in 1..{len(PATHOLOGIES)}")
        gr, gc = self.region_grid
        if self.image_size % gr or self.image_size % gc:
            raise ValueError("image_size must be divisible by the region grid")
        if gr * gc < self.n_classes:
            raise ValueError("need at least one region per class")
        # every study's float64 image is held until the corpus is written
        studies = self.n_train + self.n_heldout
        n_bytes = studies * self.image_size ** 2 * 8
        try:
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, OSError, ValueError):  # the OS does not say: no check
            memory = n_bytes
        if n_bytes > memory:
            raise ParameterError(f"n_train + n_heldout = {studies:,} studies at image_size "
                                 f"{self.image_size} need {n_bytes:,} bytes of float64 images, "
                                 f"more than the machine's {memory:,} bytes of physical memory")


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
    matches what label_report derives from a lexicon whose one mention
    phrase per pathology is its name.
    """
    rng = np.random.default_rng(seed)
    gr, gc = config.region_grid
    region_h, region_w = config.image_size // gr, config.image_size // gc
    homes = _home_regions(gr * gc, config.n_classes)
    zones = [r for r in range(gr * gc) if r not in homes]

    # fixed pattern library: one texture per (home region, severity) and
    # per (zone, active level); drawn once so studies share them exactly
    home_tex = {
        (home, sev): _texture(rng, (region_h, region_w), 0.1, 0.9)
        for home in homes
        for sev in range(len(_SEVERITIES))
    }
    zone_tex = {
        (z, level): _texture(rng, (region_h, region_w), 0.2, 0.8)
        for z in zones
        for level in range(1, len(_ZONE_LEVELS))
    }

    n_combos = len(_SEVERITIES) * len(_ZONE_LEVELS) ** len(zones)
    train, heldout = [], []
    for k, (home, name) in enumerate(zip(homes, PATHOLOGIES)):
        want_train, want_held = (total // config.n_classes + (k < total % config.n_classes)
                                 for total in (config.n_train, config.n_heldout))
        want = want_train + want_held
        codes = (rng.permutation(n_combos)[:want] if want <= n_combos
                 else rng.integers(0, n_combos, size=want))
        for j, code in enumerate(codes):
            code, sev = divmod(int(code), len(_SEVERITIES))
            tiles = np.full((gr, gc, region_h, region_w), config.background)
            tiles[divmod(home, gc)] = home_tex[(home, sev)]
            active = []
            for z in zones:
                code, level = divmod(code, len(_ZONE_LEVELS))
                if level:
                    tiles[divmod(z, gc)] = zone_tex[(z, level)]
                    active.append(f"z{z}{_ZONE_LEVELS[level]}")
            pixels = tiles.swapaxes(1, 2).reshape(config.image_size, config.image_size)
            if config.noise > 0:
                pixels = pixels + rng.uniform(-config.noise, config.noise, pixels.shape)
            pixels = np.clip(pixels, 0.0, 1.0)
            # snap to the 8-bit grid so in-memory pixels match a PGM round trip
            pixels = np.round(pixels * 255.0) / 255.0

            positive = _POSITIVE_TEMPLATES[int(rng.integers(len(_POSITIVE_TEMPLATES)))]
            distractor = _DISTRACTORS[int(rng.integers(len(_DISTRACTORS)))]
            report = (f"{positive.format(sev=_SEVERITIES[sev], phrase=name)}. "
                      f"pattern codes {' '.join(active) or 'none'}. {distractor}.")
            (train if j < want_train else heldout).append(StudyRecord(
                study_id=f"synth-{len(train) + len(heldout):05d}", report_text=report,
                image=ImageGrid(pixels, region_grid=config.region_grid),
                labels=LabelVector.positive_for(name)))

    return tuple([split[i] for i in rng.permutation(len(split))] for split in (train, heldout))
