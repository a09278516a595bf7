"""The seeded samplers' first form, kept as the oracle for the straight-line ones.

`datapipe.synth_paired_dataset`, `make_splits` and `build_single_disease_subset`
make their random draws in the order these do, with the per-class count, combination
decoding and region paste written out as closures and a cursor. Tests require the
rewritten samplers to give the same records, ids, pixels and order on every input.
"""

import numpy as np

from glre.datapipe import (PATHOLOGIES, POSITIVE, UNCERTAIN, _DISTRACTORS,
                           _POSITIVE_TEMPLATES, _SEVERITIES, _ZONE_LEVELS, LabelVector,
                           SplitManifest, StudyRecord, SynthConfig, _home_regions, _texture,
                           manifest_hash)
from glre.encoders import ImageGrid
from glre.errors import SplitSizeError, check_number


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

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    cursor = 0
    splits: dict[str, list[str]] = {}
    for name, size in counts.items():
        splits[name] = [ids[i] for i in order[cursor : cursor + size]]
        cursor += size
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
