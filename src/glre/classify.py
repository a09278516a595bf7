"""Downstream heads over trained encoders: linear probe, mixed scores, zero-shot.

The probe is five logistic regressions on frozen global image features,
fitted together: each gradient-descent epoch is one masked GEMM over all
five heads, with single-class or fully masked pathologies left at zero.
Mixed scoring encodes texts as one batch and scores every image against
each by a mix of global cosine and local attention alignment; retrieval
ranks by it and zero-shot averages it over each pathology's prompts. Images
are pooled and encoded in chunks into one batch, whose (N, D) global rows are
the probe's features.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .crossmodal import pairwise_scores
from .datapipe import PATHOLOGIES, labels_to_matrix, tokenize
from . import encoders
from . import numerics as nm
from .encoders import LocalGlobalFeatures, encode_image_patches, encode_text_toy
from .errors import FormatError, ShapeError, check_number, is_str_list
from .files import json_value, reading, write_json
from .trainer import Checkpoint, encode_report


@dataclass
class ProbeConfig:
    epochs: int = 500
    learning_rate: float = 1e-2
    uncertain_policy: str = "exclude"

    def __post_init__(self):
        check_number("epochs", self.epochs, integer=True, minimum=0)
        check_number("learning_rate", self.learning_rate)
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.uncertain_policy not in ("exclude", "pos", "neg"):
            raise ValueError(f"unknown uncertain policy {self.uncertain_policy!r}")


@dataclass
class ProbeModel:
    """Per-pathology logistic weights over frozen D-dim global features."""

    weights: np.ndarray
    bias: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.shape[0] != len(PATHOLOGIES) or self.bias.shape != (len(PATHOLOGIES),):
            raise ShapeError(
                f"probe needs {len(PATHOLOGIES)} output rows, got weights "
                f"{self.weights.shape} and bias {self.bias.shape}"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("probe parameters must be finite")

    def save(self, path) -> None:
        write_json(path, {"weights": self.weights.tolist(), "bias": self.bias.tolist(),
                          "metadata": self.metadata})


def _sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def fit_linear_probe(features, labels, config: ProbeConfig | None = None) -> ProbeModel:
    """Full-batch gradient descent on masked sigmoid cross-entropy.

    `features` is an [N x D] array (or Tensor) of frozen global vectors;
    `labels` a sequence of N LabelVectors. Uncertain labels follow
    config.uncertain_policy; blanks count as negative. A pathology whose
    visible labels are single-class is skipped with a warning and keeps its
    zero initialization. The loss history is taken 16 epochs at a time, in
    place in a preallocated block, with the bits of a per-epoch fit.
    """
    config = config if config is not None else ProbeConfig()
    x = np.asarray(getattr(features, "data", features), dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be [N x D], got shape {x.shape}")

    y, mask = labels_to_matrix(labels, uncertain_policy=config.uncertain_policy)
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"{x.shape[0]} feature rows vs {y.shape[0]} label rows")

    counts = mask.sum(axis=0)
    n_pos = (y * mask).sum(axis=0)
    active = (n_pos > 0) & (n_pos < counts)
    skipped = [name for name, on in zip(PATHOLOGIES, active) if not on]
    for name in skipped:
        warnings.warn(f"probe skips {name!r}: labels are single-class or fully masked")
    keep = mask & active
    step = config.learning_rate / np.maximum(counts, 1)

    w = np.zeros((len(PATHOLOGIES), x.shape[1]))
    b = np.zeros(len(PATHOLOGIES))
    history = []
    eps = 1e-12
    probs, terms = np.empty((2, 16, *y.shape))
    for epoch in range(config.epochs):
        k = epoch % len(probs)
        p = probs[k]
        p[...] = _sigmoid(x @ w.T + b)
        err = np.where(keep, p - y, 0.0)
        # err.T in C order multiplies faster with the same bits (w.T in C order moves them)
        w -= step[:, None] * (err.T.copy() @ x)
        b -= step * err.sum(axis=0)
        if k == len(probs) - 1 or epoch == config.epochs - 1:
            # y is 0 or 1, so y log(p + eps) + (1 - y) log(1 - p + eps) adds 0 * (a finite
            # log), a signed zero, to this one log: no bit changes, also where the log is +0
            ll = np.subtract(1.0, probs[: k + 1], out=terms[: k + 1])
            np.copyto(ll, probs[: k + 1], where=y == 1)
            ll += eps
            np.log(ll, out=ll)
            np.copyto(ll, 0.0, where=~keep)
            losses = -ll.sum(axis=1)[:, active] / counts[active]
            history += losses.mean(axis=1).tolist() if active.any() else [0.0] * (k + 1)
    return ProbeModel(
        weights=w, bias=b,
        metadata={
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "uncertain_policy": config.uncertain_policy,
            "skipped": skipped,
            "final_loss": history[-1] if history else None,
            "loss_history": history,
        },
    )


def probe_predict(model: ProbeModel, features) -> np.ndarray:
    """Sigmoid probabilities, [M x 5]."""
    x = np.asarray(getattr(features, "data", features), dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.weights.shape[1]:
        raise ShapeError(
            f"features {x.shape} do not match probe dimension {model.weights.shape[1]}"
        )
    return _sigmoid(x @ model.weights.T + model.bias)


# ---------------------------------------------------------------------------
# Prompts and zero-shot scoring
# ---------------------------------------------------------------------------


@dataclass
class PromptSet:
    """At least one prompt string per pathology, each holding at least one token.

    Repeated prompts within a class are dropped (first occurrence wins), so
    listing a prompt twice cannot tilt the class mean.
    """

    prompts: dict[str, list[str]]

    def __post_init__(self):
        for name in PATHOLOGIES:
            plist = self.prompts.get(name)
            if not plist:
                raise ValueError(f"prompt set missing pathology {name!r}")
            for p in plist:
                if not tokenize(p):
                    raise ValueError(f"prompt {p!r} for pathology {name!r} has no tokens")
            self.prompts[name] = list(dict.fromkeys(plist))

    @classmethod
    def load(cls, path) -> "PromptSet":
        with reading(path) as data:
            prompts = json_value(data)
            if not (isinstance(prompts, dict) and all(map(is_str_list, prompts.values()))):
                raise FormatError("a prompt file must map names to lists of strings")
        return cls(prompts=prompts)


def default_prompts() -> PromptSet:
    """The pathology name plus two phrase variants per class."""
    return PromptSet(prompts={
        name: [name, f"findings consistent with {name}", f"{name} is present"]
        for name in PATHOLOGIES
    })


def image_features(records, ckpt: Checkpoint) -> LocalGlobalFeatures:
    """Frozen encoder outputs for records carrying inline images, as one batch.

    Images are pooled and encoded in chunks of about CHUNK_PIXELS pixels, each
    written into the batch's preallocated rows; a chunk's rows have the bytes
    the whole batch encoded at once would give them.
    """
    for rec in records:
        if rec.image is None:
            raise ValueError(f"record {rec.study_id!r} has no image attached")
    images = [rec.image for rec in records]
    if not images:
        raise ShapeError("need at least one record with an image")
    lengths = tuple(math.prod(img.region_grid) for img in images)
    rows = np.cumsum((0,) + lengths)
    local = np.empty((rows[-1], ckpt.params.dim))
    global_feat = np.empty((len(images), ckpt.params.dim))
    # BLAS computes a one-row product as a matrix-vector product, whose sums can
    # differ in the last bit from a matrix product's rows, so no chunk holds one
    # image of several: each has at least two, and a last one left alone joins
    # the chunk before it
    step = max(2, encoders.CHUNK_PIXELS // max(1, *(img.pixels.size for img in images)))
    starts = list(range(0, max(len(images) - 1, 1), step))
    for a, b in zip(starts, starts[1:] + [len(images)]):
        # looked up on the module, so a wrapper installed there sees the call
        feats = encode_image_patches(
            encoders.image_patch_matrix(images[a:b], ckpt.params.patch_pool), ckpt.params)
        local[rows[a] : rows[b]] = feats.local.data
        global_feat[a:b] = feats.global_feat.data
    return LocalGlobalFeatures(nm.constant_view(local), nm.constant_view(global_feat),
                               "image", lengths)


def mixed_scores(feats: LocalGlobalFeatures, texts, ckpt: Checkpoint,
                 global_weight: float = 0.5, local_weight: float = 0.5) -> np.ndarray:
    """[M x T] scores of every image against every text string.

    The texts are encoded in one call under the checkpoint's vocabulary and
    scored in one ``pairwise_scores`` call: global_weight * cosine of globals
    plus local_weight * attention alignment of each text's words against the
    image regions.
    """
    encoded = encode_text_toy([encode_report(t, ckpt.vocab, ckpt.config) for t in texts],
                              ckpt.params)
    g, l = pairwise_scores(feats, encoded, ckpt.config.loss)
    return global_weight * g.numpy() + local_weight * l.numpy()


def zero_shot_scores(feats: LocalGlobalFeatures, prompts: PromptSet,
                     ckpt: Checkpoint, global_weight: float = 0.5,
                     local_weight: float = 0.5) -> np.ndarray:
    """[M x 5] class scores: per class, the mean of its prompts' mixed scores.
    All prompts are scored in one ``mixed_scores`` call."""
    mixed = mixed_scores(feats, [p for name in PATHOLOGIES for p in prompts.prompts[name]],
                         ckpt, global_weight, local_weight)
    bounds = np.cumsum([0] + [len(prompts.prompts[name]) for name in PATHOLOGIES])
    return np.stack([mixed[:, a:b].mean(axis=1) for a, b in zip(bounds, bounds[1:])],
                    axis=1)
