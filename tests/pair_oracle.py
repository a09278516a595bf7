"""Per-pair global+local scores composed from small taped ops.

This is the unbatched form of the score that `crossmodal.pairwise_scores`
computes in one batched op: every image/text pair runs through a
similarity matrix, a sharpened attention softmax, per-word cosines and a
log-sum-exp, each a separately taped op. Tests use it as the oracle for the
batched kernel's values and gradients.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from glre import numerics as nm
from glre.errors import ParameterError, ShapeError
from glre.numerics import Tensor

import reference_ops as ref


class AttentionMap(NamedTuple):
    """Per-word attention weights over regions plus the context vectors."""

    weights: Tensor
    contexts: Tensor


def similarity_matrix(words: Tensor, regions: Tensor) -> Tensor:
    """Word x region cosines of unit-norm rows; entries must lie in [-1, 1]."""
    if words.ndim != 2 or regions.ndim != 2:
        raise ShapeError(f"similarity needs 2-D inputs, got {words.shape} and {regions.shape}")
    if words.shape[1] != regions.shape[1]:
        raise ShapeError(f"feature dims differ: words {words.shape} vs regions {regions.shape}")
    sims = ref.matmul(words, ref.transpose(regions))
    if sims.size and np.abs(sims.data).max() > 1.0 + 1e-9:
        raise ValueError("similarity entries exceed [-1, 1]; rows must be unit-norm")
    return sims


def attention_contexts(sims: Tensor, regions: Tensor, lambda1: float) -> AttentionMap:
    """Sharpened per-word softmax over regions and the resulting contexts."""
    if lambda1 <= 0:
        raise ParameterError(f"attention sharpening must be positive, got {lambda1}")
    if regions.ndim != 2 or sims.shape[1] != regions.shape[0]:
        raise ShapeError(f"similarity {sims.shape} does not match regions {regions.shape}")
    weights = ref.softmax_rows(sims, lambda1)
    return AttentionMap(weights=weights, contexts=ref.matmul(weights, regions))


def local_alignment_score(att: AttentionMap, words: Tensor, lambda2: float) -> Tensor:
    """(1/lambda2) * log sum_t exp(lambda2 * cos(context_t, word_t))."""
    if lambda2 <= 0:
        raise ParameterError(f"aggregation sharpening must be positive, got {lambda2}")
    cosines = ref.rowwise_cosine(att.contexts, words)
    return ref.scale(ref.logsumexp_rows(ref.scale(cosines, lambda2)), 1.0 / lambda2)


def global_similarity(g_img: Tensor, g_txt: Tensor) -> Tensor:
    """Dot product of the two (1, D) global rows (cosine, both unit-norm)."""
    if g_img.shape != g_txt.shape or g_img.ndim != 2 or g_img.shape[0] != 1:
        raise ShapeError(
            f"global rows must be matching (1, D), got {g_img.shape} and {g_txt.shape}")
    return ref.tensor_sum(ref.mul(g_img, g_txt))


def local_score(img, txt, lambda1: float, lambda2: float) -> Tensor:
    """Local alignment of one text's words against one image's regions.

    Uses the raw word x region products, so rows need not be unit-norm.
    """
    sims = ref.matmul(txt.local, ref.transpose(img.local))
    att = attention_contexts(sims, img.local, lambda1)
    return local_alignment_score(att, txt.local, lambda2)


def pairwise_oracle(image_feats, text_feats, lambda1: float, lambda2: float):
    """Global and local score matrices, one pair at a time, as numpy arrays."""
    g = np.array([[global_similarity(i.global_feat, t.global_feat).item()
                   for t in text_feats] for i in image_feats])
    l = np.array([[local_score(i, t, lambda1, lambda2).item()
                   for t in text_feats] for i in image_feats])
    return g, l
