"""Global+local pairwise scores and the contrastive losses built on them.

The cross-modal score of an image/text pair has a global part (cosine of the
two global vectors) and a local part: each word attends over the image
regions via a sharpened softmax of the word x region similarities, and the
per-word cosines between words and their attention contexts are folded with
a smooth maximum. ``pairwise_scores`` computes both parts for every pair of a
batch as two taped ops with hand-written adjoints; training, zero-shot
scoring and retrieval all call it. Batch losses are symmetric InfoNCE terms
over the two score matrices in both pairing directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError
from . import numerics as nm
from .numerics import _NORM_FLOOR, Tensor


@dataclass
class LossConfig:
    """Temperatures, sharpenings, and component weights for total_loss."""

    lambda1: float = 4.0
    lambda2: float = 5.0
    tau_global: float = 0.1
    tau_local: float = 0.1
    weight_global_i2t: float = 1.0
    weight_global_t2i: float = 1.0
    weight_local_i2t: float = 1.0
    weight_local_t2i: float = 1.0

    def __post_init__(self):
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ParameterError("sharpening factors must be positive")
        if self.tau_global <= 0 or self.tau_local <= 0:
            raise ParameterError("temperatures must be positive")


@dataclass
class LossBreakdown:
    """The four directional contrastive terms and their weighted sum."""

    global_i2t: Tensor
    global_t2i: Tensor
    local_i2t: Tensor
    local_t2i: Tensor
    total: Tensor
    config: LossConfig

    def as_dict(self) -> dict[str, float]:
        return {
            "global_i2t": self.global_i2t.item(),
            "global_t2i": self.global_t2i.item(),
            "local_i2t": self.local_i2t.item(),
            "local_t2i": self.local_t2i.item(),
            "total": self.total.item(),
        }


def contrastive_loss_batch(pairwise: Tensor, tau: float, direction: str = "i2t") -> Tensor:
    """Symmetric-InfoNCE term over one direction of a pairwise score matrix.

    i2t treats rows as candidate texts for each image; t2i uses columns.
    mean_i of log-sum-exp_j(pairwise[i,j]/tau) - pairwise[i,i]/tau, which is
    the mean negative log posterior of the matched pairing.
    """
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    if direction not in ("i2t", "t2i"):
        raise ValueError(f"direction must be i2t or t2i, got {direction!r}")
    p = pairwise if isinstance(pairwise, Tensor) else nm.constant(pairwise)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ShapeError(f"pairwise matrix must be square, got {p.shape}")
    if direction == "t2i":
        p = nm.transpose(p)
    b = p.shape[0]
    scaled = nm.scale(p, 1.0 / tau)
    lse = nm.logsumexp_rows(scaled)
    diag = nm.row_sums(nm.mul(scaled, nm.identity(b)))
    return nm.tensor_mean(nm.add(lse, nm.scale(diag, -1.0)))


class Attention(NamedTuple):
    """One image's word-to-region attention against a padded text batch.

    Shapes: B texts, T padded words, R regions, D features. Norms read 1
    where a cosine is guarded, so dividing by them is always safe.
    """

    weights: np.ndarray        # (B, T, R) sharpened softmax over regions
    contexts: np.ndarray       # (B, T, D) attention-weighted regions
    context_norms: np.ndarray  # (B, T)
    word_norms: np.ndarray     # (B, T)
    cosines: np.ndarray        # (B, T) cosine(context, word), 0 where guarded
    cosine_grads: np.ndarray   # (B, T) d score / d cosine, 0 where guarded or padded
    scores: np.ndarray         # (B,) local alignment score per text


def attend(regions: np.ndarray, words: np.ndarray, mask: np.ndarray,
           lambda1: float, lambda2: float) -> Attention:
    """Local alignment of one image's regions against every text at once.

    Z = (1/lambda2) * log sum_t exp(lambda2 * cos(c_t, w_t)) over the words
    that `mask` keeps, with contexts c_t = softmax_r(lambda1 * w_t . v_r) @ V.
    A context or word whose norm is below 1e-12 gets cosine 0 and no
    gradient, the same guard as ``rowwise_cosine``.
    """
    b, t, d = words.shape
    sims = (words.reshape(b * t, d) @ regions.T).reshape(b, t, -1)
    z = lambda1 * sims
    e = np.exp(z - z.max(axis=2, keepdims=True))
    weights = e / e.sum(axis=2, keepdims=True)
    contexts = (weights.reshape(b * t, -1) @ regions).reshape(b, t, d)
    cn = np.sqrt((contexts * contexts).sum(axis=2))
    wn = np.sqrt((words * words).sum(axis=2))
    ok = (cn > _NORM_FLOOR) & (wn > _NORM_FLOOR)
    cn, wn = np.where(ok, cn, 1.0), np.where(ok, wn, 1.0)
    cosines = np.where(ok, (contexts * words).sum(axis=2) / (cn * wn), 0.0)
    x = np.where(mask, lambda2 * cosines, -np.inf)
    m = x.max(axis=1, keepdims=True)
    ex = np.exp(x - m)
    total = ex.sum(axis=1, keepdims=True)
    scores = (m[:, 0] + np.log(total[:, 0])) * (1.0 / lambda2)
    return Attention(weights, contexts, cn, wn, cosines, ex / total * ok, scores)


def _attend_adjoint(att: Attention, regions: np.ndarray, words: np.ndarray,
                    lambda1: float, g: np.ndarray):
    """Gradients of sum_j g[j] * scores[j] w.r.t. regions (R, D) and words (B, T, D)."""
    b, t, d = words.shape
    r = regions.shape[0]
    g_cos = (g[:, None] * att.cosine_grads)[..., None]
    cn, wn = att.context_norms[..., None], att.word_norms[..., None]
    cos = att.cosines[..., None]
    g_ctx = (g_cos / cn * (words / wn - cos * att.contexts / cn)).reshape(b * t, d)
    g_words = g_cos / wn * (att.contexts / cn - cos * words / wn)
    w_flat = att.weights.reshape(b * t, r)
    g_w = g_ctx @ regions.T
    g_sims = lambda1 * w_flat * (g_w - (g_w * w_flat).sum(axis=1, keepdims=True))
    g_regions = w_flat.T @ g_ctx + g_sims.T @ words.reshape(b * t, d)
    return g_regions, g_words + (g_sims @ regions).reshape(b, t, d)


def pairwise_scores(image_feats, text_feats, config: LossConfig):
    """Global and local B_i x B_t score matrices; [i, j] scores image i vs text j.

    Each matrix is one taped op with a hand-written adjoint. The global one
    is a single matmul of the stacked global vectors. The local one pads the
    texts to the longest and runs ``attend`` once per image across all texts;
    its adjoint recomputes each image's slab, so no (B_i, B_t, T, D) array is
    ever held.
    """
    if not image_feats or not text_feats:
        raise ShapeError(f"empty batch: {len(image_feats)} images, {len(text_feats)} texts")
    dim = image_feats[0].local.shape[-1]
    for f in (*image_feats, *text_feats):
        if (f.local.ndim != 2 or f.local.shape[0] == 0 or f.local.shape[1] != dim
                or f.global_feat.shape != (dim,)):
            raise ShapeError(f"{f.modality} features need non-empty (n, {dim}) local rows "
                             f"and a ({dim},) global vector, got {f.local.shape} and "
                             f"{f.global_feat.shape}")

    img_g = tuple(f.global_feat for f in image_feats)
    txt_g = tuple(f.global_feat for f in text_feats)
    gi = np.stack([t.data for t in img_g])
    gt = np.stack([t.data for t in txt_g])

    def global_bw(g):
        return (*(g @ gt), *(g.T @ gi))

    global_matrix = nm._emit(gi @ gt.T, img_g + txt_g, global_bw)

    img_l = tuple(f.local for f in image_feats)
    txt_l = tuple(f.local for f in text_feats)
    lengths = [t.shape[0] for t in txt_l]
    words = np.zeros((len(txt_l), max(lengths), dim))
    for j, t in enumerate(txt_l):
        words[j, : lengths[j]] = t.data
    mask = np.arange(words.shape[1]) < np.array(lengths)[:, None]
    lam1, lam2 = config.lambda1, config.lambda2
    local = np.stack([attend(v.data, words, mask, lam1, lam2).scores for v in img_l])

    def local_bw(g):
        g_regions = []
        g_words = np.zeros_like(words)
        for v, g_row in zip(img_l, g):
            att = attend(v.data, words, mask, lam1, lam2)
            gv, gw = _attend_adjoint(att, v.data, words, lam1, g_row)
            g_regions.append(gv)
            g_words += gw
        return (*g_regions, *(g_words[j, :n] for j, n in enumerate(lengths)))

    local_matrix = nm._emit(local, img_l + txt_l, local_bw)
    return global_matrix, local_matrix


def total_loss(image_feats, text_feats, config: LossConfig | None = None) -> LossBreakdown:
    """Weighted sum of the four directional contrastive terms."""
    config = config if config is not None else LossConfig()
    global_matrix, local_matrix = pairwise_scores(image_feats, text_feats, config)
    g_i2t = contrastive_loss_batch(global_matrix, config.tau_global, "i2t")
    g_t2i = contrastive_loss_batch(global_matrix, config.tau_global, "t2i")
    l_i2t = contrastive_loss_batch(local_matrix, config.tau_local, "i2t")
    l_t2i = contrastive_loss_batch(local_matrix, config.tau_local, "t2i")
    total = nm.add(
        nm.add(nm.scale(g_i2t, config.weight_global_i2t),
               nm.scale(g_t2i, config.weight_global_t2i)),
        nm.add(nm.scale(l_i2t, config.weight_local_i2t),
               nm.scale(l_t2i, config.weight_local_t2i)),
    )
    return LossBreakdown(global_i2t=g_i2t, global_t2i=g_t2i,
                         local_i2t=l_i2t, local_t2i=l_t2i,
                         total=total, config=config)
