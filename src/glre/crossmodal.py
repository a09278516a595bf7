"""Global+local pairwise scores and the contrastive losses built on them.

The cross-modal score of an image/text pair has a global part (cosine of the
two global vectors) and a local part: each word attends over the image
regions via a sharpened softmax of the word x region similarities, and the
per-word cosines between words and their attention contexts are folded with
a smooth maximum. ``pairwise_scores`` computes both parts for every pair of a
batch as two taped ops with hand-written adjoints; training, zero-shot
scoring and retrieval all call it. Batch losses are symmetric InfoNCE terms
over the two score matrices in both pairing directions.

The local kernel (``align`` and its adjoint) scores a block of images
against all padded words at once and does its elementwise work in region
space (R regions), not feature space (D features): the similarities and
attention weights come from matmuls, and the context . word dot is
sum_r a_r s_r. Only the context norm needs the (images, words, D) contexts
c = a V: one GEMM writes them and one ``einsum`` reads them. The norm is not
taken from the region Gram as a (V V^T) a^T, because that form cancels when
|c| is much smaller than |v| and loses the score's precision there. Blocks
are sized so that one context slab stays within ``_BLOCK_ELEMENTS``, which
bounds the memory of large calls such as 200 x 200 retrieval. A taped call
keeps each block's region-sized state for the adjoint; a forward-only call
keeps nothing.
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


# Block budget of the local kernel: a block of images is sized so that its
# (images, words, features) context slab holds at most this many float64
# elements (512 KiB), unless one image's slab alone is larger.
_BLOCK_ELEMENTS = 1 << 16


class Alignment(NamedTuple):
    """Local alignment of a block of I images against N = B*T padded words.

    Everything here is region-sized or smaller, so a taped call keeps it for
    the adjoint. Norms read 1 where a cosine is guarded, so dividing by them
    is always safe.
    """

    sims: np.ndarray           # (N, I, R) word . region products
    weights: np.ndarray        # (N, I, R) sharpened softmax over regions
    context_norms: np.ndarray  # (N, I)
    cosines: np.ndarray        # (N, I) cosine(context, word), 0 where guarded
    word_weights: np.ndarray   # (N, I) d score / d cosine, 0 where guarded or padded
    scores: np.ndarray         # (I, B) local alignment score per image and text


def align(regions: np.ndarray, words: np.ndarray, word_norms: np.ndarray,
          mask: np.ndarray, lambda1: float, lambda2: float) -> Alignment:
    """Local alignment of a block of images against every text at once.

    `regions` is (I, R, D); `words` is (N, D), the rows of B texts padded to
    T words each (N = B*T); `word_norms` is (N,); `mask` is (B, T) and keeps
    the real words. Z = (1/lambda2) * log sum_t exp(lambda2 * cos(c_t, w_t))
    over the kept words, with contexts c_t = a_t V and attention weights
    a_t = softmax_r(lambda1 * s_t), s_t = w_t V^T. The dot c_t . w_t is
    sum_r a_tr s_tr; |c_t| comes from the context itself (see the module
    docstring). A context or word whose norm is below 1e-12 gets cosine 0
    and no gradient, the same guard as ``rowwise_cosine``.
    """
    n_img, r, d = regions.shape
    b, t = mask.shape
    sims = (words @ regions.reshape(n_img * r, d).T).reshape(b * t, n_img, r)
    z = lambda1 * sims
    e = np.exp(z - z.max(axis=2, keepdims=True))
    weights = e / e.sum(axis=2, keepdims=True)
    dots = np.einsum("nir,nir->ni", weights, sims)
    contexts = np.matmul(weights.transpose(1, 0, 2), regions)
    cn = np.sqrt(np.einsum("ind,ind->ni", contexts, contexts))
    ok = (cn > _NORM_FLOOR) & (word_norms > _NORM_FLOOR)[:, None]
    cn = np.where(ok, cn, 1.0)
    wn = np.where(ok, word_norms[:, None], 1.0)
    cosines = np.where(ok, dots / (cn * wn), 0.0)
    x = np.where(mask.reshape(-1, 1), lambda2 * cosines, -np.inf).reshape(b, t, n_img)
    m = x.max(axis=1, keepdims=True)
    ex = np.exp(x - m)
    total = ex.sum(axis=1, keepdims=True)
    scores = ((m[:, 0] + np.log(total[:, 0])) * (1.0 / lambda2)).T
    word_weights = (ex / total).reshape(b * t, n_img) * ok
    return Alignment(sims, weights, cn, cosines, word_weights, scores)


def _align_adjoint(al: Alignment, regions: np.ndarray, words: np.ndarray,
                   word_norms: np.ndarray, lambda1: float, g: np.ndarray):
    """Gradients of sum g * al.scores w.r.t. regions (I, R, D) and words (N, D)."""
    n_img, r, d = regions.shape
    b = g.shape[1]
    g_cos = (g.T[:, None, :] * al.word_weights.reshape(b, -1, n_img)).reshape(-1, n_img)
    wn = np.where(word_norms > _NORM_FLOOR, word_norms, 1.0)
    g_dot = g_cos / (al.context_norms * wn[:, None])
    g_cn = g_cos * al.cosines / al.context_norms ** 2  # |c| passes -g_cn * c to c
    a = al.weights
    contexts = np.matmul(a.transpose(1, 0, 2), regions)
    cv = np.matmul(contexts, regions.transpose(0, 2, 1)).transpose(1, 0, 2)
    g_a = g_dot[..., None] * al.sims - g_cn[..., None] * cv
    g_s = (lambda1 * (g_a - np.einsum("nir,nir->ni", g_a, a)[..., None]) + g_dot[..., None]) * a
    g_s = g_s.reshape(-1, n_img * r)
    g_regions = ((g_s.T @ words).reshape(n_img, r, d)
                 - np.matmul((a * g_cn[..., None]).transpose(1, 2, 0), contexts))
    g_words = (g_s @ regions.reshape(n_img * r, d)
               - ((g_cos * al.cosines).sum(axis=1) / wn ** 2)[:, None] * words)
    return g_regions, g_words


def pairwise_scores(image_feats, text_feats, config: LossConfig):
    """Global and local B_i x B_t score matrices; [i, j] scores image i vs text j.

    Each matrix is one taped op with a hand-written adjoint. The global one
    is a single matmul of the stacked global vectors. The local one pads the
    texts to the longest and runs ``align`` over blocks of images with equal
    region counts, each block's context slab within ``_BLOCK_ELEMENTS``
    elements. Under a recording tape each block's region-sized state is kept
    for the adjoint, which rebuilds only the block's contexts; no
    (B_i, B_t, T, D) array is ever held.
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
    padded = np.zeros((len(txt_l), max(lengths), dim))
    for j, t in enumerate(txt_l):
        padded[j, : lengths[j]] = t.data
    mask = np.arange(padded.shape[1]) < np.array(lengths)[:, None]
    words = padded.reshape(-1, dim)
    word_norms = np.sqrt(np.einsum("nd,nd->n", words, words))
    lam1, lam2 = config.lambda1, config.lambda2
    # the adjoint exists only if _emit will record this op
    keep = nm._active_tape() is not None and any(t.requires_grad for t in img_l + txt_l)
    per_block = max(1, _BLOCK_ELEMENTS // words.size)
    local = np.empty((len(img_l), len(txt_l)))
    kept = []
    start = 0
    while start < len(img_l):
        stop = start + 1
        while (stop < len(img_l) and stop - start < per_block
               and img_l[stop].shape == img_l[start].shape):
            stop += 1
        regions = np.stack([v.data for v in img_l[start:stop]])
        al = align(regions, words, word_norms, mask, lam1, lam2)
        local[start:stop] = al.scores
        if keep:
            kept.append((start, stop, regions, al))
        start = stop

    def local_bw(g):
        g_regions = []
        g_words = np.zeros_like(words)
        for start, stop, regions, al in kept:
            gv, gw = _align_adjoint(al, regions, words, word_norms, lam1, g[start:stop])
            g_regions.extend(gv)
            g_words += gw
        g_words = g_words.reshape(padded.shape)
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
