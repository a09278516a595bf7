"""Global+local pairwise scores and the contrastive loss built on them.

The cross-modal score of an image/text pair has a global part (cosine of the
two global vectors) and a local part: each word attends over the image
regions via a sharpened softmax of the word x region similarities, and the
per-word cosines between words and their attention contexts are folded with
a smooth maximum. ``pairwise_scores`` computes both parts for every pair of
an image and a text feature batch, as the encoders emit them, in two taped
ops with hand-written adjoints; training, zero-shot scoring and retrieval
all call it. ``contrastive_loss`` is one more taped op: the symmetric
InfoNCE terms over the two score matrices in both pairing directions,
weighted and summed, with one adjoint for all four.

The local kernel (``align`` and its adjoint) scores a block of I images
against the words of B texts at once, the texts laid end to end. The text
encoder gives every use of a token the same row, so the kernel works on the
U distinct word rows and reads the N word positions through an (N,) index
into them. Its elementwise work is in region space (R regions), not feature
space (D features), and its state is region-major, (I, R, U): one GEMM of
the stacked (I*R, D) regions against the (D, U) words, zero-padded to a
multiple of 8 columns so that its sums do not depend on the BLAS thread
count, gives the similarities, and the sharpened softmax and the context .
word dot sum_r a_r s_r reduce over axis 1. The contexts c = a V are never
formed. Their norms come from the (I, R, R) region Gram: (V V^T) a gives
each c . v_r, and |c|^2 = a . (V V^T) a. That form cancels when |c| is much
smaller than the regions it averages, so the few columns under the cut
|c|^2 < _GRAM_KAPPA (sum_r a_r |v_r|)^2 are recomputed from their explicit
contexts. The adjoint reads the same (V V^T) a and pulls |c| onto the
regions as ((a g) a^T) V, so neither pass holds an (I, U, D) array. Only a
per-word tail is (I, N): each word's cosine, the smooth maximum over each
text's words, and in the adjoint the sum of each word's cosine gradient onto
its row. A taped call keeps the state of every image for its adjoint, so it
runs as one block, on each text batch's own rows. A forward-only call also
merges rows with equal bytes across text batches into one column (seed-7
retrieval's 200 one-report batches: 2,932 rows, 54 columns) and runs in
blocks whose (I, R, U) and (I, N) arrays stay within ``_BLOCK_ELEMENTS``,
which bounds the memory of large calls such as 200 x 200 retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError, check_number
from . import numerics as nm
from .encoders import LocalGlobalFeatures
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
        for f in fields(self):
            check_number(f"loss setting {f.name!r}", getattr(self, f.name))
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ParameterError("sharpening factors must be positive")
        if self.tau_global <= 0 or self.tau_local <= 0:
            raise ParameterError("temperatures must be positive")


@dataclass
class LossBreakdown:
    """The four directional contrastive terms and their weighted, taped sum."""

    global_i2t: float
    global_t2i: float
    local_i2t: float
    local_t2i: float
    total: Tensor

    def as_dict(self) -> dict[str, float]:
        return {
            "global_i2t": self.global_i2t,
            "global_t2i": self.global_t2i,
            "local_i2t": self.local_i2t,
            "local_t2i": self.local_t2i,
            "total": self.total.item(),
        }


def _infonce_rows(z: np.ndarray):
    """mean_i of log-sum-exp_j(z[i, j]) - z[i, i], and the row softmax of z.

    z must be C-contiguous: numpy sums a strided axis in another order, so a
    transposed view would move the last bits of the loss.
    """
    m = z.max(axis=1)
    e = np.exp(z - m[:, None])
    total = e.sum(axis=1)
    return float((m + np.log(total) - z.diagonal()).mean()), e / total[:, None]


def contrastive_loss(global_matrix: Tensor, local_matrix: Tensor,
                     config: LossConfig) -> LossBreakdown:
    """Weighted symmetric InfoNCE over both B x B score matrices, one taped op.

    Each matrix S with temperature tau gives two terms: i2t, the mean
    negative log posterior of text i among the texts for image i, is
    mean_i log sum_j exp(S_ij/tau) - S_ii/tau; t2i is the same over the
    columns. ``total`` is the config-weighted sum of the four terms; for a
    term of weight w its adjoint is w (softmax_rows(S/tau) - I) / (B tau),
    and the t2i adjoint is the transpose of the same form over S^T.
    """
    shape = global_matrix.shape
    if len(shape) != 2 or shape[0] != shape[1] or local_matrix.shape != shape:
        raise ShapeError(f"score matrices must be square and of one shape, got {shape} "
                         f"and {local_matrix.shape}")
    b = shape[0]
    weights = tuple(float(w) for w in (config.weight_global_i2t, config.weight_global_t2i,
                                       config.weight_local_i2t, config.weight_local_t2i))
    terms, softmaxes = [], []
    for s, tau in ((global_matrix, config.tau_global), (local_matrix, config.tau_local)):
        z = s.data * (1.0 / tau)
        for rows in (z, np.ascontiguousarray(z.T)):
            term, soft = _infonce_rows(rows)
            terms.append(term)
            softmaxes.append((soft, tau))
    g_i2t, g_t2i, l_i2t, l_t2i = (t * w for t, w in zip(terms, weights))
    total = (g_i2t + g_t2i) + (l_i2t + l_t2i)

    def bw(g):
        grads = []
        for (soft, tau), w in zip(softmaxes, weights):
            per_row = g * w / b
            d = soft * per_row
            d[np.diag_indices(b)] -= per_row
            grads.append(d * (1.0 / tau))
        return grads[0] + grads[1].T, grads[2] + grads[3].T

    total = nm._emit(np.asarray(total), (global_matrix, local_matrix), bw)
    return LossBreakdown(*terms, total=total)


# Block budget of a forward-only local call: a block of images is sized so
# that each of its region-major (images, regions, distinct words) arrays and
# its (images, words) arrays holds at most this many float64 elements
# (512 KiB), unless one image's arrays alone are larger; 200 x 200 retrieval
# at seed 7 (its reports encoded one by one, their 2,932 rows merged into 54
# columns, padded to 56) is bound by its 2,956 words and runs 22 images per
# block.
# A taped call is one block whatever its size: its adjoint needs the state of
# every image, so splitting it would keep the same arrays and bound nothing.
_BLOCK_ELEMENTS = 1 << 16

# A context norm read off the region Gram, |c|^2 = a^T (V V^T) a, is trusted
# where |c|^2 >= _GRAM_KAPPA * (sum_r a_r |v_r|)^2 and recomputed from the
# explicit context elsewhere. The rounding error of the Gram form is at most
# gamma_{D+2R} (sum_r a_r |v_r|)^2 (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 3), so above the cut its relative error in |c|^2 is at most
# gamma_{D+2R} / _GRAM_KAPPA: 9.1e-12 at D=64, R=9 in the worst case, and of
# order sqrt(D+2R) u / _GRAM_KAPPA = 1e-12 for rounding errors of random sign,
# halved again in |c| and scaled by |cos| <= 1 in the score. In the seed-7
# synthetic pipeline the smallest |c|^2 against that scale is 0.09 in training
# and 0.15 in 200 x 200 retrieval, so no column there takes the explicit form;
# only near-cancelling contexts do. A smaller cut loosens the bound in
# proportion; a larger one sends more columns to the explicit form.
_GRAM_KAPPA = 1e-3


class Alignment(NamedTuple):
    """Local alignment of a block of I images against the words of B texts.

    The state is region-major: the (I, R, U) arrays put the R regions of an
    image on the middle axis and the U distinct words on the last, so every
    softmax and every sum over regions reduces whole rows of words at once.
    Everything here is region-sized or smaller, so a taped call keeps it for
    the adjoint; ``region_dots`` holds c_t . v_r = ((V V^T) a)_rt, from which
    the forward took |c| and the adjoint takes the pull of |c| on the
    weights. The adjoint uses ``sims`` and ``region_dots`` as its work
    buffers, so an Alignment serves one adjoint call. Norms read 1 where a
    cosine is guarded, so dividing by them is always safe. The per-word
    tail keeps exps and sums, not the quotient that only the adjoint needs.
    """

    sims: np.ndarray           # (I, R, U) region . word products
    weights: np.ndarray        # (I, R, U) sharpened softmax over regions (axis 1)
    region_dots: np.ndarray    # (I, R, U) (V V^T) a: context . region products
    context_norms: np.ndarray  # (I, U)
    cosines: np.ndarray        # (I, U) cosine(context, word), 0 where guarded
    unguarded: np.ndarray      # (I, U) False where a cosine is guarded
    word_exps: np.ndarray      # (I, N) exp(lambda2 * (cosine - its text's maximum))
    text_sums: np.ndarray      # (I, B) each text's sum of word_exps
    scores: np.ndarray         # (I, B) local alignment score per image and text


def align(regions: np.ndarray, words_t: np.ndarray, word_norms: np.ndarray,
          lengths: np.ndarray, lambda1: float, lambda2: float,
          word_rows: np.ndarray | None = None) -> Alignment:
    """Local alignment of a block of images against every text at once.

    `regions` is (I, R, D); `words_t` is the C-contiguous (D, U') array whose
    first U columns are the distinct words (zero columns may pad it), and
    `word_norms` their (U,) norms; `word_rows` (N,) names the column of each
    word of B texts, text after text (every word its own column when None);
    `lengths` (B,) holds each text's word count, all >= 1, summing to N.
    Z = (1/lambda2) * log sum_t exp(lambda2 * cos(c_t, w_t)) over a text's
    words, with contexts c_t = a_t V and attention weights
    a_t = softmax_r(lambda1 * s_t), s_t = w_t V^T. One GEMM of the stacked
    (I*R, D) regions against the U words gives the (I, R, U) similarities;
    the softmax and the dot c_t . w_t = sum_r a_tr s_tr reduce over axis 1.
    |c_t|^2 = a_t^T (V V^T) a_t comes from the (I, R, R) region Gram; the few
    columns where that form may have cancelled, |c_t|^2 < _GRAM_KAPPA *
    (sum_r a_tr |v_r|)^2, are recomputed from their explicit contexts. Only
    then does the work go per word: the (I, U) cosines are gathered to
    (I, N) and the log-sum-exp over each text's words is a ``reduceat`` over
    its columns. No (I, U, D) array is formed. A context or word whose norm
    is below 1e-12 gets cosine 0 and no gradient, the guard of the per-pair
    test oracle's row cosine.
    """
    n_img, r, d = regions.shape
    u = len(word_norms)
    word_rows = np.arange(u) if word_rows is None else word_rows
    # one allocation for the three kept (I, R, U) arrays: as three ~270 KB
    # arrays at the B=16 shape, the heap gave them back to the OS when a step
    # freed them and page-faulted them in again on the next (~300 faults a call)
    sims, weights, region_dots = np.empty((3, n_img, r, u))
    np.copyto(sims.reshape(n_img * r, u), (regions.reshape(n_img * r, d) @ words_t)[:, :u])
    np.multiply(sims, lambda1, out=weights)
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    dots = np.einsum("irn,irn->in", weights, sims)
    gram = np.matmul(regions, regions.transpose(0, 2, 1))
    np.matmul(gram, weights, out=region_dots)
    cn2 = np.einsum("irn,irn->in", weights, region_dots)
    region_norms = np.sqrt(gram.diagonal(axis1=1, axis2=2))
    scale = np.matmul(region_norms[:, None, :], weights)[:, 0, :]
    ii, nn = np.nonzero(cn2 < _GRAM_KAPPA * scale * scale)
    if ii.size:
        contexts = np.einsum("kr,krd->kd", weights[ii, :, nn], regions[ii])
        cn2[ii, nn] = np.einsum("kd,kd->k", contexts, contexts)
    cn = np.sqrt(cn2)
    ok = (cn > _NORM_FLOOR) & (word_norms > _NORM_FLOOR)
    cn = np.where(ok, cn, 1.0)
    wn = np.where(ok, word_norms, 1.0)
    cosines = np.where(ok, dots / (cn * wn), 0.0)
    # the per-word tail: each word reads its distinct row's cosine
    ex = np.take(cosines, word_rows, axis=1)
    ex *= lambda2
    starts = np.cumsum(lengths) - lengths
    m = np.maximum.reduceat(ex, starts, axis=1)
    ex -= np.repeat(m, lengths, axis=1)
    np.exp(ex, out=ex)
    total = np.add.reduceat(ex, starts, axis=1)
    scores = (m + np.log(total)) * (1.0 / lambda2)
    return Alignment(sims, weights, region_dots, cn, cosines, ok, ex, total, scores)


def _align_adjoint(al: Alignment, regions: np.ndarray, words: np.ndarray,
                   word_norms: np.ndarray, lengths: np.ndarray, word_rows: np.ndarray,
                   lambda1: float, g: np.ndarray):
    """Gradients of sum g * al.scores w.r.t. regions (I, R, D) and words (U, D).

    Takes the arguments ``align`` took, with the distinct words as the
    C-contiguous (U, D) rows the text features hold, and `g` (I, B). The
    per-word tail runs first: each word's cosine gradient, g exp / sum over
    its text, (I, N), is summed onto its distinct row in order of
    occurrence, the guarded rows are zeroed, and all later work is at
    width U. Reads only the region-sized forward state, never the contexts:
    the c . v_r that |c| passes to the attention weights is the kept
    (V V^T) a, and the -g_cn * c it passes to the regions is
    ((a g_cn) a^T) V. No (I, U, D) array is formed; the D-sized work is one
    GEMM of the similarity gradient against the words and one against the
    regions, plus the (I, R, R) @ (I, R, D) pull. The word gradient is
    finished, word-norm term -(coef / |w|^2) w included, and has one row
    per distinct word. The (I, R, U) work is done in place in
    ``al.region_dots`` and ``al.sims``, which are spent afterwards.
    """
    n_img, r, d = regions.shape
    u = words.shape[0]
    wn = np.where(word_norms > _NORM_FLOOR, word_norms, 1.0)
    g_use = np.repeat(g / al.text_sums, lengths, axis=1)
    g_use *= al.word_exps
    bins = (np.arange(n_img)[:, None] * u + word_rows).ravel()
    g_cos = np.bincount(bins, weights=g_use.ravel(), minlength=n_img * u).reshape(n_img, u)
    g_cos *= al.unguarded
    g_dot = (g_cos / (al.context_norms * wn))[:, None, :]
    g_cn = (g_cos * al.cosines / al.context_norms ** 2)[:, None, :]
    a = al.weights
    # g_s = a * (lambda1 * (g_a - sum_r g_a a) + g_dot) with
    # g_a = g_dot * s - g_cn * (V V^T) a, built in place in al's buffers
    g_s = al.region_dots
    g_s *= -g_cn
    work = al.sims
    work *= g_dot
    g_s += work
    g_s -= np.einsum("irn,irn->in", g_s, a)[:, None, :]
    g_s *= lambda1
    g_s += g_dot
    g_s *= a
    g_s = g_s.reshape(n_img * r, -1)
    g_regions = g_s @ words
    pull = np.multiply(a, g_cn, out=work)
    g_regions -= np.matmul(np.matmul(pull, a.transpose(0, 2, 1)), regions).reshape(-1, d)
    g_words = g_s.T @ regions.reshape(n_img * r, d)
    g_words -= ((g_cos * al.cosines).sum(axis=0) / wn ** 2)[:, None] * words
    return g_regions.reshape(n_img, r, d), g_words


def _rows(tensors) -> np.ndarray:
    """The tensors' rows stacked in order; a lone tensor's buffer is not copied."""
    return tensors[0].data if len(tensors) == 1 else np.concatenate([t.data for t in tensors])


def _row_blocks(arr: np.ndarray, counts) -> list[np.ndarray]:
    """Views of consecutive runs of counts[k] rows of `arr`, in order."""
    ends = np.cumsum(counts).tolist()
    return [arr[start:end] for start, end in zip([0] + ends, ends)]


def pairwise_scores(image_feats, text_feats, config: LossConfig):
    """Global and local B_i x B_t score matrices; [i, j] scores image i vs text j.

    Each side is a LocalGlobalFeatures batch or a list of them, scored in
    order. Each matrix is one taped op with a hand-written adjoint. The
    global one is a single matmul of the global rows. The local one takes
    the words of all texts as their distinct rows, one text batch after
    another (a batch without ``distinct`` counts each of its local rows as
    distinct), with an (N,) index of each word's row. A forward-only call
    merges rows with equal bytes across all text batches, numbered in order
    of first use, and remaps the index onto them; only identical bits merge,
    so every score is the unmerged one. A taped call does not merge: its
    adjoint returns each batch's word gradient to its own rows. The (U, D)
    rows are transposed once into a C-contiguous (D, U) array, and ``align``
    runs on the (B_i, R, D) regions, so all images need one region count R.
    Under a recording tape that is one ``align`` call, whose region-sized
    state one ``_align_adjoint`` call reads on the same (U, D) rows, and the
    word gradient goes to those rows; a forward-only call runs in blocks
    whose (I, R, U) and (I, N) arrays stay within ``_BLOCK_ELEMENTS``
    elements. No (B_i, U, D) array is ever held.
    """
    images = [image_feats] if isinstance(image_feats, LocalGlobalFeatures) else list(image_feats)
    texts = [text_feats] if isinstance(text_feats, LocalGlobalFeatures) else list(text_feats)
    if not images or not texts:
        raise ShapeError(f"empty batch: {len(images)} images, {len(texts)} texts")
    dim = images[0].local.shape[-1]
    for f in (*images, *texts):
        n = f.lengths
        if (f.local.ndim != 2 or f.local.shape[1] != dim or min(n, default=0) < 1
                or sum(n) != f.local.shape[0] or f.global_feat.shape != (len(n), dim)):
            raise ShapeError(f"{f.modality} features need (n_k >= 1, {dim}) rows and a global "
                             f"row per study, got {f.local.shape}, {f.global_feat.shape}, {n}")
        if f.distinct is not None and (f.distinct.shape[1:] != (dim,)
                                       or np.shape(f.word_rows) != (f.local.shape[0],)):
            raise ShapeError(f"distinct rows need (U, {dim}) rows and an index per local row, "
                             f"got {f.distinct.shape} and {np.shape(f.word_rows)}")
    region_counts = {r for f in images for r in f.lengths}
    if len(region_counts) != 1:
        raise ShapeError(f"images must share one region count, got {sorted(region_counts)}")
    txt_u = tuple(f.local if f.distinct is None else f.distinct for f in texts)
    sizes, counts = [t.shape[0] for t in txt_u], [f.local.shape[0] for f in texts]
    word_rows = np.concatenate([np.arange(u) if f.distinct is None else f.word_rows
                                for f, u in zip(texts, sizes)])
    if not ((word_rows >= 0) & (word_rows < np.repeat(sizes, counts))).all():
        raise ShapeError("a word index points outside its batch's distinct rows")
    # each batch's index, offset to its distinct rows' place in the stacked rows
    word_rows += np.repeat(np.cumsum([0] + sizes[:-1]), counts)

    img_g, txt_g = (tuple(f.global_feat for f in side) for side in (images, texts))
    gi, gt = _rows(img_g), _rows(txt_g)
    img_counts, txt_counts = ([len(f.lengths) for f in side] for side in (images, texts))

    def global_bw(g):
        return (*_row_blocks(g @ gt, img_counts), *_row_blocks(g.T @ gi, txt_counts))

    global_matrix = nm._emit(gi @ gt.T, img_g + txt_g, global_bw)

    img_l = tuple(f.local for f in images)
    regions = _rows(img_l).reshape(len(gi), -1, dim)
    lengths = np.array([n for f in texts for n in f.lengths])
    txt_rows = _rows(txt_u)
    # a recorded op (as _emit decides) needs every image's state, so it runs
    # as one block, and each batch's own rows, to hand them their gradients
    taped = nm._active_tape() is not None and any(t.requires_grad for t in img_l + txt_u)
    if not taped:
        # rows with equal bytes, across all text batches, merge into one
        # column numbered in order of first use: equal bits score equally
        keys = list(map(np.ndarray.tobytes, txt_rows))
        row_of = {key: row for row, key in enumerate(dict.fromkeys(keys))}
        word_rows = np.fromiter(map(row_of.__getitem__, keys), dtype=np.intp,
                                count=len(keys))[word_rows]
        txt_rows = np.frombuffer(b"".join(row_of)).reshape(-1, dim)
    # the transposed words, zero-padded to a multiple of 8 columns: at such a
    # width OpenBLAS sums the similarity GEMM in one order whatever its thread
    # count (a ragged width from 145 columns on splits across threads and
    # moves the last bits)
    words_t = np.zeros((dim, -(-len(txt_rows) // 8) * 8))
    words_t[:, : len(txt_rows)] = txt_rows.T
    word_norms = np.sqrt(np.einsum("nd,nd->n", txt_rows, txt_rows))
    lam1, lam2 = config.lambda1, config.lambda2
    widest = max(regions.shape[1] * words_t.shape[1], len(word_rows))
    per_block = len(gi) if taped else max(1, _BLOCK_ELEMENTS // widest)
    local = np.empty((len(gi), len(gt)))
    for start in range(0, len(gi), per_block):
        al = align(regions[start : start + per_block], words_t, word_norms, lengths, lam1, lam2,
                   word_rows)
        local[start : start + per_block] = al.scores

    def local_bw(g):
        g_regions, g_words = _align_adjoint(al, regions, txt_rows, word_norms, lengths,
                                            word_rows, lam1, g)
        return (*_row_blocks(g_regions.reshape(-1, dim), [t.shape[0] for t in img_l]),
                *_row_blocks(g_words, sizes))

    local_matrix = nm._emit(local, img_l + txt_u, local_bw)
    return global_matrix, local_matrix


def total_loss(image_feats, text_feats, config: LossConfig | None = None) -> LossBreakdown:
    """Weighted sum of the four directional contrastive terms over one batch."""
    config = config if config is not None else LossConfig()
    return contrastive_loss(*pairwise_scores(image_feats, text_feats, config), config)
