"""ROC curves, tie-corrected AUC, aggregation, and retrieval accuracy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedAucError
from .files import write_csv


@dataclass
class RocCurve:
    """Threshold-sweep ROC curve plus the Mann-Whitney AUC.

    Points run from (0, 0) to (1, 1) with non-decreasing fpr/tpr, one per
    tie block of a single descending sort of the scores. ``auc`` is the
    Mann-Whitney value (ties get half credit), computed from those same tie
    blocks; it equals the trapezoidal area of the stored points because
    tied scores are collapsed into single diagonal segments.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float
    n_pos: int
    n_neg: int

    def write_csv(self, path) -> None:
        write_csv(path, ["fpr", "tpr", "threshold"], [self.fpr, self.tpr, self.thresholds])


def roc_auc(scores, labels) -> RocCurve:
    """Rank the scores against binary labels.

    AUC is the Mann-Whitney statistic U / (n_pos * n_neg) with tied pairs
    counted as one half. One descending sort gives both the curve and U:
    the negatives of each tie block beat every positive above the block and
    tie with the block's own positives. The final division is arranged so
    that the scores and their negation yield values summing to exactly 1.0.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError(f"scores and labels must be equal-length 1-D, got {s.shape} and {y.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError(f"AUC undefined: {n_pos} positive and {n_neg} negative labels")

    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    block_ends = np.append(np.nonzero(np.diff(s_sorted))[0], s.size - 1)
    cum_tp = np.cumsum(pos[order])[block_ends]
    cum_fp = (block_ends + 1) - cum_tp
    d_tp = np.diff(cum_tp, prepend=0)
    # Every term is a half-integer, so U is exact in float64 at this scale.
    u = float(np.sum(np.diff(cum_fp, prepend=0) * (cum_tp - d_tp / 2)))
    denom = float(n_pos) * float(n_neg)
    u_comp = denom - u
    auc = u / denom if u <= u_comp else 1.0 - u_comp / denom

    return RocCurve(fpr=np.concatenate(([0.0], cum_fp / n_neg)),
                    tpr=np.concatenate(([0.0], cum_tp / n_pos)),
                    thresholds=np.concatenate(([np.inf], s_sorted[block_ends])),
                    auc=auc, n_pos=n_pos, n_neg=n_neg)


def aggregate_auc(values) -> tuple[float, float]:
    """Arithmetic mean and population std (ddof=0) of AUC values."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("aggregate_auc needs at least one value")
    return float(vals.mean()), float(vals.std(ddof=0))


def retrieval_top1(score_matrix) -> dict[str, float]:
    """Top-1 retrieval accuracy for a square pairwise score matrix.

    Row i scores image i against every text; the matched pair sits on the
    diagonal. Returns both directions and their mean.
    """
    m = np.asarray(score_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"retrieval needs a square matrix, got {m.shape}")
    n = m.shape[0]
    i2t = float(np.mean(np.argmax(m, axis=1) == np.arange(n)))
    t2i = float(np.mean(np.argmax(m, axis=0) == np.arange(n)))
    return {"image_to_text": i2t, "text_to_image": t2i, "mean": 0.5 * (i2t + t2i)}
