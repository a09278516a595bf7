"""Taped ops that only the tests use, recorded through ``numerics._emit``.

The shipped model needs none of these: its encoders are the fused
``encoders.encode_image_patches`` and ``encoders.encode_text_toy``, its loss
the fused ``crossmodal.contrastive_loss`` and its scores the fused
``crossmodal.pairwise_scores``. The composed encoder oracle (matmul, add,
l2_normalize_rows, row_gather and mean_rows, as the encoders once recorded
them), the per-pair score oracle (``pair_oracle.py``), the reference InfoNCE
composition and the finite-difference suites build on them, so each keeps
its own adjoint and its finite-difference check in criterion 1.
"""

from __future__ import annotations

import numpy as np

from glre.errors import DegenerateRowError, ParameterError, ShapeError
from glre.numerics import _NORM_FLOOR, Tensor, _emit


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def constant(data) -> Tensor:
    """Tensor that never tracks gradients."""
    return Tensor(data, requires_grad=False)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard matrix product of two 2-D tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def bw(g):
        return (
            g @ bd.T if a.requires_grad else None,
            ad.T @ g if b.requires_grad else None,
        )

    return _emit(ad @ bd, (a, b), bw)


def _broadcast_ok(a_shape, b_shape) -> bool:
    # Permitted: identical shapes, a scalar operand, or a row vector of
    # length n against an (m, n) matrix. Nothing wider.
    if a_shape == b_shape:
        return True
    if a_shape == () or b_shape == ():
        return True
    if len(a_shape) == 2 and b_shape == (a_shape[1],):
        return True
    if len(b_shape) == 2 and a_shape == (b_shape[1],):
        return True
    return False


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape == ():
        return g.sum()
    # row vector broadcast over rows
    return g.sum(axis=0)


def add(a, b) -> Tensor:
    """Elementwise sum; broadcasting limited to scalars and row vectors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"add cannot combine shapes {a.shape} and {b.shape}")

    def bw(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _emit(a.data + b.data, (a, b), bw)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row of a 2-D tensor to unit Euclidean norm."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"l2_normalize_rows needs a 2-D tensor, got shape {x.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=1))
    bad = np.flatnonzero(norms <= _NORM_FLOOR)
    if bad.size:
        raise DegenerateRowError(int(bad[0]), float(norms[bad[0]]))
    y = x.data / norms[:, None]

    def bw(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return ((g - y * inner) / norms[:, None],)

    return _emit(y, (x,), bw)


def row_gather(x: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; repeated indices accumulate gradient."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"row_gather needs a 2-D tensor, got shape {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"row_gather indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"row index out of range for {x.shape[0]} rows")

    def bw(g):
        # one bincount bin per (row, column): bincount adds each bin's weights
        # onto zero in order of occurrence, as np.add.at does, so the sums are
        # bit-identical to it (np.add.reduceat's pairwise sums are not)
        d = x.shape[1]
        bins = (idx[:, None] * d + np.arange(d)).ravel()
        return (np.bincount(bins, weights=g.ravel(), minlength=x.size).reshape(x.shape),)

    return _emit(x.data[idx], (x,), bw)


def mean_rows(x: Tensor, lengths) -> Tensor:
    """Means of consecutive runs of lengths[k] >= 1 rows of a 2-D tensor, one row each."""
    x = _as_tensor(x)
    counts = np.asarray(lengths, dtype=np.int64)
    if (x.ndim != 2 or counts.ndim != 1 or counts.size == 0 or counts.min() < 1
            or counts.sum() != x.shape[0]):
        raise ShapeError(f"mean_rows needs a 2-D tensor and positive lengths summing to its "
                         f"rows, got shape {x.shape} and lengths {counts.tolist()}")
    starts = np.cumsum(counts) - counts
    return _emit(
        np.add.reduceat(x.data, starts, axis=0) / counts[:, None],
        (x,),
        lambda g: (np.repeat(g / counts[:, None], counts, axis=0),),
    )


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got shape {x.shape}")
    return _emit(x.data.T, (x,), lambda g: (g.T,))


def mul(a, b) -> Tensor:
    """Elementwise product; broadcasting limited to scalars and row vectors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"mul cannot combine shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bw(g):
        return (
            _unbroadcast(g * bd, a.shape) if a.requires_grad else None,
            _unbroadcast(g * ad, b.shape) if b.requires_grad else None,
        )

    return _emit(ad * bd, (a, b), bw)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a compile-time constant (not differentiated through)."""
    x = _as_tensor(x)
    c = float(c)
    return _emit(x.data * c, (x,), lambda g: (g * c,))


def softmax_rows(x: Tensor, scale_factor: float = 1.0) -> Tensor:
    """Row softmax of exp(scale_factor * x), max-subtracted for overflow safety."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D tensor, got shape {x.shape}")
    s = float(scale_factor)
    if s <= 0.0:
        raise ParameterError(f"softmax scale must be positive, got {s}")
    z = s * x.data
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return (s * y * (g - inner),)

    return _emit(y, (x,), bw)


def logsumexp_rows(x: Tensor) -> Tensor:
    """Per-row log(sum(exp(row))), max-subtracted. 1-D input gives a scalar."""
    x = _as_tensor(x)
    if x.ndim not in (1, 2):
        raise ShapeError(f"logsumexp_rows needs a 1-D or 2-D tensor, got {x.shape}")
    mat = x.data if x.ndim == 2 else x.data[None, :]
    m = mat.max(axis=1)
    e = np.exp(mat - m[:, None])
    out = m + np.log(e.sum(axis=1))
    soft = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        gv = g if x.ndim == 2 else np.asarray(g).reshape(1)
        gx = soft * gv[:, None]
        return (gx if x.ndim == 2 else gx[0],)

    return _emit(out if x.ndim == 2 else out[0], (x,), bw)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar."""
    x = _as_tensor(x)
    return _emit(np.asarray(x.data.sum()), (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


def rowwise_cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of corresponding rows; 1-D inputs give a scalar.

    Rows where either operand has norm below 1e-12 contribute exactly 0 with
    zero gradient. That guard keeps degenerate attention contexts (possible
    early in training) from producing NaNs.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"rowwise_cosine needs matching shapes, got {a.shape} and {b.shape}")
    if a.ndim not in (1, 2):
        raise ShapeError(f"rowwise_cosine needs 1-D or 2-D tensors, got {a.shape}")
    am = a.data if a.ndim == 2 else a.data[None, :]
    bm = b.data if b.ndim == 2 else b.data[None, :]
    na = np.sqrt((am * am).sum(axis=1))
    nb = np.sqrt((bm * bm).sum(axis=1))
    ok = (na > _NORM_FLOOR) & (nb > _NORM_FLOOR)
    denom = np.where(ok, na * nb, 1.0)
    dots = (am * bm).sum(axis=1)
    cos = np.where(ok, dots / denom, 0.0)

    def bw(g):
        gv = g if a.ndim == 2 else np.asarray(g).reshape(1)
        gv = gv * ok
        ga = gv[:, None] * (bm / denom[:, None] - cos[:, None] * am / np.where(ok, na * na, 1.0)[:, None])
        gb = gv[:, None] * (am / denom[:, None] - cos[:, None] * bm / np.where(ok, nb * nb, 1.0)[:, None])
        return (
            (ga if a.ndim == 2 else ga[0]) if a.requires_grad else None,
            (gb if b.ndim == 2 else gb[0]) if b.requires_grad else None,
        )

    return _emit(cos if a.ndim == 2 else cos[0], (a, b), bw)
