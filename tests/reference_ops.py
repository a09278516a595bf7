"""Taped ops that only the tests use, recorded through ``numerics._emit``.

The shipped model needs none of these: its loss is the fused
``crossmodal.contrastive_loss`` and its scores the fused
``crossmodal.pairwise_scores``. The per-pair score oracle
(``pair_oracle.py``), the reference InfoNCE composition and the
finite-difference suites build on them, so each keeps its own adjoint and
its finite-difference check in criterion 1.
"""

from __future__ import annotations

import numpy as np

from glre.errors import ParameterError, ShapeError
from glre.numerics import _NORM_FLOOR, Tensor, _as_tensor, _broadcast_ok, _emit, _unbroadcast


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
