"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operation set is deliberately small: matmul, transpose, row softmax, row
normalization, log-sum-exp, elementwise add/mul/scale, row gather, sum/mean
reductions, row-wise cosine similarity, and a gradient-transparent reshape.
Encoders and contrastive losses are composed from these. The one fused op
outside this module, ``crossmodal.pairwise_scores``, records its batched
global and local score matrices through ``_emit`` with its own adjoints; the
local one scores blocks of images in region space and keeps its forward
state for the adjoint only when a tape is recording.

Recording model: ops record onto the innermost active ``GradTape`` whenever
any input requires gradients. A tape replays its records in exact reverse
execution order; gradients accumulate additively when a tensor feeds several
operations. Tensors that never touch a tape are immutable after construction
(their data buffers are marked read-only) and safe to share across threads;
a tape and the tensors attached to it belong to a single thread. Each thread
has its own stack of active tapes, so tapes in different threads never see
each other's operations.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from .errors import (
    DegenerateRowError,
    NonScalarLossError,
    ParameterError,
    ShapeError,
    TapeStateError,
)

_NORM_FLOOR = 1e-12


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Tensor:
    """Dense row-major float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = _readonly(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        out = cls.__new__(cls)
        # note: ascontiguousarray would promote 0-d scalars to 1-d
        out.data = _readonly(np.asarray(arr, dtype=np.float64, order="C"))
        out.requires_grad = requires_grad
        out.grad = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Read-only view of the underlying buffer."""
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def constant(data) -> Tensor:
    """Tensor that never tracks gradients."""
    return Tensor(data, requires_grad=False)


def identity(n: int) -> Tensor:
    return Tensor._wrap(np.eye(n), False)


# --------------------------------------------------------------------------
# Gradient tape


class GradTape:
    """Ordered record of executed operations for one reverse sweep.

    Use as a context manager to make it the active tape. ``backward`` may run
    once per recording; call ``reset`` to reuse the object.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._tracked: dict[int, Tensor] = {}
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.tapes.pop()

    def __len__(self) -> int:
        return len(self._records)

    def reset(self) -> None:
        self._records.clear()
        self._tracked.clear()
        self._consumed = False

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> None:
        self._records.append((out, inputs, backward_fn))
        for t in inputs:
            if t.requires_grad:
                self._tracked.setdefault(id(t), t)
        self._tracked.setdefault(id(out), out)

    def backward(self, loss: Tensor) -> None:
        """Populate ``.grad`` for every requires_grad tensor seen by this tape.

        Tensors recorded on the tape but not influencing the loss receive
        zeros. Existing ``.grad`` buffers are accumulated into, not replaced.
        """
        if self._consumed:
            raise TapeStateError("backward already ran on this tape; call reset() first")
        if loss.ndim != 0:
            raise NonScalarLossError(f"loss must be a scalar, got shape {loss.shape}")
        self._consumed = True

        flowing: dict[int, np.ndarray] = {id(loss): np.ones(())}
        for out, inputs, backward_fn in reversed(self._records):
            g_out = flowing.get(id(out))
            if g_out is None:
                continue
            for t, contrib in zip(inputs, backward_fn(g_out)):
                if contrib is None or not t.requires_grad:
                    continue
                seen = flowing.get(id(t))
                flowing[id(t)] = contrib if seen is None else seen + contrib

        for t in self._tracked.values():
            if not t.requires_grad:
                continue
            piece = flowing.get(id(t))
            if piece is None:
                piece = np.zeros(t.shape)
            else:
                piece = np.array(piece, dtype=np.float64)
                piece = piece.reshape(t.shape)
            t.grad = piece if t.grad is None else t.grad + piece


class _TapeStack(threading.local):
    """Active tapes of the current thread, innermost last."""

    def __init__(self):
        self.tapes: list[GradTape] = []


_TAPE_STACK = _TapeStack()


def _active_tape() -> GradTape | None:
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


def backward(loss: Tensor, tape: GradTape) -> None:
    """Reverse sweep of ``tape`` seeding d(loss)/d(loss) = 1."""
    tape.backward(loss)


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    req = any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, req)
    if req:
        tape = _active_tape()
        if tape is not None:
            tape._record(out, inputs, backward_fn)
    return out


# --------------------------------------------------------------------------
# Operation set


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


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got shape {x.shape}")
    return _emit(x.data.T, (x,), lambda g: (g.T,))


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


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row to unit Euclidean norm. 1-D input is treated as one row."""
    x = _as_tensor(x)
    if x.ndim not in (1, 2):
        raise ShapeError(f"l2_normalize_rows needs a 1-D or 2-D tensor, got {x.shape}")
    mat = x.data if x.ndim == 2 else x.data[None, :]
    norms = np.sqrt((mat * mat).sum(axis=1))
    for i, n in enumerate(norms):
        if n <= _NORM_FLOOR:
            raise DegenerateRowError(i, float(n))
    y = mat / norms[:, None]

    def bw(g):
        gm = g if x.ndim == 2 else g[None, :]
        inner = (gm * y).sum(axis=1, keepdims=True)
        gx = (gm - y * inner) / norms[:, None]
        return (gx if x.ndim == 2 else gx[0],)

    return _emit(y if x.ndim == 2 else y[0], (x,), bw)


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
        gx = np.zeros(x.shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _emit(x.data[idx], (x,), bw)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar."""
    x = _as_tensor(x)
    return _emit(np.asarray(x.data.sum()), (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


def tensor_mean(x: Tensor) -> Tensor:
    """Mean of all elements, as a scalar."""
    x = _as_tensor(x)
    n = x.size
    if n == 0:
        raise ShapeError("mean of an empty tensor")
    return _emit(
        np.asarray(x.data.mean()),
        (x,),
        lambda g: (np.broadcast_to(g / n, x.shape).copy(),),
    )


def row_sums(x: Tensor) -> Tensor:
    """Per-row totals of a 2-D tensor, shape (m,)."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"row_sums needs a 2-D tensor, got shape {x.shape}")
    m, n = x.shape
    return _emit(x.data.sum(axis=1), (x,), lambda g: (np.repeat(g[:, None], n, axis=1),))


def mean_rows(x: Tensor) -> Tensor:
    """Average of the row vectors of a 2-D tensor, shape (n,)."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"mean_rows needs a 2-D tensor, got shape {x.shape}")
    m = x.shape[0]
    return _emit(
        x.data.mean(axis=0),
        (x,),
        lambda g: (np.repeat(g[None, :] / m, m, axis=0),),
    )


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


def reshape(x: Tensor, shape) -> Tensor:
    """Row-major reshape; gradient-transparent."""
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} (size {x.size}) to {shape}")
    old = x.shape
    return _emit(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))

