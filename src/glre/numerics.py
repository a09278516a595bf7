"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operation set holds only what the shipped model records: matmul, add
(broadcasting limited to scalars and row vectors), row normalization, row
gather and segment means of rows. The encoders run once per batch, composed
from these; every tensor they record is 2-D: all studies' local rows stacked
as (sum n_k, D) and one (B, D) global row per study. The fused ops live
beside the code that needs them and record through ``_emit`` with their own
adjoints: ``crossmodal.pairwise_scores`` emits the batched global and local
score matrices, and ``crossmodal.contrastive_loss`` the weighted symmetric
InfoNCE loss over both.

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


def constant_view(arr: np.ndarray) -> Tensor:
    """`constant(arr)` over the C-ordered float64 array `arr` itself, not a copy
    of it; `arr` turns read-only, so pass one no one else writes."""
    return Tensor._wrap(arr, False) if np.all(np.isfinite(arr)) else constant(arr)


# --------------------------------------------------------------------------
# Gradient tape


class GradTape:
    """Ordered record of executed operations for one reverse sweep.

    Use as a context manager to make it the active tape. ``backward`` may run
    once per tape; record a new tape for another sweep.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.tapes.pop()

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> None:
        self._records.append((out, inputs, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Add d(loss)/dt to ``.grad`` of every requires_grad tensor t the loss
        reaches through this tape, the loss itself included.

        A tensor the loss does not reach keeps its ``.grad``: None unless an
        earlier sweep or its owner set it. An existing ``.grad`` buffer is
        accumulated into in place, so a view stays a view of its vector.
        """
        if self._consumed:
            raise TapeStateError("backward already ran on this tape; record a new one")
        if loss.ndim != 0:
            raise NonScalarLossError(f"loss must be a scalar, got shape {loss.shape}")
        self._consumed = True

        # id -> (tensor, gradient flowing into it so far)
        flowing: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones(()))}
        for out, inputs, backward_fn in reversed(self._records):
            entry = flowing.get(id(out))
            if entry is None:
                continue
            for t, contrib in zip(inputs, backward_fn(entry[1])):
                if contrib is None or not t.requires_grad:
                    continue
                seen = flowing.get(id(t))
                flowing[id(t)] = (t, contrib if seen is None else seen[1] + contrib)

        for t, piece in flowing.values():
            if t.requires_grad and t.grad is None:
                t.grad = np.array(piece, dtype=np.float64).reshape(t.shape)
            elif t.requires_grad:
                np.add(t.grad, np.reshape(piece, t.shape), out=t.grad)


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
