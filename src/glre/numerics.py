"""Dense float64 tensors with tape-based reverse-mode differentiation.

This module holds the tensor and the tape, and no operations: each op the
shipped model records lives beside the code that needs it and records
through ``_emit`` with its own fused adjoint. ``encoders.encode_image_patches``
and ``encoders.encode_text_toy`` each emit one op whose 2-D outputs are all
studies' local rows stacked as (sum n_k, D) and one (B, D) global row per
study, and on the text side also the batch's (U, D) distinct word rows;
``crossmodal.pairwise_scores`` emits the batched global and local score
matrices, and ``crossmodal.contrastive_loss`` the weighted symmetric InfoNCE
loss over both.

Recording model: ops record onto the innermost active ``GradTape`` whenever
any input requires gradients. A tape replays its records in exact reverse
execution order, running a record once with the gradients of all of its
outputs; gradients accumulate additively when a tensor feeds several
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

from .errors import NonScalarLossError, ShapeError, TapeStateError

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


def constant_view(arr: np.ndarray) -> Tensor:
    """`Tensor(arr)` over the C-ordered float64 array `arr` itself, not a copy
    of it; `arr` turns read-only, so pass one no one else writes."""
    return Tensor._wrap(arr, False) if np.all(np.isfinite(arr)) else Tensor(arr)


# --------------------------------------------------------------------------
# Gradient tape


class GradTape:
    """Ordered record of executed operations for one reverse sweep.

    Use as a context manager to make it the active tape. ``backward`` may run
    once per tape; record a new tape for another sweep.
    """

    def __init__(self):
        # (outputs, inputs, adjoint) per op, in execution order
        self._records: list[tuple[tuple[Tensor, ...], tuple[Tensor, ...], Callable]] = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.tapes.pop()

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Add d(loss)/dt to ``.grad`` of every requires_grad tensor t the loss
        reaches through this tape.

        Only a leaf, a tensor no record of this tape produced, gets a new
        ``.grad`` array; the outputs of records, the loss included, get none.
        An existing ``.grad`` buffer is accumulated into in place, so a view
        stays a view of its vector. A tensor the loss does not reach keeps
        its ``.grad``: None unless an earlier sweep or its owner set it.
        """
        if self._consumed:
            raise TapeStateError("backward already ran on this tape; record a new one")
        if loss.ndim != 0:
            raise NonScalarLossError(f"loss must be a scalar, got shape {loss.shape}")
        self._consumed = True

        # id -> (tensor, gradient flowing into it so far)
        flowing: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones(()))}
        for outs, inputs, backward_fn in reversed(self._records):
            entries = [flowing.get(id(out)) for out in outs]
            if not any(entries):
                continue
            grads = (None if entry is None else entry[1] for entry in entries)
            for t, contrib in zip(inputs, backward_fn(*grads)):
                if contrib is None or not t.requires_grad:
                    continue
                seen = flowing.get(id(t))
                flowing[id(t)] = (t, contrib if seen is None else seen[1] + contrib)

        produced = {id(out) for outs, _, _ in self._records for out in outs}
        for t, piece in flowing.values():
            if t.requires_grad and t.grad is not None:
                np.add(t.grad, np.reshape(piece, t.shape), out=t.grad)
            elif t.requires_grad and id(t) not in produced:
                t.grad = np.array(piece, dtype=np.float64).reshape(t.shape)


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


def _emit(out_data, inputs: tuple[Tensor, ...], backward_fn: Callable):
    """Wrap an op's output array, or its tuple of output arrays, as a Tensor or
    a tuple of them, recording the op on the active tape if an input requires
    gradients. ``backward_fn`` takes one gradient per output, None for an
    output the loss does not reach, and returns one gradient, or None, per input."""
    req = any(t.requires_grad for t in inputs)
    several = isinstance(out_data, tuple)
    outs = tuple(Tensor._wrap(d, req) for d in (out_data if several else (out_data,)))
    tape = _active_tape() if req else None
    if tape is not None:
        tape._records.append((outs, inputs, backward_fn))
    return outs if several else outs[0]
