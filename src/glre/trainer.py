"""Deterministic mini-batch training of the toy encoders with checkpoints.

All randomness (init, epoch shuffling) flows from one seeded generator whose
state is stored in every checkpoint, so a resumed run consumes the exact
random stream of an uninterrupted one and reproduces it bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .crossmodal import LossConfig, total_loss
from .datapipe import Vocabulary
from .encoders import (
    EncoderParams,
    PARAM_NAMES,
    TokenSequence,
    encode_image_patches,
    encode_text_toy,
    image_patch_matrix,
)
from .errors import (
    ConsistencyError,
    FormatError,
    InsufficientDataError,
    TrainingDivergenceError,
    VersionError,
)
from .numerics import GradTape, Tensor, backward


@dataclass
class TrainConfig:
    """Optimization, loss, and encoder-shape settings for one run."""

    batch_size: int = 16
    steps: int = 500
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    dim: int = 64
    patch_pool: int = 8
    region_grid: tuple[int, int] = (3, 3)
    max_length: int = 97
    use_positions: bool = False
    init_scale: float = 0.05
    vocab_size: int | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {b}")
        if isinstance(self.loss, dict):
            self.loss = LossConfig(**self.loss)
        self.region_grid = tuple(self.region_grid)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["region_grid"] = list(self.region_grid)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)

    def hash(self) -> str:
        """Digest of everything that shapes the model or the random stream.

        `steps` is excluded: a run stopped early and resumed to a longer
        horizon is still the same experiment.
        """
        d = self.to_dict()
        d.pop("steps")
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


@dataclass
class AdamState:
    """First/second moment buffers plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: EncoderParams) -> "AdamState":
        return cls(
            m={k: np.zeros(p.shape) for k, p in params.parameters().items()},
            v={k: np.zeros(p.shape) for k, p in params.parameters().items()},
        )


def _assign(t: Tensor, arr: np.ndarray) -> None:
    """Swap a tensor's buffer in place (parameter update, not a taped op)."""
    new = np.asarray(arr, dtype=np.float64, order="C")
    new.flags.writeable = False
    t.data = new


def optimizer_step(params: EncoderParams, grads: dict[str, np.ndarray],
                   state: AdamState, config: TrainConfig) -> None:
    """One Adam update with bias correction, in place."""
    state.t += 1
    b1, b2, eps = config.beta1, config.beta2, config.epsilon
    for name, tensor in params.parameters().items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(tensor.shape)
        if not np.all(np.isfinite(g)):
            raise TrainingDivergenceError(name)
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1 ** state.t)
        v_hat = state.v[name] / (1 - b2 ** state.t)
        _assign(tensor, tensor.data - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps))


@dataclass
class Checkpoint:
    """Everything needed to resume training or run inference."""

    params: EncoderParams
    adam: AdamState
    step: int
    config: TrainConfig
    config_hash: str
    vocab: Vocabulary
    rng_state: dict
    order: list[int]
    pointer: int


def encode_report(text: str, vocab: Vocabulary, config: TrainConfig) -> TokenSequence:
    """Tokenize one report under the experiment vocabulary, truncated."""
    ids = vocab.encode(text)[: config.max_length]
    return TokenSequence(tuple(ids), vocab_size=len(vocab), max_length=config.max_length)


def _prepare(records, config: TrainConfig, vocab: Vocabulary | None):
    """Patch matrices, token sequences, and the vocabulary for a dataset."""
    if len(records) < 2:
        raise InsufficientDataError(
            f"training needs at least 2 paired studies, got {len(records)}"
        )
    for rec in records:
        if rec.image is None or not rec.report_text.strip():
            raise InsufficientDataError(
                f"study {rec.study_id!r} is missing an image or a report"
            )
    if vocab is None:
        vocab = Vocabulary.from_texts(r.report_text for r in records)
    if config.vocab_size is not None and config.vocab_size != len(vocab):
        raise ConsistencyError(
            f"config expects vocabulary of {config.vocab_size}, dataset has {len(vocab)}"
        )
    patches = [image_patch_matrix(r.image, config.patch_pool) for r in records]
    sequences = [encode_report(r.report_text, vocab, config) for r in records]
    return patches, sequences, vocab


def train(records, config: TrainConfig, log_path=None,
          resume_from: Checkpoint | None = None) -> Checkpoint:
    """Run `config.steps` total optimization steps over paired studies.

    Batches walk a seeded epoch permutation; a leftover chunk of fewer than
    2 studies is dropped and a fresh epoch begins. With `resume_from`, the
    random stream, moments, and epoch position continue where the saved run
    stopped, so the result is bit-identical to never having stopped.
    """
    if resume_from is not None:
        if resume_from.config_hash != config.hash():
            raise ConsistencyError(
                "checkpoint was produced under a different configuration"
            )
        patches, sequences, vocab = _prepare(records, config, resume_from.vocab)
        params = resume_from.params
        adam = resume_from.adam
        rng = np.random.default_rng()
        rng.bit_generator.state = resume_from.rng_state
        order = list(resume_from.order)
        pointer = resume_from.pointer
        start_step = resume_from.step
    else:
        patches, sequences, vocab = _prepare(records, config, None)
        rng = np.random.default_rng(config.seed)
        params = EncoderParams.initialize(
            config.dim, len(vocab), patch_pool=config.patch_pool,
            use_positions=config.use_positions, rng=rng,
            init_scale=config.init_scale,
        )
        adam = AdamState.for_params(params)
        order = list(rng.permutation(len(records)))
        pointer = 0
        start_step = 0

    n = len(records)
    log_fh = open(log_path, "w" if resume_from is None else "a") if log_path else None
    try:
        for step in range(start_step, config.steps):
            if n - pointer < 2:
                order = list(rng.permutation(n))
                pointer = 0
            take = min(config.batch_size, n - pointer)
            batch = order[pointer : pointer + take]
            pointer += take

            with GradTape() as tape:
                imgs = [encode_image_patches(patches[i], params) for i in batch]
                txts = [encode_text_toy(sequences[i], params) for i in batch]
                breakdown = total_loss(imgs, txts, config.loss)
                backward(breakdown.total, tape)
            grads = {name: p.grad for name, p in params.parameters().items()}
            optimizer_step(params, grads, adam, config)
            for p in params.parameters().values():
                p.zero_grad()

            if log_fh is not None:
                row = {"step": step, **breakdown.as_dict()}
                log_fh.write(json.dumps(row, sort_keys=True) + "\n")
    finally:
        if log_fh is not None:
            log_fh.close()

    return Checkpoint(
        params=params, adam=adam, step=config.steps, config=config,
        config_hash=config.hash(), vocab=vocab,
        rng_state=rng.bit_generator.state, order=order, pointer=pointer,
    )


# ---------------------------------------------------------------------------
# GLCK1 checkpoint files
# ---------------------------------------------------------------------------

_MAGIC = b"GLCK1"
_VERSION = 1
_HEADER_KEYS = ("step", "adam_t", "config", "config_hash", "vocab", "rng_state",
                "order", "pointer", "arrays")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Versioned binary: magic, version, JSON header, then f64 buffers."""
    arrays: list[tuple[str, np.ndarray]] = []
    for name, tensor in ckpt.params.parameters().items():
        arrays.append((f"param/{name}", tensor.data))
    for name in PARAM_NAMES:
        arrays.append((f"adam_m/{name}", ckpt.adam.m[name]))
    for name in PARAM_NAMES:
        arrays.append((f"adam_v/{name}", ckpt.adam.v[name]))

    header = {
        "step": ckpt.step,
        "adam_t": ckpt.adam.t,
        "config": ckpt.config.to_dict(),
        "config_hash": ckpt.config_hash,
        "vocab": list(ckpt.vocab.tokens),
        "rng_state": _encode_rng_state(ckpt.rng_state),
        "order": [int(i) for i in ckpt.order],
        "pointer": ckpt.pointer,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _encode_rng_state(state: dict) -> dict:
    """PCG64 state uses 128-bit ints; stringify them for JSON."""
    return {
        "bit_generator": state["bit_generator"],
        "state": {k: str(v) for k, v in state["state"].items()},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


def _decode_rng_state(payload: dict) -> dict:
    return {
        "bit_generator": payload["bit_generator"],
        "state": {k: int(v) for k, v in payload["state"].items()},
        "has_uint32": payload["has_uint32"],
        "uinteger": payload["uinteger"],
    }


def _is_shape(shape) -> bool:
    return isinstance(shape, list) and all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_MAGIC)] != _MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:5]!r}", offset=0)
    pos = len(_MAGIC)
    if len(blob) < pos + 8:
        raise FormatError("truncated checkpoint header", offset=pos)
    (version,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if version != _VERSION:
        raise VersionError(
            f"checkpoint format version {version} is not supported (expected {_VERSION})"
        )
    (header_len,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if len(blob) < pos + header_len:
        raise FormatError("truncated checkpoint header", offset=pos)
    try:
        header = json.loads(blob[pos : pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable checkpoint header: {exc}", offset=pos) from exc
    missing = [k for k in _HEADER_KEYS if not isinstance(header, dict) or k not in header]
    if missing:
        raise FormatError(f"checkpoint header lacks {', '.join(missing)}", offset=pos)
    if not isinstance(header["arrays"], list) or any(
            not isinstance(m, dict) or not {"name", "shape"} <= m.keys()
            or not _is_shape(m["shape"]) for m in header["arrays"]):
        raise FormatError("checkpoint 'arrays' must list entries with 'name' and a 'shape' "
                          "of non-negative ints", offset=pos)
    try:
        config = TrainConfig.from_dict(header["config"])
        rng_state = _decode_rng_state(header["rng_state"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"malformed checkpoint header: {exc!r}", offset=pos) from exc
    pos += header_len

    buffers: dict[str, np.ndarray] = {}
    for meta in header["arrays"]:
        shape = tuple(meta["shape"])
        count = math.prod(shape)
        nbytes = 8 * count
        if len(blob) < pos + nbytes:
            raise FormatError(
                f"truncated checkpoint: array {meta['name']!r} needs {nbytes} bytes",
                offset=pos,
            )
        buffers[meta["name"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=pos
        ).reshape(shape).copy()
        pos += nbytes
    if pos != len(blob):
        raise FormatError(f"{len(blob) - pos} trailing bytes after the last checkpoint array",
                          offset=pos)

    absent = [f"{kind}/{name}" for kind in ("param", "adam_m", "adam_v")
              for name in PARAM_NAMES if f"{kind}/{name}" not in buffers]
    if absent:
        raise FormatError(f"checkpoint lacks array {absent[0]!r}", offset=pos)
    kwargs = {}
    for name in PARAM_NAMES:
        kwargs[name] = Tensor(buffers[f"param/{name}"], requires_grad=True)
    params = EncoderParams(patch_pool=config.patch_pool,
                           use_positions=config.use_positions, **kwargs)
    adam = AdamState(
        m={name: buffers[f"adam_m/{name}"] for name in PARAM_NAMES},
        v={name: buffers[f"adam_v/{name}"] for name in PARAM_NAMES},
        t=header["adam_t"],
    )
    return Checkpoint(
        params=params,
        adam=adam,
        step=header["step"],
        config=config,
        config_hash=header["config_hash"],
        vocab=Vocabulary(tuple(header["vocab"])),
        rng_state=rng_state,
        order=[int(i) for i in header["order"]],
        pointer=header["pointer"],
    )
