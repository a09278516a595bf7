"""Deterministic mini-batch training of the toy encoders with checkpoints.

All randomness (init, epoch shuffling) flows from one seeded generator whose
state is stored in every checkpoint. A fresh run starts from the step-0
checkpoint that `initial_checkpoint` builds and a resumed one from a saved
checkpoint, down the same path, so a resumed run consumes the exact random
stream of an uninterrupted one and reproduces it bit for bit.

The parameters are one flat vector, `EncoderParams.flat`, and their gradients
another, `EncoderParams.grad`, in the layout of encoders.param_shapes: init
draws the first, Adam reads the second and updates the first with moments in
that layout, and a GLCK1 checkpoint stores parameters, m and v as one payload,
then a SHA-256 of everything before it, which the loader checks first. The
checkpoint is written whole by `files.write_file`; `train` writes no file.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .crossmodal import LossConfig, total_loss
from .datapipe import Vocabulary, tokenize
from .encoders import (
    EncoderParams,
    TokenSequence,
    encode_image_patches,
    encode_text_toy,
    image_patch_matrix,
    param_shapes,
)
from .errors import (
    ConsistencyError,
    FormatError,
    InsufficientDataError,
    TrainingDivergenceError,
    VersionError,
    check_grid,
    check_memory,
    check_number,
)
from .files import reading, write_file
from .numerics import GradTape, backward


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
        for name, minimum in (("batch_size", 2), ("steps", 0), ("seed", 0), ("dim", 1),
                              ("patch_pool", 1), ("max_length", 1)):
            check_number(name, getattr(self, name), integer=True, minimum=minimum)
        for name in ("learning_rate", "beta1", "beta2", "epsilon", "init_scale"):
            check_number(name, getattr(self, name))
        if self.vocab_size is not None:
            check_number("vocab_size", self.vocab_size, integer=True)
        if not isinstance(self.use_positions, bool):
            raise TypeError(f"use_positions must be true or false, got {self.use_positions!r}")
        self.region_grid = check_grid("region_grid", self.region_grid)
        if isinstance(self.loss, dict):
            self.loss = LossConfig(**self.loss)
        elif not isinstance(self.loss, LossConfig):
            raise TypeError(f"'loss' must be an object of loss settings, got {self.loss!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {b}")

    def hash(self) -> str:
        """Digest of everything that shapes the model or the random stream.

        `steps` is excluded: a run stopped early and resumed to a longer
        horizon is still the same experiment.
        """
        d = asdict(self)
        d.pop("steps")
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


@dataclass
class AdamState:
    """Adam's moments as flat float64 vectors in the parameter layout (each
    tensor row-major, in PARAM_NAMES order), plus the shared step counter;
    `work` holds two vectors of scratch space for `optimizer_step`."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = np.empty((2, np.size(self.m)))

    @classmethod
    def for_params(cls, params: EncoderParams) -> "AdamState":
        return cls(m=np.zeros(params.flat.size), v=np.zeros(params.flat.size))


def optimizer_step(params: EncoderParams, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update of the flat parameter vector from `params.grad`.

    A gradient the loss did not reach is the zeros left in that vector; a
    non-finite one raises TrainingDivergenceError naming its parameter before
    anything changes. The parameters are rebound to one new read-only vector.
    """
    g = params.grad
    if not np.isfinite(g).all():
        raise TrainingDivergenceError(next(name for name, t in params.parameters().items()
                                           if not np.isfinite(t.grad).all()))
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    # products and sums in the order of b1*m + (1-b1)*g, b2*v + (1-b2)*g*g and
    # p - lr*m_hat/(sqrt(v_hat) + eps), so in-place updates round the same
    step, denom = state.work
    state.m *= b1
    state.m += np.multiply(1 - b1, g, out=step)
    state.v *= b2
    state.v += np.multiply(np.multiply(1 - b2, g, out=step), g, out=step)
    np.multiply(config.learning_rate, np.divide(state.m, 1 - b1 ** state.t, out=step), out=step)
    np.sqrt(np.divide(state.v, 1 - b2 ** state.t, out=denom), out=denom)
    step /= np.add(denom, config.epsilon, out=denom)
    params.bind(params.flat - step)


@dataclass
class Checkpoint:
    """Everything needed to resume training or run inference."""

    params: EncoderParams
    adam: AdamState
    step: int
    config: TrainConfig
    vocab: Vocabulary
    rng_state: dict
    order: list[int]
    pointer: int


def encode_report(text: str, vocab: Vocabulary, config: TrainConfig) -> TokenSequence:
    """Tokenize one report under the experiment vocabulary, truncated."""
    return encode_tokens(tokenize(text), vocab, config)


def encode_tokens(tokens: list[str], vocab: Vocabulary, config: TrainConfig) -> TokenSequence:
    """encode_report of a report whose tokenize() is `tokens`."""
    ids = vocab.encode(tokens)[: config.max_length]
    return TokenSequence(tuple(ids), vocab_size=len(vocab), max_length=config.max_length)


def initial_checkpoint(records, config: TrainConfig, tokens=None) -> Checkpoint:
    """The step-0 state of a fresh run: the dataset's vocabulary, the seeded
    init, the first epoch permutation, and the generator state after them.
    `tokens`, if given, holds tokenize(report_text) of each record. Settings whose
    parameters and Adam state, or a batch's (I, N) word state, exceed physical memory
    are named before anything is allocated."""
    if tokens is None:
        tokens = [tokenize(r.report_text) for r in records]
    vocab = Vocabulary.from_tokens(tokens)
    size = sum(map(math.prod, param_shapes(config.dim, len(vocab), config.patch_pool).values()))
    check_memory(f"dim = {config.dim:,} and a vocabulary of {len(vocab):,} words", 32 * size,
                 "float64 parameters, gradient and Adam moments")
    if config.steps:
        batch = min(config.batch_size, len(records))
        words = min(config.max_length, min(map(len, tokens), default=0))
        check_memory(f"batch_size = {config.batch_size:,} and max_length = "
                     f"{config.max_length:,}", 8 * batch * batch * words,
                     f"float64 word state a step, {batch:,} studies of at least {words:,} words")
    rng = np.random.default_rng(config.seed)
    params = EncoderParams.initialize(
        config.dim, len(vocab), patch_pool=config.patch_pool,
        use_positions=config.use_positions, rng=rng, init_scale=config.init_scale,
    )
    order = [int(i) for i in rng.permutation(len(records))]
    return Checkpoint(params=params, adam=AdamState.for_params(params), step=0, config=config,
                      vocab=vocab, rng_state=rng.bit_generator.state, order=order, pointer=0)


def _prepare(records, tokens, config: TrainConfig, vocab: Vocabulary):
    """Patch matrices and token sequences of a dataset, its reports tokenized
    as `tokens`, under `vocab`."""
    if config.vocab_size is not None and config.vocab_size != len(vocab):
        raise ConsistencyError(
            f"config expects vocabulary of {config.vocab_size}, dataset has {len(vocab)}"
        )
    patches = image_patch_matrix([r.image for r in records], config.patch_pool)
    sequences = [encode_tokens(toks, vocab, config) for toks in tokens]
    return patches, sequences


def train(records, config: TrainConfig, resume_from: Checkpoint | None = None,
          on_step=None, tokens=None) -> Checkpoint:
    """Run `config.steps` total optimization steps over paired studies.

    Batches walk a seeded epoch permutation; a leftover chunk of fewer than
    2 studies is dropped and a fresh epoch begins. A fresh run is a resume
    from `initial_checkpoint(records, config)`: either way the random
    stream, moments, and epoch position continue from the start state, so a
    resumed run is bit-identical to one that never stopped; `resume_from`
    is left as it was. Once every input check has passed, `on_step(k)` is
    called with the start step k, then `on_step(step, loss)` after each
    step's update with its LossBreakdown. `tokens`, if given, holds
    tokenize(report_text) of each record.
    """
    if len(records) < 2:
        raise InsufficientDataError(f"training needs at least 2 paired studies, got {len(records)}")
    # one token list per report, for the check, the vocabulary and the ids
    if tokens is None:
        tokens = [tokenize(rec.report_text) for rec in records]
    for rec, toks in zip(records, tokens):
        if rec.image is None or not toks:
            raise InsufficientDataError(f"study {rec.study_id!r} has no image or no report tokens")
    state = (resume_from if resume_from is not None
             else initial_checkpoint(records, config, tokens))
    if state.config.hash() != config.hash():
        raise ConsistencyError("checkpoint was produced under a different configuration")
    if state.step > config.steps:
        raise ConsistencyError(f"checkpoint is at step {state.step}, past the "
                               f"{config.steps} steps configured")
    n = len(records)
    order, pointer = list(state.order), state.pointer
    if sorted(order) != list(range(n)) or not 0 <= pointer <= n:
        raise ConsistencyError(f"checkpoint's epoch order covers {len(order)} studies "
                               f"(at {pointer}), but {n} were given")
    patches, sequences = _prepare(records, tokens, config, state.vocab)
    params = replace(state.params)  # new tensors over the same read-only vector, new grad
    adam = replace(state.adam, m=state.adam.m.copy(), v=state.adam.v.copy())
    rng = np.random.default_rng()
    rng.bit_generator.state = state.rng_state

    if on_step is not None:
        on_step(state.step)
    for step in range(state.step, config.steps):
        if n - pointer < 2:
            order = list(rng.permutation(n))
            pointer = 0
        take = min(config.batch_size, n - pointer)
        batch = order[pointer : pointer + take]
        pointer += take

        with GradTape() as tape:
            imgs = encode_image_patches([patches[i] for i in batch], params)
            txts = encode_text_toy([sequences[i] for i in batch], params)
            breakdown = total_loss(imgs, txts, config.loss)
            backward(breakdown.total, tape)
        optimizer_step(params, adam, config)
        params.grad.fill(0.0)
        if on_step is not None:
            on_step(step, breakdown)

    return Checkpoint(
        params=params, adam=adam, step=config.steps, config=config, vocab=state.vocab,
        rng_state=rng.bit_generator.state, order=order, pointer=pointer,
    )


# ---------------------------------------------------------------------------
# GLCK1 checkpoint files
# ---------------------------------------------------------------------------

_MAGIC = b"GLCK1"
_VERSION = 3  # 2 added a payload digest; 3 replaced it with a trailer over the whole file
_HEADER_KEYS = ("step", "adam_t", "config", "vocab", "rng_state", "order", "pointer", "arrays")
_DIGEST_SIZE = 32


def _array_entries(shapes: dict[str, tuple[int, ...]]) -> list[dict]:
    """The header's `arrays` list: parameters, then Adam's m, then v."""
    return [{"name": f"{kind}/{name}", "shape": list(shape)}
            for kind in ("param", "adam_m", "adam_v") for name, shape in shapes.items()]


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Versioned binary: magic, version, header length, JSON header, one f64
    payload of the parameters, Adam's m and v in the layout the header's
    `arrays` spell, then the 32-byte SHA-256 of every byte before it.

    Written by `files.write_file`, so a save that fails part-way leaves any
    earlier file at `path` as it was.
    """
    header = {
        "step": ckpt.step,
        "adam_t": ckpt.adam.t,
        "config": asdict(ckpt.config),
        "vocab": list(ckpt.vocab.tokens),
        "rng_state": ckpt.rng_state,
        "order": [int(i) for i in ckpt.order],
        "pointer": ckpt.pointer,
        "arrays": _array_entries({name: t.shape for name, t in ckpt.params.parameters().items()}),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = np.concatenate([ckpt.params.flat, ckpt.adam.m, ckpt.adam.v], dtype="<f8")
    body = b"".join((_MAGIC, struct.pack("<II", _VERSION, len(blob)), blob, payload))
    write_file(path, body + hashlib.sha256(body).digest())


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def load_checkpoint(path) -> Checkpoint:
    with reading(path) as blob:
        if blob[: len(_MAGIC)] != _MAGIC:
            raise FormatError(f"bad checkpoint magic {blob[:5]!r}", offset=0)
        pos = len(_MAGIC)
        if len(blob) < pos + 8:
            raise FormatError("truncated checkpoint header", offset=pos)
        version, header_len = struct.unpack_from("<II", blob, pos)
        pos += 8
        if version != _VERSION:
            raise VersionError(
                f"checkpoint format version {version} is not supported (expected {_VERSION})"
            )
        trailer = len(blob) - _DIGEST_SIZE
        if trailer < pos or hashlib.sha256(blob[:trailer]).digest() != blob[trailer:]:
            raise FormatError("checkpoint does not match its SHA-256 digest",
                              offset=max(trailer, pos))
        # a hand-made file can carry a valid digest, so every field is still checked
        if trailer < pos + header_len:
            raise FormatError("truncated checkpoint header", offset=pos)
        try:
            header = json.loads(blob[pos : pos + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"unreadable checkpoint header: {exc}", offset=pos) from exc
        missing = [k for k in _HEADER_KEYS if not isinstance(header, dict) or k not in header]
        if missing:
            raise FormatError(f"checkpoint header lacks {', '.join(missing)}", offset=pos)
        if not (all(_is_count(header[k]) for k in ("step", "adam_t", "pointer"))
                and isinstance(header["order"], list) and all(map(_is_count, header["order"]))):
            raise FormatError("checkpoint 'step', 'adam_t' and 'pointer' must be non-negative "
                              "integers and 'order' a list of them", offset=pos)
        try:
            config = TrainConfig(**header["config"])
            vocab = Vocabulary(tuple(header["vocab"]))
            # numpy's setter rounds a fractional value and ignores unknown keys;
            # the state must read back from a generator exactly as stored
            rng = np.random.default_rng()
            rng.bit_generator.state = header["rng_state"]
            if rng.bit_generator.state != header["rng_state"]:
                raise ValueError("rng_state does not read back as stored")
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
            raise FormatError(f"malformed checkpoint header: {exc!r}", offset=pos) from exc
        shapes = param_shapes(config.dim, len(vocab), config.patch_pool)
        if header["arrays"] != _array_entries(shapes):
            raise FormatError("checkpoint 'arrays' must list the param/, adam_m/ and adam_v/ "
                              "arrays in PARAM_NAMES order, shaped as the config and "
                              "vocabulary give", offset=pos)
        pos += header_len

        size = sum(math.prod(shape) for shape in shapes.values())
        end = pos + 3 * 8 * size
        if trailer != end:
            raise FormatError(f"checkpoint payload has {trailer - pos} bytes, its header "
                              f"gives {end - pos}", offset=min(trailer, end))
        payload = np.frombuffer(blob, dtype="<f8", count=3 * size, offset=pos)
        bad = np.flatnonzero(~np.isfinite(payload))
        if bad.size:
            raise FormatError(f"checkpoint {('param', 'adam_m', 'adam_v')[bad[0] // size]} "
                              "payload holds a non-finite value", offset=pos + 8 * int(bad[0]))
        flat, m, v = payload.reshape(3, size)
    return Checkpoint(
        params=EncoderParams(flat.copy(), config.dim, len(vocab), config.patch_pool,
                             config.use_positions),
        adam=AdamState(m=m.copy(), v=v.copy(), t=header["adam_t"]),
        step=header["step"],
        config=config,
        vocab=vocab,
        rng_state=rng.bit_generator.state,
        order=header["order"],
        pointer=header["pointer"],
    )
