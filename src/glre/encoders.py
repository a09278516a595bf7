"""Toy image/text encoders producing local and global feature matrices.

Each encoder runs once per batch of studies and emits a LocalGlobalFeatures
batch: every study's L2-normalized per-region or per-token rows, stacked,
plus one normalized global row per study. The image side mean-pools every
grid region to a small patch vector and projects all patches in one matmul;
the text side embeds each distinct word of the batch once, keyed by its
token id (and its position, with positions on), and gathers the per-word
rows from those. A study's global row is a projection of the mean of its
pre-normalization rows. Each encoder call is one taped op with one fused
adjoint; its 2-D outputs are the local and the global rows, and on the text
side also the distinct word rows that scoring reads. save_embeddings writes
single-study features in the GLRE1 layout for use outside glre; nothing in
the package reads it back.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRowError, FormatError, ShapeError, VocabularyError
from .files import reading, write_file
from . import numerics as nm
from .numerics import _NORM_FLOOR, Tensor


@dataclass
class ImageGrid:
    """Grayscale image with a fixed (gr, gc) region tiling."""

    pixels: np.ndarray
    region_grid: tuple[int, int] = (3, 3)

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2:
            raise ShapeError(f"image pixels must be 2-D, got shape {self.pixels.shape}")
        gr, gc = self.region_grid
        self.region_grid = (gr, gc)  # hashable, as image_patch_matrix groups by it
        h, w = self.pixels.shape
        if gr < 1 or gc < 1 or h % gr or w % gc:
            raise ShapeError(
                f"image {h}x{w} not divisible by region grid {gr}x{gc}"
            )
        # negated, so that a NaN minimum or maximum fails it too
        if self.pixels.size and not (self.pixels.min() >= 0.0 and self.pixels.max() <= 1.0):
            raise ValueError("pixel intensities must lie in [0, 1]")


@dataclass(frozen=True)
class TokenSequence:
    """Ordered vocabulary IDs for one text, bounded by max_length."""

    ids: tuple[int, ...]
    vocab_size: int
    max_length: int = 97

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))
        if len(self.ids) < 1:
            raise ShapeError("token sequence must contain at least one token")
        if len(self.ids) > self.max_length:
            raise ShapeError(
                f"sequence length {len(self.ids)} exceeds max_length {self.max_length}"
            )
        for i in self.ids:
            if i < 0 or i >= self.vocab_size:
                raise VocabularyError(
                    f"token id {i} outside vocabulary of size {self.vocab_size}"
                )

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class LocalGlobalFeatures:
    """B studies (one by default): (sum n_k, D) unit-norm local rows, study k's
    n_k rows contiguous; (B, D) unit-norm global rows; lengths holds the n_k.

    A text batch from encode_text_toy also carries `distinct`, the (U, D)
    distinct rows among its local rows in order of first use, and `word_rows`,
    the (sum n_k,) index for which local row n is distinct row word_rows[n].
    Scoring reads the words through these two, so each distinct row is
    scored once; features whose `distinct` is None count every local row as
    distinct."""

    local: Tensor
    global_feat: Tensor
    modality: str
    lengths: tuple[int, ...] | None = None
    distinct: Tensor | None = None
    word_rows: np.ndarray | None = None

    def __post_init__(self):
        if self.modality not in ("image", "text"):
            raise ValueError(f"modality must be image or text, got {self.modality!r}")
        if self.lengths is None:
            self.lengths = (self.local.shape[0],)


PARAM_NAMES = ("patch_proj", "patch_bias", "token_table", "global_proj_image", "global_proj_text")


def param_shapes(dim: int, vocab_size: int, patch_pool: int) -> dict[str, tuple[int, ...]]:
    """Shape of each trainable tensor in PARAM_NAMES order: the one parameter
    layout, shared by init draws, Adam's moments and GLCK checkpoints."""
    return {"patch_proj": (patch_pool * patch_pool, dim), "patch_bias": (dim,),
            "token_table": (vocab_size, dim), "global_proj_image": (dim, dim),
            "global_proj_text": (dim, dim)}


@dataclass(eq=False)
class EncoderParams:
    """All trainable tensors of the two toy encoders, as views of one read-only vector,
    with each tensor's `.grad` its piece of `grad`, one writable vector that starts at zero.

    `flat` holds, row-major in param_shapes order, patch_proj [P x D] (P = patch_pool^2),
    patch_bias [D], token_table [V x D] and global_proj_* [D x D] per modality; `bind`
    moves the same five Tensor objects onto a new vector, so a holder sees the update."""

    flat: np.ndarray
    dim: int
    vocab_size: int
    patch_pool: int = 8
    use_positions: bool = False

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {self.dim}")
        for name in PARAM_NAMES:
            setattr(self, name, Tensor(0.0, requires_grad=True))
        shapes = param_shapes(self.dim, self.vocab_size, self.patch_pool).values()
        ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        self._layout = list(zip([0] + ends, ends, shapes))  # each tensor's [start, end), shape
        self.grad = np.zeros(np.size(self.flat))
        self.bind(np.asarray(self.flat, dtype=np.float64))
        if not np.isfinite(self.flat).all():
            bad = next(n for n, t in self.parameters().items() if not np.isfinite(t.data).all())
            raise ValueError(f"parameter {bad} contains non-finite values")

    def bind(self, flat: np.ndarray) -> None:
        """Make `flat` the read-only parameter vector; tensors' data and .grad view it and grad."""
        flat.flags.writeable = False
        self.flat = flat
        for t, (start, end, shape) in zip(self.parameters().values(), self._layout):
            t.data, t.grad = flat[start:end].reshape(shape), self.grad[start:end].reshape(shape)

    def parameters(self) -> dict[str, Tensor]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def initialize(cls, dim: int, vocab_size: int, patch_pool: int = 8,
                   use_positions: bool = False, rng: np.random.Generator | None = None,
                   init_scale: float = 0.05) -> "EncoderParams":
        """Seeded uniform(-init_scale, init_scale) draws of the whole vector.

        The small scale keeps initial cosines near zero, so the initial
        contrastive loss sits near ln(batch size).
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        size = sum(math.prod(shape) for shape in param_shapes(dim, vocab_size, patch_pool).values())
        return cls(rng.uniform(-init_scale, init_scale, size=size), dim, vocab_size,
                   patch_pool, use_positions)


def adaptive_mean_pool(blocks: np.ndarray, out: int) -> np.ndarray:
    """Average-pool the last two axes of `blocks` to out x out cells.

    Cell (i, j) of an h x w block covers rows [i*h//out, (i+1)*h//out) and
    the matching columns; each span is non-empty because h, w >= out.
    Leading axes index separate blocks, all pooled in one pass.
    """
    h, w = blocks.shape[-2:]
    if h < out or w < out:
        raise ShapeError(f"cannot pool {h}x{w} block to {out}x{out}")
    rows = np.arange(out + 1) * h // out
    cols = np.arange(out + 1) * w // out
    sums = np.add.reduceat(np.add.reduceat(blocks, rows[:-1], axis=-2), cols[:-1], axis=-1)
    return sums / np.outer(np.diff(rows), np.diff(cols))


# Pooling budget: a chunk of images of one size holds at most this many pixels
# (128 KiB of float64), unless one image alone is larger, so that a chunk's blocks
# and its pooling temporaries stay in a 2 MiB L2; 28 of the default 24 x 24 images
# make a chunk. classify.image_features encodes in chunks of the same budget.
CHUNK_PIXELS = 1 << 14


def image_patch_matrix(images, patch_pool: int):
    """Pooled-and-flattened region patches, regions row-major: the R x P matrix
    of one ImageGrid, or the list of matrices of a sequence of them, in order.

    Images of one pixel shape and region grid are pooled in chunks of at most
    CHUNK_PIXELS pixels (or one image), one adaptive_mean_pool call a chunk;
    each cell sums its pixels in the order it would for a lone image. Every
    matrix is a row block of one array, so no temporary grows with the count.
    """
    one = isinstance(images, ImageGrid)
    images = [images] if one else list(images)
    groups: dict[tuple, list[int]] = {}
    for k, img in enumerate(images):
        groups.setdefault((img.pixels.shape, img.region_grid), []).append(k)
    starts = np.cumsum([0] + [math.prod(img.region_grid) for img in images])
    out = np.empty((starts[-1], patch_pool * patch_pool))
    for ((h, w), (gr, gc)), ks in groups.items():
        rh, rw, r = h // gr, w // gc, gr * gc
        rows = (starts[ks][:, None] + np.arange(r)).ravel()  # the group's rows of out
        step = max(1, CHUNK_PIXELS // max(1, h * w))
        for i in range(0, len(ks), step):
            chunk = ks[i : i + step]
            blocks = np.concatenate([images[k].pixels.reshape(1, gr, rh, gc, rw).swapaxes(2, 3)
                                     for k in chunk], out=np.empty((len(chunk), gr, gc, rh, rw)))
            out[rows[i * r : (i + len(chunk)) * r]] = (
                adaptive_mean_pool(blocks, patch_pool).reshape(-1, out.shape[1]))
    matrices = [out[a:b] for a, b in zip(starts, starts[1:])]
    return matrices[0] if one else matrices


def sinusoidal_positions(length: int, dim: int, scale: float = 0.05) -> np.ndarray:
    """Fixed sine/cosine position table, scaled to the embedding init range."""
    pos = np.arange(length)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return scale * table


def _unit_rows(x: np.ndarray, word_rows=None):
    """The rows of 2-D `x` scaled to unit norm, and their norms; the first row
    of norm <= _NORM_FLOOR raises DegenerateRowError with its index, or, for
    distinct rows in order of first use, with that of its first use in
    `word_rows`, which is then the first such row of x[word_rows]."""
    norms = np.sqrt((x * x).sum(axis=1))
    bad = np.flatnonzero(norms <= _NORM_FLOOR)
    if bad.size:
        row = bad[0] if word_rows is None else np.argmax(word_rows == bad[0])
        raise DegenerateRowError(int(row), float(norms[bad[0]]))
    return x / norms[:, None], norms


def _unit_rows_adjoint(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient at x of the loss given its gradient g at y, norms = _unit_rows(x)."""
    inner = (g * y).sum(axis=1, keepdims=True)
    return (g - y * inner) / norms[:, None]


def _add_rows(rows, g: np.ndarray, n: int) -> np.ndarray:
    """The (n, D) sums of the rows of g, row k added into row rows[k]. One
    bincount bin per (row, column): bincount adds each bin's weights onto
    zero in order of occurrence, as np.add.at does, so the sums are
    bit-identical to it (np.add.reduceat's pairwise sums are not)."""
    d = g.shape[1]
    bins = (np.asarray(rows, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=g.ravel(), minlength=n * d).reshape(n, d)


def _local_global(pre, lengths, proj: Tensor, inputs, pre_adjoint, modality, word_rows=None):
    """Features from the (sum n_k, D) rows `pre`, one taped op with `inputs`.

    local = unit rows of pre; global = unit rows of (mean of each study's run
    of rows) @ proj. `pre_adjoint(g_pre)` gives the gradients of the inputs
    before proj; the adjoint appends proj's. An output the loss does not
    reach adds nothing, and where both do, the mean path's term comes first
    in g_pre, so each sum rounds as that of the composed ops would.

    Given `word_rows`, `pre` holds distinct rows in order of first use and
    the stacked rows are pre[word_rows]. The op then has a third output, the
    distinct unit rows, whose local rows are gathered copies. Where the loss
    reaches the distinct rows, the stacked rows' gradient is added onto them
    and `pre_adjoint(g, True)` takes the gradient at the distinct rows;
    elsewhere `pre_adjoint(g_pre)` takes it at the stacked rows.
    """
    counts = np.asarray(lengths, dtype=np.int64)
    units, norms = _unit_rows(pre, word_rows)
    stacked = slice(None) if word_rows is None else word_rows
    local, rows = units[stacked], pre[stacked]
    mean = np.add.reduceat(rows, np.cumsum(counts) - counts, axis=0) / counts[:, None]
    wg = proj.data
    glob, glob_norms = _unit_rows(mean @ wg)

    def bw(g_local, g_global, g_distinct=None):
        g_pre = g_wg = None
        if g_global is not None:
            g_h = _unit_rows_adjoint(g_global, glob, glob_norms)
            g_wg = mean.T @ g_h
            g_pre = np.repeat((g_h @ wg.T) / counts[:, None], counts, axis=0)
        if g_local is not None:
            g_l = _unit_rows_adjoint(g_local, local, norms[stacked])
            g_pre = g_l if g_pre is None else g_pre + g_l
        if g_distinct is None:
            return (*pre_adjoint(g_pre), g_wg)
        g_units = _unit_rows_adjoint(g_distinct, units, norms)
        if g_pre is not None:
            g_units += _add_rows(word_rows, g_pre, len(units))
        return (*pre_adjoint(g_units, True), g_wg)

    outs = nm._emit((local, glob) if word_rows is None else (local, glob, units), inputs, bw)
    # a text batch's third output and its index fill `distinct` and `word_rows`
    return LocalGlobalFeatures(*outs[:2], modality, lengths, *outs[2:], word_rows)


def encode_image_patches(patches, params: EncoderParams) -> LocalGlobalFeatures:
    """Encode a batch of images from their pre-pooled (R_k, P) patch matrices.

    The global rows project the mean of un-normalized region features, so they
    keep magnitude information that per-row normalization discards. One taped
    op with inputs patch_proj, patch_bias and global_proj_image.
    """
    p = params.patch_proj.shape[0]
    if len(patches) == 0 or any(m.ndim != 2 or m.shape[1] != p for m in patches):
        raise ShapeError(f"need a non-empty list of (R, {p}) patch matrices, got shapes "
                         f"{[m.shape for m in patches]}")
    lengths = tuple(m.shape[0] for m in patches)
    x = np.concatenate(patches, dtype=np.float64)
    del patches  # the last reference when the caller kept none
    if not np.isfinite(x).all():
        raise ValueError("tensor values must be finite")
    pre = x @ params.patch_proj.data
    pre += params.patch_bias.data
    return _local_global(
        pre, lengths, params.global_proj_image,
        (params.patch_proj, params.patch_bias, params.global_proj_image),
        lambda g: (x.T @ g, g.sum(axis=0)), "image")


def encode_text_toy(seqs, params: EncoderParams) -> LocalGlobalFeatures:
    """Embed one TokenSequence or a list of them (optional positions), normalize.

    A word's row depends only on its token id, and on its position in its
    text when positions are used, so each distinct key is embedded once and
    the features carry the distinct rows and the index of them (see
    LocalGlobalFeatures); every local row is bit-identical to the row the
    word would get alone. One taped op with inputs token_table and
    global_proj_text.
    """
    seqs = [seqs] if isinstance(seqs, TokenSequence) else list(seqs)
    if not seqs:
        raise ShapeError("need at least one token sequence")
    bad = [seq.vocab_size for seq in seqs if seq.vocab_size != params.vocab_size]
    if bad:
        raise VocabularyError(f"sequence vocabulary {bad[0]} != table size {params.vocab_size}")
    lengths = tuple(len(seq) for seq in seqs)
    ids = [i for seq in seqs for i in seq.ids]
    width = max(lengths)  # a word's key: its id, or with positions id * width + position
    keys = ([i * width + p for seq in seqs for p, i in enumerate(seq.ids)]
            if params.use_positions else ids)
    # the distinct keys in order of first use, each numbered by its row
    row_of = {key: row for row, key in enumerate(dict.fromkeys(keys))}
    word_rows = np.fromiter(map(row_of.__getitem__, keys), dtype=np.intp, count=len(keys))
    distinct_ids = np.fromiter(row_of, dtype=np.int64, count=len(row_of))
    table = params.token_table.data
    if params.use_positions:
        distinct_ids, at = np.divmod(distinct_ids, width)
        pre = table[distinct_ids] + sinusoidal_positions(width, params.dim)[at]
    else:
        pre = table[distinct_ids]

    def table_adjoint(g, at_distinct=False):
        return (_add_rows(distinct_ids if at_distinct else ids, g, len(table)),)

    return _local_global(pre, lengths, params.global_proj_text,
                         (params.token_table, params.global_proj_text), table_adjoint, "text",
                         word_rows)


# ---------------------------------------------------------------------------
# GLRE1 embedding files
# ---------------------------------------------------------------------------

_MAGIC = b"GLRE1"
_MODALITY_CODE = {"image": 0, "text": 1}


def save_embeddings(path, items: dict[str, LocalGlobalFeatures]) -> None:
    """Write single-study features keyed by study ID in the GLRE1 binary layout."""
    parts = [_MAGIC, struct.pack("<I", len(items))]
    for study_id, feats in items.items():
        raw_id = study_id.encode("utf-8")
        if len(raw_id) > 0xFFFF:
            raise ValueError(f"study id too long to encode: {study_id!r}")
        local = np.asarray(feats.local.data, dtype=np.float32)
        glob = np.asarray(feats.global_feat.data, dtype=np.float32)
        rows, dim = local.shape
        if glob.shape != (1, dim):
            raise ShapeError(
                f"global row shape {glob.shape} does not match (1, {dim})"
            )
        parts += [struct.pack("<H", len(raw_id)), raw_id,
                  struct.pack("<BII", _MODALITY_CODE[feats.modality], rows, dim),
                  local.astype("<f4").tobytes(), glob.astype("<f4").tobytes()]
    write_file(path, b"".join(parts))


# ---------------------------------------------------------------------------
# 8-bit grayscale PGM (P5)
# ---------------------------------------------------------------------------


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write intensities in [0,1] as a maxval-255 binary PGM."""
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"PGM pixels must be 2-D, got shape {arr.shape}")
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError("pixel intensities must lie in [0, 1]")
    quant = np.rint(arr * 255.0).astype(np.uint8)
    h, w = arr.shape
    write_file(path, f"P5\n{w} {h}\n255\n".encode("ascii") + quant.tobytes())


# a field of ten or more significant digits does not match, so int() never
# sees an oversized number
_PGM_HEADER = re.compile(rb"P5" + rb"\s(?:\s|#[^\n]*\n)*0*(\d{1,9})" * 3 + rb"\s")


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into float intensities in [0,1].

    The header is b"P5", then width, height and maxval (which must be 255),
    each after a separator that starts with whitespace and may hold '#'
    comments running to the end of their line; one whitespace byte ends it.
    """
    with reading(path) as blob:
        header = _PGM_HEADER.match(blob)
        if header is None:
            raise FormatError(f"malformed PGM header {blob[:32]!r}: expected b'P5', width, "
                              "height and maxval, each after whitespace", offset=0)
        width, height, maxval = (int(digits) for digits in header.groups())
        pos = header.end()
        if width < 1 or height < 1:
            raise FormatError(f"bad PGM dimensions {width}x{height}", offset=pos)
        if maxval != 255:
            raise FormatError(f"only 8-bit PGM supported, maxval {maxval}", offset=pos)
        need = width * height
        if len(blob) - pos < need:
            raise FormatError(f"truncated PGM raster: expected {need} bytes, got "
                              f"{len(blob) - pos}", offset=pos)
        return np.divide(np.frombuffer(blob, np.uint8, need, pos).reshape(height, width), 255.0)
