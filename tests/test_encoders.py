"""Toy encoder, embedding-file, and PGM tests."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glre import numerics as nm
from glre.encoders import (
    CHUNK_PIXELS,
    EncoderParams,
    ImageGrid,
    LocalGlobalFeatures,
    TokenSequence,
    adaptive_mean_pool,
    encode_image_patches,
    encode_text_toy,
    image_patch_matrix,
    read_pgm,
    save_embeddings,
    sinusoidal_positions,
    write_pgm,
)
from glre.errors import DegenerateRowError, FormatError, ShapeError, VocabularyError

from gradcheck import analytic_grads, max_rel_error
from pool_oracle import pool_each
import reference_ops as ref
from reference_ops import mul, tensor_sum


def encode_image(img, params):
    """One image encoded as a batch of one."""
    return encode_image_patches([image_patch_matrix(img, params.patch_pool)], params)


def make_params(dim=8, vocab=12, patch_pool=2, seed=0, **kw):
    return EncoderParams.initialize(dim, vocab, patch_pool=patch_pool,
                                    rng=np.random.default_rng(seed), **kw)


# ---------------------------------------------------------------------------
# ImageGrid and pooling
# ---------------------------------------------------------------------------


def test_image_grid_divisibility():
    ImageGrid(np.zeros((6, 6)), region_grid=(3, 3))
    with pytest.raises(ShapeError):
        ImageGrid(np.zeros((7, 6)), region_grid=(3, 3))


def test_image_grid_intensity_range():
    for bad in (1.5, -0.25, np.nan, np.inf, -np.inf):
        pixels = np.full((3, 3), 0.5)
        pixels[1, 2] = bad
        for grid in (pixels, np.full((3, 3), bad)):
            with pytest.raises(ValueError, match=r"pixel intensities must lie in \[0, 1\]"):
                ImageGrid(grid, region_grid=(1, 1))


def _region_loop_patches(px, region_grid, out):
    """Oracle: slice each region row-major and pool it on its own."""
    gr, gc = region_grid
    rh, rw = px.shape[0] // gr, px.shape[1] // gc
    rows = np.arange(out + 1) * rh // out
    cols = np.arange(out + 1) * rw // out
    patches = []
    for r in range(gr * gc):
        i, j = divmod(r, gc)
        block = px[i * rh:(i + 1) * rh, j * rw:(j + 1) * rw]
        sums = np.add.reduceat(np.add.reduceat(block, rows[:-1], axis=0), cols[:-1], axis=1)
        patches.append((sums / np.outer(np.diff(rows), np.diff(cols))).ravel())
    return np.stack(patches)


def test_image_patch_matrix_matches_region_loop_oracle():
    # bit-exact: one pass over all regions sums the same pixels in the same
    # order as pooling each region separately
    rng = np.random.default_rng(12)
    for _ in range(60):
        gr, gc = (int(v) for v in rng.integers(1, 5, size=2))
        out = int(rng.integers(1, 12))
        rh, rw = (int(v) for v in rng.integers(out, 301, size=2))
        img = ImageGrid(rng.uniform(size=(gr * rh, gc * rw)), region_grid=(gr, gc))
        got = image_patch_matrix(img, out)
        assert got.shape == (gr * gc, out * out)
        assert np.array_equal(got, _region_loop_patches(img.pixels, (gr, gc), out))


def _same_bytes(got, want):
    return len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_image_patch_matrix_of_a_list_is_each_image_pooled_alone():
    # bit-exact: a stack of same-size images sums each cell's pixels in the
    # order one image's pooling does, for spans of 8 and more and ragged ones
    rng = np.random.default_rng(28)
    drawn = set()
    for _ in range(60):
        gr, gc = (int(v) for v in rng.integers(1, 5, size=2))
        out = int(rng.integers(1, 12))
        rh, rw = (out * int(rng.integers(1, 13)) + int(rng.integers(0, out)) for _ in "hw")
        drawn |= {"span >= 8" for n in (rh, rw) if n // out >= 8}
        drawn |= {"ragged" for n in (rh, rw) if n % out}
        images = [ImageGrid(rng.uniform(size=(gr * rh, gc * rw)), region_grid=(gr, gc))
                  for _ in range(int(rng.integers(1, 5)))]
        got = image_patch_matrix(images, out)
        assert _same_bytes(got, pool_each(images, out))
        assert _same_bytes(got, [image_patch_matrix(img, out) for img in images])
        assert _same_bytes(got, [_region_loop_patches(img.pixels, (gr, gc), out)
                                 for img in images])
    assert drawn == {"span >= 8", "ragged"}


def test_image_patch_matrix_keeps_order_across_sizes_and_grids():
    # pooled to 8 x 8, the 24 x 24 images' 3 x 3 regions have spans of one pixel
    rng = np.random.default_rng(5)
    kinds = [(24, (3, 3)), (48, (3, 3)), (24, (2, 2)), (48, (4, 4))]
    images = [ImageGrid(rng.uniform(size=(size, size)), region_grid=grid)
              for size, grid in (kinds[int(k)] for k in rng.integers(0, 4, size=14))]
    assert len({(img.pixels.shape, img.region_grid) for img in images}) == 4
    got = image_patch_matrix(images, 8)
    assert [m.shape[0] for m in got] == [np.prod(img.region_grid) for img in images]
    assert _same_bytes(got, pool_each(images, 8))
    assert _same_bytes(got, [_region_loop_patches(img.pixels, img.region_grid, 8)
                             for img in images])
    assert image_patch_matrix([], 8) == []


def test_image_patch_matrix_chunk_edges_pool_each_image_alone():
    # 24 x 24 images pooled to 8 x 8 have one-pixel cells, 48 x 48 ones two-pixel
    # cells; each size is cut into its own chunks, interleaved or not
    rng = np.random.default_rng(29)
    chunk = CHUNK_PIXELS // (24 * 24)
    assert chunk > 2
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        images = [ImageGrid(rng.uniform(size=(24, 24))) for _ in range(n)]
        assert _same_bytes(image_patch_matrix(images, 8), pool_each(images, 8))
    sizes = [24, 48] * (2 * chunk + 1)
    images = [ImageGrid(rng.uniform(size=(s, s))) for s in sizes]
    assert _same_bytes(image_patch_matrix(images, 8), pool_each(images, 8))


def test_image_patch_matrix_holds_no_batch_sized_temporary():
    # pooled at once, 500 images held their blocks, two pooling sums and the
    # output together: a peak of 3x the output
    rng = np.random.default_rng(30)
    images = [ImageGrid(rng.uniform(size=(24, 24))) for _ in range(500)]
    tracemalloc.start()
    try:
        got = image_patch_matrix(images, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(m.nbytes for m in got)
    assert output == 500 * 9 * 64 * 8
    assert peak <= 1.3 * output


def test_image_grid_given_as_a_list_pools_as_its_tuple():
    pixels = np.random.default_rng(3).uniform(size=(24, 24))
    listed, tupled = ImageGrid(pixels, region_grid=[3, 3]), ImageGrid(pixels, region_grid=(3, 3))
    assert listed.region_grid == (3, 3)
    want = image_patch_matrix(tupled, 8)
    assert image_patch_matrix(listed, 8).tobytes() == want.tobytes()
    assert _same_bytes(image_patch_matrix([listed, tupled], 8), [want, want])


def test_adaptive_pool_constant_block():
    out = adaptive_mean_pool(np.full((8, 8), 0.3), 4)
    np.testing.assert_allclose(out, 0.3)


def test_adaptive_pool_uneven_spans():
    # 5 rows pooled to 2: spans are rows [0,2) and [2,5)
    block = np.arange(5, dtype=float)[:, None] @ np.ones((1, 5))
    block = block / 4.0
    out = adaptive_mean_pool(block, 2)
    assert out[0, 0] == pytest.approx(np.mean([0, 1]) / 4)
    assert out[1, 0] == pytest.approx(np.mean([2, 3, 4]) / 4)


def test_adaptive_pool_matches_slice_mean_loop():
    rng = np.random.default_rng(3)
    for _ in range(200):
        h, w = (int(v) for v in rng.integers(1, 20, size=2))
        out = int(rng.integers(1, min(h, w) + 1))
        block = rng.uniform(size=(h, w))
        want = np.array([[block[i * h // out:(i + 1) * h // out,
                                j * w // out:(j + 1) * w // out].mean()
                          for j in range(out)] for i in range(out)])
        np.testing.assert_allclose(adaptive_mean_pool(block, out), want, rtol=0, atol=1e-14)


def test_adaptive_pool_too_small():
    with pytest.raises(ShapeError):
        adaptive_mean_pool(np.zeros((2, 2)), 4)
    for pixels in (np.zeros((6, 6)), np.zeros((0, 0))):  # and no chunk of zero pixels
        with pytest.raises(ShapeError, match="cannot pool"):
            image_patch_matrix([ImageGrid(pixels)], 4)


# ---------------------------------------------------------------------------
# image encoder
# ---------------------------------------------------------------------------


def test_constant_image_gives_identical_local_rows():
    img = ImageGrid(np.full((6, 6), 0.5), region_grid=(3, 3))
    out = encode_image(img, make_params())
    rows = out.local.numpy()
    for r in range(1, 9):
        np.testing.assert_allclose(rows[r], rows[0], atol=1e-12)


def test_single_region_shapes():
    img = ImageGrid(np.linspace(0, 1, 16).reshape(4, 4), region_grid=(1, 1))
    out = encode_image(img, make_params())
    assert out.local.shape == (1, 8)
    assert out.global_feat.shape == (1, 8)
    assert np.linalg.norm(out.global_feat.numpy()) == pytest.approx(1.0, abs=1e-10)


def test_local_rows_change_only_in_modified_region():
    rng = np.random.default_rng(4)
    px = rng.uniform(0.2, 0.8, size=(6, 6))
    img_a = ImageGrid(px.copy(), region_grid=(3, 3))
    px2 = px.copy()
    px2[2:4, 2:4] = rng.uniform(0.2, 0.8, size=(2, 2))  # region 4 only
    img_b = ImageGrid(px2, region_grid=(3, 3))
    params = make_params()
    rows_a = encode_image(img_a, params).local.numpy()
    rows_b = encode_image(img_b, params).local.numpy()
    for r in range(9):
        if r == 4:
            assert np.abs(rows_a[r] - rows_b[r]).max() > 1e-8
        else:
            np.testing.assert_array_equal(rows_a[r], rows_b[r])


def test_image_encoder_unit_norm_rows():
    rng = np.random.default_rng(1)
    img = ImageGrid(rng.uniform(size=(12, 12)), region_grid=(3, 3))
    out = encode_image(img, make_params(patch_pool=4))
    norms = np.linalg.norm(out.local.numpy(), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)
    assert np.linalg.norm(out.global_feat.numpy()) == pytest.approx(1.0, abs=1e-10)


def test_image_encoder_deterministic():
    rng = np.random.default_rng(2)
    img = ImageGrid(rng.uniform(size=(6, 6)), region_grid=(2, 2))
    params = make_params(patch_pool=3)
    a = encode_image(img, params)
    b = encode_image(img, params)
    np.testing.assert_array_equal(a.local.numpy(), b.local.numpy())
    np.testing.assert_array_equal(a.global_feat.numpy(), b.global_feat.numpy())


def test_image_patch_matrix_shape():
    img = ImageGrid(np.zeros((12, 12)), region_grid=(3, 3))
    assert image_patch_matrix(img, 4).shape == (9, 16)


# ---------------------------------------------------------------------------
# text encoder
# ---------------------------------------------------------------------------


def test_token_sequence_validation():
    with pytest.raises(ShapeError):
        TokenSequence((), vocab_size=5)
    with pytest.raises(VocabularyError):
        TokenSequence((5,), vocab_size=5)
    with pytest.raises(ShapeError):
        TokenSequence(tuple(range(3)), vocab_size=5, max_length=2)


def test_single_token_shapes():
    out = encode_text_toy(TokenSequence((3,), vocab_size=12), make_params())
    assert out.local.shape == (1, 8)
    assert np.linalg.norm(out.global_feat.numpy()) == pytest.approx(1.0, abs=1e-10)


def test_repeated_token_identical_rows_without_positions():
    out = encode_text_toy(TokenSequence((4, 1, 4), vocab_size=12), make_params())
    rows = out.local.numpy()
    np.testing.assert_array_equal(rows[0], rows[2])


def test_positions_distinguish_repeated_tokens():
    params = make_params(use_positions=True)
    out = encode_text_toy(TokenSequence((4, 1, 4), vocab_size=12), params)
    rows = out.local.numpy()
    assert np.abs(rows[0] - rows[2]).max() > 1e-6


def test_permutation_invariant_global_without_positions():
    params = make_params()
    a = encode_text_toy(TokenSequence((1, 2, 3, 4), vocab_size=12), params)
    b = encode_text_toy(TokenSequence((4, 2, 1, 3), vocab_size=12), params)
    np.testing.assert_allclose(a.global_feat.numpy(), b.global_feat.numpy(), atol=1e-12)


def test_vocab_size_mismatch():
    seq = TokenSequence((0,), vocab_size=99)
    with pytest.raises(VocabularyError):
        encode_text_toy(seq, make_params(vocab=12))


def test_sinusoidal_table_shape_and_scale():
    table = sinusoidal_positions(5, 8, scale=0.05)
    assert table.shape == (5, 8)
    assert np.abs(table).max() <= 0.05 + 1e-12


# ---------------------------------------------------------------------------
# gradients through encoders
# ---------------------------------------------------------------------------


def test_image_encoder_gradients():
    rng = np.random.default_rng(7)
    img = ImageGrid(rng.uniform(size=(8, 8)), region_grid=(2, 2))
    params = make_params(dim=6, patch_pool=2, seed=7)
    probe = ref.constant(rng.normal(size=(6, 1)))

    def f():
        out = encode_image(img, params)
        s = ref.matmul(out.local, probe)
        g = ref.matmul(out.global_feat, probe)
        return ref.add(tensor_sum(s), tensor_sum(g))

    err = max_rel_error(f, [params.patch_proj, params.patch_bias,
                            params.global_proj_image], rng=rng)
    assert err < 1e-4


def test_text_encoder_gradients():
    rng = np.random.default_rng(8)
    params = make_params(dim=6, vocab=9, seed=8)
    seq = TokenSequence((2, 7, 2, 5), vocab_size=9)
    probe = ref.constant(rng.normal(size=(6, 1)))

    def f():
        out = encode_text_toy(seq, params)
        s = ref.matmul(out.local, probe)
        g = ref.matmul(out.global_feat, probe)
        return ref.add(tensor_sum(s), tensor_sum(g))

    err = max_rel_error(f, [params.token_table, params.global_proj_text], rng=rng)
    assert err < 1e-4


def test_encoder_tape_records_and_2d_outputs():
    # each encoder is one fused op whose outputs are the local and global rows
    params = make_params()
    patches = np.random.default_rng(9).uniform(size=(9, 4))
    seq = TokenSequence((4, 1, 4), vocab_size=12)
    for encode, arg, want in ((encode_image_patches, [patches], 1), (encode_text_toy, seq, 1)):
        with nm.GradTape() as tape:
            out = encode(arg, params)
        assert len(tape) == want
        assert out.global_feat.shape == (1, 8)
        assert all(t.ndim == 2 for rec in tape._records for t in rec[0])


@pytest.mark.parametrize("use_positions", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_batched_encoders_match_batches_of_one(use_positions, seed):
    # random ragged batches: the batched call's rows, global rows and
    # parameter gradients equal those of one call per study
    rng = np.random.default_rng(seed)
    params = make_params(dim=6, vocab=9, seed=seed, use_positions=use_positions)
    b = int(rng.integers(1, 7))
    patches = [rng.uniform(size=(int(rng.integers(1, 6)), 4)) for _ in range(b)]
    seqs = [TokenSequence(rng.integers(0, 9, size=int(rng.integers(1, 8))), vocab_size=9)
            for _ in range(b)]
    image_leaves = [params.patch_proj, params.patch_bias, params.global_proj_image]
    text_leaves = [params.token_table, params.global_proj_text]
    for encode, batch, studies, leaves in (
            (encode_image_patches, patches, [[p] for p in patches], image_leaves),
            (encode_text_toy, seqs, seqs, text_leaves)):
        whole = encode(batch, params)
        parts = [encode(study, params) for study in studies]
        assert whole.lengths == tuple(n for f in parts for n in f.lengths)
        for attr in ("local", "global_feat"):
            np.testing.assert_allclose(
                getattr(whole, attr).numpy(),
                np.concatenate([getattr(f, attr).numpy() for f in parts]), rtol=0, atol=1e-12)
        w_local = rng.normal(size=whole.local.shape)
        w_global = rng.normal(size=whole.global_feat.shape)
        rows = np.cumsum((0,) + whole.lengths)

        def readout(out, k=slice(None), r=slice(None)):
            return ref.add(tensor_sum(mul(out.local, ref.constant(w_local[r]))),
                           tensor_sum(mul(out.global_feat, ref.constant(w_global[k]))))

        def one_by_one():
            total = ref.constant(0.0)
            for k, study in enumerate(studies):
                total = ref.add(total, readout(encode(study, params), slice(k, k + 1),
                                               slice(rows[k], rows[k + 1])))
            return total

        got = analytic_grads(lambda: readout(encode(batch, params)), leaves)
        for g, want in zip(got, analytic_grads(one_by_one, leaves)):
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)


def _composed_image(patches, params):
    """The image encoder as the composition of reference ops it fuses."""
    pre = ref.add(ref.matmul(ref.constant(np.concatenate(patches)), params.patch_proj),
                  params.patch_bias)
    lengths = [m.shape[0] for m in patches]
    return pre, lengths, params.global_proj_image


def _composed_text(seqs, params):
    """The text encoder as the composition of reference ops it fuses."""
    lengths = [len(seq) for seq in seqs]
    pre = ref.row_gather(params.token_table, [i for seq in seqs for i in seq.ids])
    if params.use_positions:
        table = sinusoidal_positions(max(lengths), params.dim)
        pre = ref.add(pre, ref.constant(np.concatenate([table[:n] for n in lengths])))
    return pre, lengths, params.global_proj_text


def _outputs(feats):
    return feats.local, feats.global_feat


def _composed(compose, batch, params):
    pre, lengths, proj = compose(batch, params)
    glob = ref.l2_normalize_rows(ref.matmul(ref.mean_rows(pre, lengths), proj))
    return ref.l2_normalize_rows(pre), glob


def _readout_grads(encode, params, w_local, w_global):
    """Outputs and fresh parameter gradients of a weighted sum of the local
    rows, the global rows or both, as encode() gives them (a None weight
    leaves its output out)."""
    for t in params.parameters().values():
        t.grad = None
    with nm.GradTape() as tape:
        outs = encode()
        terms = [tensor_sum(mul(out, ref.constant(w)))
                 for out, w in zip(outs, (w_local, w_global)) if w is not None]
        loss = terms[0] if len(terms) == 1 else ref.add(*terms)
    nm.backward(loss, tape)
    grads = [None if t.grad is None else t.grad.tobytes() for t in params.parameters().values()]
    return [out.numpy().tobytes() for out in outs], grads


@pytest.mark.parametrize("use_positions", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_fused_encoders_match_the_composed_reference_ops_bit_for_bit(use_positions, seed):
    # random ragged batches, read out through the local rows alone, the global
    # rows alone and both, with weights of mixed magnitude and signed zeros:
    # outputs and parameter gradients are those of the reference composition,
    # and a parameter the readout does not reach gets no gradient at all
    rng = np.random.default_rng(seed)
    params = make_params(dim=6, vocab=9, seed=seed, use_positions=use_positions)
    b = int(rng.integers(1, 7))
    patches = [rng.uniform(size=(int(rng.integers(1, 6)), 4)) for _ in range(b)]
    seqs = [TokenSequence(rng.integers(0, 9, size=int(rng.integers(1, 8))), vocab_size=9)
            for _ in range(b)]
    for fused, compose, batch in ((encode_image_patches, _composed_image, patches),
                                  (encode_text_toy, _composed_text, seqs)):
        out = fused(batch, params)
        weights = []
        for shape in (out.local.shape, out.global_feat.shape):
            w = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
            w[rng.random(size=shape) < 0.2] = -0.0
            weights.append(w)
        for w_local, w_global in ((weights[0], None), (None, weights[1]), weights):
            got = _readout_grads(lambda: _outputs(fused(batch, params)), params,
                                 w_local, w_global)
            want = _readout_grads(lambda: _composed(compose, batch, params), params,
                                  w_local, w_global)
            assert got == want


def test_encoders_name_the_first_zero_row():
    # a zero row of the stacked local rows raises DegenerateRowError with its
    # index: here a zero patch under a zero bias, and a token whose embedding is zero
    flat = np.concatenate([np.ones(4 * 2), np.zeros(2), np.ones(3 * 2), np.zeros(2),
                           np.ones(2), np.eye(2).ravel(), np.eye(2).ravel()])
    params = EncoderParams(flat, dim=2, vocab_size=5, patch_pool=2)
    patches = [np.ones((2, 4)), np.array([[1.0, 0.0, 0.0, 0.0], [0.0] * 4])]
    with pytest.raises(DegenerateRowError) as err:
        encode_image_patches(patches, params)
    assert (err.value.row, err.value.norm) == (3, 0.0)
    with pytest.raises(DegenerateRowError) as err:
        encode_text_toy([TokenSequence((0, 2), 5), TokenSequence((1, 3, 2), 5)], params)
    assert (err.value.row, err.value.norm) == (3, 0.0)


def test_encoders_reject_empty_batches():
    with pytest.raises(ShapeError):
        encode_image_patches([], make_params())
    with pytest.raises(ShapeError):
        encode_image_patches([np.ones((3, 5))], make_params())
    for use_positions in (False, True):
        with pytest.raises(ShapeError):
            encode_text_toy([], make_params(use_positions=use_positions))


def test_image_encoder_rejects_non_finite_patches_and_leaves_them_writable():
    params = make_params()
    patches = [np.full((2, 4), 0.5), np.full((3, 4), 0.5)]
    patches[1][2, 3] = np.nan
    with pytest.raises(ValueError, match="tensor values must be finite"):
        encode_image_patches(patches, params)
    patches[1][2, 3] = 0.5
    encode_image_patches(patches, params)
    assert all(m.flags.writeable for m in patches)


# ---------------------------------------------------------------------------
# GLRE1 embedding files
# ---------------------------------------------------------------------------


def _features(rng, rows, dim, modality):
    local = rng.normal(size=(rows, dim))
    local /= np.linalg.norm(local, axis=1, keepdims=True)
    glob = rng.normal(size=(1, dim))
    glob /= np.linalg.norm(glob)
    return LocalGlobalFeatures(local=ref.constant(local),
                               global_feat=ref.constant(glob), modality=modality)


def _record_bytes(study_id, modality, local, glob):
    """One GLRE1 record: id length, id, modality, rows, D, f32 local, f32 global."""
    raw = study_id.encode()
    rows, dim = np.shape(local)
    return (struct.pack("<H", len(raw)) + raw + struct.pack("<BII", modality, rows, dim)
            + np.asarray(local, dtype="<f4").tobytes()
            + np.asarray(glob, dtype="<f4").tobytes())


def test_embeddings_round_trip(tmp_path):
    # records are written in insertion order, values cast to little-endian f32
    rng = np.random.default_rng(0)
    items = {
        "study-a": _features(rng, 4, 16, "image"),
        "study-b": _features(rng, 7, 16, "text"),
    }
    path = tmp_path / "emb.bin"
    save_embeddings(path, items)
    expected = b"GLRE1" + struct.pack("<I", 2)
    for (key, feats), code in zip(items.items(), (0, 1)):
        expected += _record_bytes(key, code, feats.local.numpy(), feats.global_feat.numpy())
    assert path.read_bytes() == expected


def test_embeddings_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    save_embeddings(path, {})
    assert path.read_bytes() == b"GLRE1" + struct.pack("<I", 0)


def test_embeddings_hand_built_file(tmp_path):
    # two records, D=4, one local row each; the writer does not re-normalize
    blob = b"GLRE1" + struct.pack("<I", 2)
    blob += _record_bytes("x", 0, [[1.0, 0.0, 0.0, 0.0]], [1.0, 0.0, 0.0, 0.0])
    blob += _record_bytes("y", 1, [[0.0, 2.0, 0.0, 0.0]], [0.0, 2.0, 0.0, 0.0])
    items = {
        sid: LocalGlobalFeatures(local=ref.constant(np.array([values])),
                                 global_feat=ref.constant(np.array([values])),
                                 modality=modality)
        for sid, modality, values in (("x", "image", [1.0, 0.0, 0.0, 0.0]),
                                      ("y", "text", [0.0, 2.0, 0.0, 0.0]))
    }
    path = tmp_path / "hand.bin"
    save_embeddings(path, items)
    assert path.read_bytes() == blob


def test_embeddings_reject_global_not_one_row(tmp_path):
    local = ref.constant(np.ones((2, 4)))
    for glob in (np.ones(4), np.ones((2, 4)), np.ones((1, 3))):
        feats = LocalGlobalFeatures(local=local, global_feat=ref.constant(glob), modality="image")
        with pytest.raises(ShapeError):
            save_embeddings(tmp_path / "bad.bin", {"s": feats})


# ---------------------------------------------------------------------------
# PGM files
# ---------------------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    px = np.round(rng.uniform(size=(10, 14)) * 255) / 255
    path = tmp_path / "img.pgm"
    write_pgm(path, px)
    back = read_pgm(path)
    np.testing.assert_allclose(back, px, atol=1e-12)


def test_pgm_handles_comments(tmp_path):
    path = tmp_path / "c.pgm"
    raster = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + raster)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert img[1, 2] == pytest.approx(5 / 255)


def test_pgm_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n3 2\n255\n")
    with pytest.raises(FormatError):
        read_pgm(path)


def test_pgm_truncated_raster(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(FormatError) as exc:
        read_pgm(path)
    assert "truncated" in str(exc.value)


def test_pgm_rejects_wide_maxval(tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_pgm(path)


def test_pgm_write_rejects_out_of_range(tmp_path):
    for bad in (1.2, np.nan):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "never.pgm", np.full((2, 2), bad))
    assert list(tmp_path.iterdir()) == []


def test_pgm_write_is_deterministic(tmp_path):
    px = np.linspace(0, 1, 12).reshape(3, 4)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a, px)
    write_pgm(b, px)
    assert a.read_bytes() == b.read_bytes()



# read_pgm cases: a valid header, or one with exactly one part broken
_PGM_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_PGM_COMMENT = st.sampled_from([b"# note\n", b"#3 4 255\n", b"#\n"])
_PGM_MORE = st.lists(st.one_of(_PGM_SPACE, _PGM_COMMENT), max_size=2).map(b"".join)
_PGM_JUNK = st.sampled_from([b"-3", b"+4", b"3x", b"1e2", b"9" * 12, b"\xff", b"x", b"1_0"])


def _pgm_sep(first):
    return st.tuples(first, _PGM_MORE).map(b"".join)


def _pgm_decimal(value):
    return st.integers(0, 12).map(lambda zeros: b"0" * zeros + str(value).encode())


@st.composite
def _pgm_case(draw):
    """Header and raster bytes, and the (height, width) read_pgm must return or None."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    parts = [b"P5", draw(_pgm_sep(_PGM_SPACE)), draw(_pgm_decimal(width)),
             draw(_pgm_sep(_PGM_SPACE)), draw(_pgm_decimal(height)),
             draw(_pgm_sep(_PGM_SPACE)), draw(_pgm_decimal(255)), draw(_PGM_SPACE)]
    need = width * height
    parts.append(draw(st.binary(min_size=need, max_size=need + 2)))  # the raster
    broken = draw(st.sampled_from([None, None, None, *range(len(parts))]))
    if broken is not None:
        bad = {0: st.sampled_from([b"P2", b"P6", b"5", b"p5", b" P5"]),
               1: _pgm_sep(_PGM_COMMENT), 3: _pgm_sep(_PGM_COMMENT), 5: _pgm_sep(_PGM_COMMENT),
               2: st.one_of(_PGM_JUNK, _pgm_decimal(0)), 4: st.one_of(_PGM_JUNK, _pgm_decimal(0)),
               6: st.one_of(_PGM_JUNK, _pgm_decimal(1), _pgm_decimal(65535)),
               7: st.sampled_from([b"#", b"x"]), 8: st.binary(max_size=need - 1)}
        parts[broken] = draw(bad[broken])
    return b"".join(parts[:-1]), parts[-1], (height, width) if broken is None else None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_pgm_case())
def test_pgm_mutated_headers_raise_format_error_or_read_exactly(tmp_path, case):
    header, raster, shape = case
    path = tmp_path / "h.pgm"
    path.write_bytes(header + raster)
    try:
        pixels = read_pgm(path)
    except FormatError:
        assert shape is None
        return
    assert shape is not None and pixels.shape == shape
    expected = np.frombuffer(raster, dtype=np.uint8, count=shape[0] * shape[1]) / 255.0
    assert np.array_equal(pixels, expected.reshape(shape))
    assert 0.0 <= pixels.min() and pixels.max() <= 1.0
