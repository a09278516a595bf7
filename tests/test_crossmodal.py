"""Pairwise scores, attention, alignment, and contrastive-loss tests.

The attention and alignment properties are checked on the per-pair oracle
(pair_oracle.py); the batched kernel is checked against that oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glre import crossmodal
from glre import numerics as nm
from glre.crossmodal import (
    LossConfig,
    contrastive_loss,
    pairwise_scores,
    total_loss,
)
from glre.encoders import EncoderParams, LocalGlobalFeatures, TokenSequence, encode_text_toy
from glre.errors import ParameterError, ShapeError

import reference_ops as ref
from gradcheck import analytic_grads, max_rel_error
from pair_oracle import (
    attention_contexts,
    global_similarity,
    local_alignment_score,
    local_score,
    pairwise_oracle,
    similarity_matrix,
)


def unit_rows(rng, rows, dim):
    m = rng.normal(size=(rows, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def make_features(rng, t, r, dim, requires_grad=False):
    """One random (image, text) feature pair with unit-norm rows."""
    img_local = nm.Tensor(unit_rows(rng, r, dim), requires_grad=requires_grad)
    img_global = nm.Tensor(unit_rows(rng, 1, dim), requires_grad=requires_grad)
    txt_local = nm.Tensor(unit_rows(rng, t, dim), requires_grad=requires_grad)
    txt_global = nm.Tensor(unit_rows(rng, 1, dim), requires_grad=requires_grad)
    img = LocalGlobalFeatures(local=img_local, global_feat=img_global, modality="image")
    txt = LocalGlobalFeatures(local=txt_local, global_feat=txt_global, modality="text")
    return img, txt


# ---------------------------------------------------------------------------
# similarity matrix
# ---------------------------------------------------------------------------


def test_similarity_orthonormal_identity():
    eye = ref.constant(np.eye(4))
    sim = similarity_matrix(eye, eye)
    np.testing.assert_allclose(sim.numpy(), np.eye(4), atol=1e-15)


def test_similarity_entries_bounded():
    rng = np.random.default_rng(0)
    sim = similarity_matrix(ref.constant(unit_rows(rng, 6, 5)),
                            ref.constant(unit_rows(rng, 7, 5)))
    assert np.abs(sim.numpy()).max() <= 1.0 + 1e-12


def test_similarity_matches_dot_loop():
    rng = np.random.default_rng(1)
    w = unit_rows(rng, 5, 8)
    r = unit_rows(rng, 4, 8)
    sim = similarity_matrix(ref.constant(w), ref.constant(r)).numpy()
    for t in range(5):
        for k in range(4):
            assert abs(sim[t, k] - float(np.dot(w[t], r[k]))) < 1e-12


def test_similarity_dim_mismatch():
    with pytest.raises(ShapeError):
        similarity_matrix(ref.constant(np.eye(3)), ref.constant(np.eye(4)))


def test_similarity_rejects_unnormalized_rows():
    big = ref.constant(2.0 * np.eye(3))
    with pytest.raises(ValueError):
        similarity_matrix(big, big)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def test_attention_single_region():
    rng = np.random.default_rng(2)
    region = ref.constant(unit_rows(rng, 1, 6))
    words = ref.constant(unit_rows(rng, 4, 6))
    for lam in (0.5, 4.0, 80.0):
        att = attention_contexts(similarity_matrix(words, region), region, lam)
        np.testing.assert_allclose(att.contexts.numpy(),
                                   np.repeat(region.numpy(), 4, axis=0), atol=1e-12)


def test_attention_uniform_limit():
    rng = np.random.default_rng(3)
    regions = ref.constant(unit_rows(rng, 5, 8))
    words = ref.constant(unit_rows(rng, 3, 8))
    att = attention_contexts(similarity_matrix(words, regions), regions, 1e-6)
    mean = regions.numpy().mean(axis=0)
    assert np.abs(att.contexts.numpy() - mean).max() < 1e-4


def test_attention_sharp_limit_picks_argmax_region():
    # similarities with a gap >= 0.2 between best and rest
    sims = ref.constant(np.array([[0.9, 0.6, 0.1], [0.1, 0.2, 0.8]]))
    rng = np.random.default_rng(4)
    regions = ref.constant(unit_rows(rng, 3, 6))
    att = attention_contexts(sims, regions, 50.0)
    ctx = att.contexts.numpy()
    assert np.abs(ctx[0] - regions.numpy()[0]).max() < 1e-3
    assert np.abs(ctx[1] - regions.numpy()[2]).max() < 1e-3


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        regions = ref.constant(unit_rows(rng, 4, 8))
        words = ref.constant(unit_rows(rng, 5, 8))
        lam = float(rng.uniform(0.1, 20))
        att = attention_contexts(similarity_matrix(words, regions), regions, lam)
        np.testing.assert_allclose(att.weights.numpy().sum(axis=1), 1.0, atol=1e-9)


def test_attention_rejects_nonpositive_sharpening():
    rng = np.random.default_rng(6)
    regions = ref.constant(unit_rows(rng, 3, 4))
    words = ref.constant(unit_rows(rng, 2, 4))
    sim = similarity_matrix(words, regions)
    for lam in (0.0, -1.0):
        with pytest.raises(ParameterError):
            attention_contexts(sim, regions, lam)


def test_attention_context_is_exact_convex_combination():
    rng = np.random.default_rng(7)
    regions = ref.constant(unit_rows(rng, 4, 6))
    words = ref.constant(unit_rows(rng, 3, 6))
    att = attention_contexts(similarity_matrix(words, regions), regions, 4.0)
    np.testing.assert_array_equal(att.contexts.numpy(),
                                  att.weights.numpy() @ regions.numpy())


# ---------------------------------------------------------------------------
# local alignment
# ---------------------------------------------------------------------------


def _attention(rng, t, r, dim, lam=4.0):
    regions = ref.constant(unit_rows(rng, r, dim))
    words = ref.constant(unit_rows(rng, t, dim))
    return attention_contexts(similarity_matrix(words, regions), regions, lam), words


def test_alignment_single_word_equals_cosine():
    rng = np.random.default_rng(8)
    att, words = _attention(rng, 1, 3, 6)
    z = local_alignment_score(att, words, 5.0)
    ctx = att.contexts.numpy()[0]
    expected = float(np.dot(ctx, words.numpy()[0]) /
                     (np.linalg.norm(ctx) * np.linalg.norm(words.numpy()[0])))
    assert z.item() == pytest.approx(expected, abs=1e-12)


def test_alignment_equal_cosines_closed_form():
    # words identical, so every per-word cosine equals the same value c
    rng = np.random.default_rng(9)
    regions = ref.constant(unit_rows(rng, 4, 6))
    word = unit_rows(rng, 1, 6)
    words = ref.constant(np.repeat(word, 5, axis=0))
    att = attention_contexts(similarity_matrix(words, regions), regions, 3.0)
    z = local_alignment_score(att, words, 5.0)
    ctx = att.contexts.numpy()[0]
    c = float(np.dot(ctx, word[0]) / (np.linalg.norm(ctx)))
    assert z.item() == pytest.approx(c + math.log(5) / 5.0, abs=1e-10)


def test_alignment_matches_direct_formula():
    rng = np.random.default_rng(10)
    att, words = _attention(rng, 6, 4, 8)
    lam2 = 5.0
    z = local_alignment_score(att, words, lam2)
    ctx = att.contexts.numpy()
    w = words.numpy()
    cos = (ctx * w).sum(axis=1) / (np.linalg.norm(ctx, axis=1) * np.linalg.norm(w, axis=1))
    expected = math.log(np.exp(lam2 * cos).sum()) / lam2
    assert z.item() == pytest.approx(expected, abs=1e-12)


def test_alignment_bounds():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = int(rng.integers(1, 8))
        att, words = _attention(rng, t, 5, 8)
        lam2 = float(rng.uniform(1, 10))
        z = local_alignment_score(att, words, lam2).item()
        ctx = att.contexts.numpy()
        w = words.numpy()
        cos = (ctx * w).sum(axis=1) / (np.linalg.norm(ctx, axis=1) *
                                       np.linalg.norm(w, axis=1))
        assert cos.max() - 1e-12 <= z <= cos.max() + math.log(t) / lam2 + 1e-12


def test_alignment_rejects_nonpositive_sharpening():
    rng = np.random.default_rng(12)
    att, words = _attention(rng, 2, 3, 4)
    with pytest.raises(ParameterError):
        local_alignment_score(att, words, 0.0)


# ---------------------------------------------------------------------------
# global similarity
# ---------------------------------------------------------------------------


def test_global_similarity_anchor_values():
    a = ref.constant([[1.0, 0.0, 0.0]])
    b = ref.constant([[0.0, 1.0, 0.0]])
    assert global_similarity(a, a).item() == 1.0
    assert global_similarity(a, b).item() == 0.0
    assert global_similarity(a, ref.constant([[-1.0, 0.0, 0.0]])).item() == -1.0


def test_global_similarity_dim_mismatch():
    with pytest.raises(ShapeError):
        global_similarity(ref.constant([[1.0, 0.0]]), ref.constant([[1.0, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------


def infonce(m, tau=0.1):
    """The fused loss with m as both score matrices, so its four terms are
    the two directions of m, each twice."""
    return contrastive_loss(ref.constant(m), ref.constant(m),
                            LossConfig(tau_global=tau, tau_local=tau))


def test_all_equal_matrix_gives_log_b():
    for b in (2, 4, 16):
        terms = infonce(np.full((b, b), 0.37)).as_dict()
        for name, value in terms.items():
            want = 4 * math.log(b) if name == "total" else math.log(b)
            assert abs(value - want) < 1e-10, (b, name)


def test_single_pair_loss_is_zero():
    assert set(infonce([[0.8]]).as_dict().values()) == {0.0}


def test_identity_matrix_closed_form():
    out = infonce(np.eye(4))
    expected = -math.log(math.exp(10.0) / (math.exp(10.0) + 3.0))
    assert out.global_i2t == pytest.approx(expected, abs=1e-12)
    assert out.global_t2i == pytest.approx(expected, abs=1e-12)


def test_loss_shift_invariance():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(5, 5))
    a = infonce(m, 0.2).as_dict()
    b = infonce(m + 3.7, 0.2).as_dict()
    for name in a:
        assert a[name] == pytest.approx(b[name], abs=1e-12)


def test_loss_nonnegative():
    rng = np.random.default_rng(14)
    for _ in range(50):
        b = int(rng.integers(1, 7))
        assert min(infonce(rng.normal(size=(b, b)), 0.5).as_dict().values()) >= 0.0


def test_loss_overflow_safety():
    out = infonce(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    assert all(np.isfinite(v) for v in out.as_dict().values())


def test_loss_parameter_and_shape_errors():
    with pytest.raises(ParameterError):
        LossConfig(tau_local=0.0)
    with pytest.raises(ShapeError):
        infonce(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        contrastive_loss(ref.constant(np.eye(2)), ref.constant(np.eye(3)), LossConfig())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_loss_equals_scalar_oracle(b, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(b, b))
    tau = float(rng.uniform(0.05, 2.0))
    out = infonce(m, tau)

    def oracle(rows):
        return float(np.mean([np.log(np.exp(r - r.max()).sum()) + r.max() - r[i]
                              for i, r in enumerate(rows)]))

    assert out.global_i2t == pytest.approx(oracle(m / tau), abs=1e-10)
    assert out.global_t2i == pytest.approx(oracle(m.T / tau), abs=1e-10)


def reference_infonce(s, tau, direction):
    """One InfoNCE term composed from small taped ops: the mean over rows of
    log-sum-exp minus the diagonal, with t2i over the transpose."""
    p = ref.transpose(s) if direction == "t2i" else s
    b = p.shape[0]
    scaled = ref.scale(p, 1.0 / tau)
    lse = ref.tensor_sum(ref.logsumexp_rows(scaled))
    diag = ref.tensor_sum(ref.mul(scaled, ref.constant(np.eye(b))))
    return ref.scale(ref.add(lse, ref.scale(diag, -1.0)), 1.0 / b)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.floats(0.02, 2.0), st.floats(0.02, 2.0),
       st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5]), min_size=4, max_size=4),
       st.integers(0, 2 ** 31 - 1))
def test_fused_loss_matches_reference_composition(b, tau_g, tau_l, weights, seed):
    rng = np.random.default_rng(seed)
    g = nm.Tensor(rng.uniform(-1.0, 1.0, size=(b, b)), requires_grad=True)
    l = nm.Tensor(rng.uniform(-1.0, 1.0, size=(b, b)), requires_grad=True)
    cfg = LossConfig(tau_global=tau_g, tau_local=tau_l, weight_global_i2t=weights[0],
                     weight_global_t2i=weights[1], weight_local_i2t=weights[2],
                     weight_local_t2i=weights[3])
    slots = list(zip((g, g, l, l), (tau_g, tau_g, tau_l, tau_l), ("i2t", "t2i") * 2))
    fused = contrastive_loss(g, l, cfg)
    got = [fused.global_i2t, fused.global_t2i, fused.local_i2t, fused.local_t2i]
    want = [reference_infonce(*slot).item() for slot in slots]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def reference():
        total = ref.constant(0.0)
        for slot, w in zip(slots, weights):
            total = ref.add(total, ref.scale(reference_infonce(*slot), w))
        return total

    assert fused.total.item() == pytest.approx(reference().item(), abs=1e-12)
    fused_grads = analytic_grads(lambda: contrastive_loss(g, l, cfg).total, [g, l])
    for got, want in zip(fused_grads, analytic_grads(reference, [g, l])):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------


def test_total_loss_single_pair_is_zero():
    rng = np.random.default_rng(15)
    img, txt = make_features(rng, 4, 3, 8)
    out = total_loss([img], [txt])
    assert out.total.item() == 0.0


def test_total_equals_sum_of_components():
    rng = np.random.default_rng(16)
    pairs = [make_features(rng, 5, 4, 8) for _ in range(3)]
    out = total_loss([p[0] for p in pairs], [p[1] for p in pairs])
    parts = out.global_i2t + out.global_t2i + out.local_i2t + out.local_t2i
    assert out.total.item() == pytest.approx(parts, abs=1e-12)
    assert min(out.as_dict().values()) >= 0.0


def test_component_weights_scale_total():
    rng = np.random.default_rng(17)
    pairs = [make_features(rng, 3, 3, 8) for _ in range(3)]
    imgs, txts = [p[0] for p in pairs], [p[1] for p in pairs]
    base = total_loss(imgs, txts)
    half = total_loss(imgs, txts, LossConfig(weight_local_i2t=0.0,
                                             weight_local_t2i=0.0))
    expected = base.global_i2t + base.global_t2i
    assert half.total.item() == pytest.approx(expected, abs=1e-12)


def _orthogonal_batch(dim=16, b=3, rows=2):
    """Image i and text i share features; different pairs are orthogonal."""
    imgs, txts = [], []
    for i in range(b):
        local = np.zeros((rows, dim))
        for t in range(rows):
            local[t, i * (rows + 1) + t] = 1.0
        glob = np.zeros((1, dim))
        glob[0, i * (rows + 1) + rows] = 1.0
        img = LocalGlobalFeatures(local=ref.constant(local),
                                  global_feat=ref.constant(glob), modality="image")
        txt = LocalGlobalFeatures(local=ref.constant(local.copy()),
                                  global_feat=ref.constant(glob.copy()), modality="text")
        imgs.append(img)
        txts.append(txt)
    return imgs, txts


def test_matched_batch_beats_shuffled():
    imgs, txts = _orthogonal_batch()
    matched = total_loss(imgs, txts).total.item()
    shuffled = total_loss(imgs, txts[1:] + txts[:1]).total.item()
    assert matched < shuffled


def test_batch_size_mismatch():
    rng = np.random.default_rng(18)
    img, txt = make_features(rng, 3, 3, 8)
    with pytest.raises(ShapeError):
        total_loss([img, img], [txt])
    with pytest.raises(ShapeError):
        total_loss([], [])


def test_pairwise_scores_shapes_and_diagonal_meaning():
    rng = np.random.default_rng(19)
    pairs = [make_features(rng, 4, 3, 8) for _ in range(3)]
    imgs, txts = [p[0] for p in pairs], [p[1] for p in pairs]
    cfg = LossConfig()
    g, l = pairwise_scores(imgs, txts, cfg)
    assert g.shape == (3, 3) and l.shape == (3, 3)
    expected = global_similarity(imgs[1].global_feat, txts[2].global_feat).item()
    assert g.numpy()[1, 2] == pytest.approx(expected, abs=1e-15)


def _ragged_batch(rng, lengths, n_images, r, dim, requires_grad=False):
    """Images with r regions each and texts with the given word counts."""
    def feats(rows, modality):
        return LocalGlobalFeatures(
            local=nm.Tensor(unit_rows(rng, rows, dim), requires_grad=requires_grad),
            global_feat=nm.Tensor(unit_rows(rng, 1, dim), requires_grad=requires_grad),
            modality=modality)
    return ([feats(r, "image") for _ in range(n_images)],
            [feats(t, "text") for t in lengths])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=5), st.integers(1, 4),
       st.integers(1, 6), st.integers(2, 8),
       st.floats(0.1, 20.0), st.floats(0.1, 20.0), st.integers(0, 2 ** 31 - 1))
def test_pairwise_scores_match_pair_oracle(lengths, n_images, r, dim, lam1, lam2, seed):
    rng = np.random.default_rng(seed)
    imgs, txts = _ragged_batch(rng, [1] + lengths, n_images, r, dim)
    g, l = pairwise_scores(imgs, txts, LossConfig(lambda1=lam1, lambda2=lam2))
    g_want, l_want = pairwise_oracle(imgs, txts, lam1, lam2)
    assert g.shape == l.shape == (n_images, len(lengths) + 1)
    np.testing.assert_allclose(g.numpy(), g_want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(l.numpy(), l_want, rtol=0, atol=1e-12)


def _kernel_and_oracle_grads(imgs, txts, cfg, rng):
    """Gradients of a random weighting of both score matrices, every leaf:
    (kernel, oracle)."""
    wg, wl = rng.normal(size=(2, len(imgs), len(txts)))
    leaves = [t for f in imgs + txts for t in (f.local, f.global_feat)]

    def kernel():
        g, l = pairwise_scores(imgs, txts, cfg)
        return ref.add(ref.tensor_sum(ref.mul(g, ref.constant(wg))),
                       ref.tensor_sum(ref.mul(l, ref.constant(wl))))

    def oracle():
        total = ref.constant(0.0)
        for i, img in enumerate(imgs):
            for j, txt in enumerate(txts):
                total = ref.add(total, ref.scale(
                    global_similarity(img.global_feat, txt.global_feat), wg[i, j]))
                total = ref.add(total, ref.scale(
                    local_score(img, txt, cfg.lambda1, cfg.lambda2), wl[i, j]))
        return total

    return analytic_grads(kernel, leaves), analytic_grads(oracle, leaves)


def test_pairwise_gradients_match_pair_oracle():
    rng = np.random.default_rng(21)
    imgs, txts = _ragged_batch(rng, [1, 4, 2, 6], 3, 5, 8, requires_grad=True)
    cfg = LossConfig(lambda1=3.0, lambda2=6.0)
    for got, want in zip(*_kernel_and_oracle_grads(imgs, txts, cfg, rng)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _count_blocks(monkeypatch):
    """Patch crossmodal.align to record the image count of each call; returns
    the list it appends to."""
    calls = []
    real = crossmodal.align

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(crossmodal, "align", counting)
    return calls


def test_pairwise_scores_over_several_blocks_match_pair_oracle(monkeypatch):
    # a forward-only block holds at most _BLOCK_ELEMENTS // (R * N) images,
    # N the words of all texts. 40 images with 16 regions against 12 texts of 20
    # words at D=16 exceed it, so the untaped local kernel scores them in three
    # blocks; the training shape, B=16 with 9 regions at D=64 against ragged
    # texts of 11-19 words, fits in exactly one. A taped call is always one
    # block: its adjoint needs the state of every image
    rng = np.random.default_rng(26)
    cfg = LossConfig(lambda1=3.0, lambda2=6.0)
    ragged = [11, 19, 14, 12, 17, 15, 13, 18, 16, 11, 19, 12, 15, 17, 14, 13]
    calls = _count_blocks(monkeypatch)
    for n_images, lengths, r, dim, blocks in ((40, [20] * 12, 16, 16, 3),
                                              (16, ragged, 9, 64, 1)):
        per_block = max(1, crossmodal._BLOCK_ELEMENTS // (r * sum(lengths)))
        assert math.ceil(n_images / per_block) == blocks
        imgs, txts = _ragged_batch(rng, lengths, n_images, r, dim, requires_grad=True)
        calls.clear()
        g, l = pairwise_scores(imgs, txts, cfg)
        assert len(calls) == blocks and sum(calls) == n_images
        g_want, l_want = pairwise_oracle(imgs, txts, cfg.lambda1, cfg.lambda2)
        np.testing.assert_allclose(g.numpy(), g_want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(l.numpy(), l_want, rtol=0, atol=1e-12)
        calls.clear()
        for got, want in zip(*_kernel_and_oracle_grads(imgs, txts, cfg, rng)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert calls == [n_images]


def test_local_kernel_holds_one_column_per_word(monkeypatch):
    # texts of 1, 7 and 2 words: the kernel's (I, R, N) state has N = 10
    # columns, one per word, and its adjoint hands back one row per word
    rng = np.random.default_rng(31)
    imgs, txts = _ragged_batch(rng, [1, 7, 2], 2, 3, 8, requires_grad=True)
    kept, word_grads = [], []
    real_align, real_adjoint = crossmodal.align, crossmodal._align_adjoint

    def recording_align(*args, **kwargs):
        al = real_align(*args, **kwargs)
        kept.append([al.sims.shape, al.weights.shape, al.region_dots.shape])
        return al

    def recording_adjoint(*args, **kwargs):
        g_regions, g_words = real_adjoint(*args, **kwargs)
        word_grads.append(g_words.shape)
        return g_regions, g_words

    monkeypatch.setattr(crossmodal, "align", recording_align)
    monkeypatch.setattr(crossmodal, "_align_adjoint", recording_adjoint)
    leaves = [f.local for f in txts]
    grads = analytic_grads(
        lambda: ref.tensor_sum(pairwise_scores(imgs, txts, LossConfig())[1]), leaves)
    assert kept == [[(2, 3, 10)] * 3]
    assert word_grads == [(10, 8)]
    assert [gr.shape for gr in grads] == [(1, 8), (7, 8), (2, 8)]


def test_pairwise_mixed_region_counts_raise_shape_error():
    # the local kernel views all image regions as one (B, R, D) array
    rng = np.random.default_rng(27)
    imgs = []
    for r in (4, 4, 2):
        imgs.extend(_ragged_batch(rng, [], 1, r, 8)[0])
    _, txts = _ragged_batch(rng, [3, 1], 0, 1, 8)
    with pytest.raises(ShapeError, match="region count"):
        pairwise_scores(imgs, txts, LossConfig())
    with pytest.raises(ShapeError, match="region count"):
        pairwise_scores(_merge(imgs[1:]), txts, LossConfig())


def _merge(feats):
    """One batch holding the rows of single-study features, as fresh leaves."""
    def leaf(attr):
        return nm.Tensor(np.concatenate([getattr(f, attr).numpy() for f in feats]),
                         requires_grad=True)
    return LocalGlobalFeatures(leaf("local"), leaf("global_feat"), feats[0].modality,
                               tuple(n for f in feats for n in f.lengths))


def test_pairwise_batches_mixed_with_single_studies_match_pair_oracle():
    # each side mixes multi-study batches with batches of one; scores and
    # gradients must be those of the same studies passed one by one
    rng = np.random.default_rng(30)
    imgs, txts = _ragged_batch(rng, [3, 1, 5, 2, 4, 1], 5, 4, 8, requires_grad=True)
    img_side = [_merge(imgs[:3]), imgs[3], _merge(imgs[4:])]
    txt_side = [txts[0], _merge(txts[1:4]), _merge(txts[4:])]
    cfg = LossConfig(lambda1=3.0, lambda2=6.0)
    g, l = pairwise_scores(img_side, txt_side, cfg)
    g_want, l_want = pairwise_oracle(imgs, txts, cfg.lambda1, cfg.lambda2)
    np.testing.assert_allclose(g.numpy(), g_want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(l.numpy(), l_want, rtol=0, atol=1e-12)

    wg, wl = rng.normal(size=(2, len(imgs), len(txts)))

    def weighted(i_side, t_side):
        g, l = pairwise_scores(i_side, t_side, cfg)
        return ref.add(ref.tensor_sum(ref.mul(g, ref.constant(wg))),
                       ref.tensor_sum(ref.mul(l, ref.constant(wl))))

    def stacked(i_side, t_side):
        leaves = [getattr(f, attr) for attr in ("local", "global_feat")
                  for f in i_side + t_side]
        grads = analytic_grads(lambda: weighted(i_side, t_side), leaves)
        return np.concatenate([gr.reshape(-1) for gr in grads])

    np.testing.assert_allclose(stacked(img_side, txt_side), stacked(imgs, txts),
                               rtol=0, atol=1e-12)
    # a whole batch per side is the same as the list of its parts
    g1, l1 = pairwise_scores(_merge(imgs), _merge(txts), cfg)
    np.testing.assert_array_equal(g1.numpy(), g.numpy())
    np.testing.assert_array_equal(l1.numpy(), l.numpy())


def _near_cancelling_image(rng, u, scale, e):
    """Two unit-scale regions u and -u + 2 scale e: a word orthogonal to both
    attends to them about equally, so its context is about scale e."""
    return LocalGlobalFeatures(
        local=nm.Tensor(np.stack([u, -u + 2 * scale * e]), requires_grad=True),
        global_feat=nm.Tensor(unit_rows(rng, 1, len(u)), requires_grad=True),
        modality="image")


def _words_orthogonal_to(rng, u, n):
    """A text of n unit-norm words orthogonal to the unit vector u."""
    dim = len(u)
    w = rng.normal(size=(n, dim))
    w -= np.outer(w @ u, u)
    return LocalGlobalFeatures(
        local=nm.Tensor(w / np.linalg.norm(w, axis=1, keepdims=True), requires_grad=True),
        global_feat=nm.Tensor(unit_rows(rng, 1, dim), requires_grad=True),
        modality="text")


def _fallback_columns(imgs, txts, lambda1):
    """(images, real words) mask of the columns whose context norm the kernel
    takes from the explicit contexts: |c|^2 < kappa (sum_r a_r |v_r|)^2, with
    |c| computed here from the contexts themselves."""
    regions = np.stack([f.local.numpy() for f in imgs])
    words = np.concatenate([f.local.numpy() for f in txts])
    a = np.exp(lambda1 * np.einsum("ird,nd->irn", regions, words))
    a /= a.sum(axis=1, keepdims=True)
    contexts = np.einsum("irn,ird->ind", a, regions)
    scale = np.einsum("ir,irn->in", np.linalg.norm(regions, axis=2), a)
    return (contexts ** 2).sum(axis=2) < crossmodal._GRAM_KAPPA * scale ** 2


def test_pairwise_near_cancelling_contexts_match_pair_oracle():
    # regions u and -u + delta, against words orthogonal to u, get nearly
    # equal attention, so each context is about delta / 2: |c| runs from 1e-1
    # down to 1e-4. The Gram form a^T (V V^T) a of |c|^2 cancels here and
    # would miss both bounds, so every column but those at |c| = 1e-1 takes
    # the kernel's fallback to the explicit contexts.
    rng = np.random.default_rng(25)
    dim = 8
    u = unit_rows(rng, 1, dim)[0]
    imgs = [_near_cancelling_image(rng, u, scale, unit_rows(rng, 1, dim)[0])
            for scale in (1e-1, 1e-2, 1e-3, 1e-4)]
    txts = [_words_orthogonal_to(rng, u, n) for n in (1, 3, 5)]
    cfg = LossConfig(lambda1=4.0, lambda2=5.0)
    att = attention_contexts(similarity_matrix(txts[-1].local, imgs[-1].local),
                             imgs[-1].local, cfg.lambda1)
    assert np.linalg.norm(att.contexts.numpy(), axis=1).max() < 3e-4
    fallback = _fallback_columns(imgs, txts, cfg.lambda1)
    assert fallback[1:].all() and not fallback[0].any()

    _, l = pairwise_scores(imgs, txts, cfg)
    _, l_want = pairwise_oracle(imgs, txts, cfg.lambda1, cfg.lambda2)
    np.testing.assert_allclose(l.numpy(), l_want, rtol=0, atol=1e-12)
    # gradients grow like 1/|c|, so each is compared against its own scale
    for got, want in zip(*_kernel_and_oracle_grads(imgs, txts, cfg, rng)):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_pairwise_block_mixing_gram_and_fallback_columns_matches_pair_oracle(monkeypatch):
    # one block of images: two with near-cancelling regions, whose contexts
    # take the explicit fallback, and three random ones, whose context norms
    # come from the region Gram. Under the mild sharpening lambda1 = 1, |c|
    # runs from scale to about 1.4 scale across words, so |c|^2 stays within
    # 2.2e-4 to 8e-4 of the region scale: just under the cut. A smaller |c|
    # makes the gradients themselves ill-conditioned (they grow like 1/|c|),
    # and the oracle no longer resolves them to 1e-12
    rng = np.random.default_rng(28)
    dim = 8
    u = unit_rows(rng, 1, dim)[0]
    imgs = [_near_cancelling_image(rng, u, scale, unit_rows(rng, 1, dim)[0])
            for scale in (1.5e-2, 2e-2)]
    imgs += _ragged_batch(rng, [], 3, 2, dim, requires_grad=True)[0]
    txts = [_words_orthogonal_to(rng, u, n) for n in (2, 4, 1)]
    cfg = LossConfig(lambda1=1.0, lambda2=5.0)
    fallback = _fallback_columns(imgs, txts, cfg.lambda1)
    assert fallback[:2].all() and not fallback[2:].any()

    calls = _count_blocks(monkeypatch)
    g, l = pairwise_scores(imgs, txts, cfg)
    assert calls == [len(imgs)]
    g_want, l_want = pairwise_oracle(imgs, txts, cfg.lambda1, cfg.lambda2)
    np.testing.assert_allclose(g.numpy(), g_want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(l.numpy(), l_want, rtol=0, atol=1e-12)
    for got, want in zip(*_kernel_and_oracle_grads(imgs, txts, cfg, rng)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_pairwise_scores_bit_identical_with_and_without_tape():
    # a taped call keeps the forward state for the adjoint; the scores it
    # returns must be exactly those of a forward-only call
    rng = np.random.default_rng(28)
    imgs, txts = _ragged_batch(rng, [20, 3, 11, 1] * 3, 40, 9, 16, requires_grad=True)
    cfg = LossConfig()
    plain = pairwise_scores(imgs, txts, cfg)
    with nm.GradTape() as tape:
        taped = pairwise_scores(imgs, txts, cfg)
    assert len(tape) == 2
    for a, b in zip(plain, taped):
        np.testing.assert_array_equal(a.numpy(), b.numpy())


def test_pairwise_scores_record_two_tape_ops():
    rng = np.random.default_rng(22)
    for n_images, lengths in ((1, [3]), (4, [2, 5, 1]), (16, [7] * 16)):
        imgs, txts = _ragged_batch(rng, lengths, n_images, 4, 8, requires_grad=True)
        with nm.GradTape() as tape:
            pairwise_scores(imgs, txts, LossConfig())
        assert len(tape) == 2


def test_total_loss_records_three_tape_ops_at_b16():
    # the two score matrices and one fused loss op, whatever the batch size
    rng = np.random.default_rng(29)
    imgs, txts = _ragged_batch(rng, [7] * 16, 16, 4, 8, requires_grad=True)
    with nm.GradTape() as tape:
        total_loss(imgs, txts)
    assert len(tape) == 3


def test_pairwise_near_zero_context_has_zero_cosine_and_gradient():
    # regions of norm 1e-14 give contexts below the 1e-12 floor, so every
    # per-word cosine is 0 and the score is the log-sum-exp of zeros
    rng = np.random.default_rng(23)
    imgs, txts = _ragged_batch(rng, [3], 1, 4, 6, requires_grad=True)
    tiny = nm.Tensor(1e-14 * imgs[0].local.numpy(), requires_grad=True)
    imgs[0] = LocalGlobalFeatures(local=tiny, global_feat=imgs[0].global_feat,
                                  modality="image")
    cfg = LossConfig(lambda2=5.0)
    words = txts[0].local
    with nm.GradTape() as tape:
        _, l = pairwise_scores(imgs, txts, cfg)
        loss = ref.tensor_sum(l)
    nm.backward(loss, tape)
    assert l.numpy()[0, 0] == pytest.approx(math.log(3) / 5.0, abs=1e-15)
    np.testing.assert_array_equal(words.grad, np.zeros(words.shape))
    np.testing.assert_array_equal(tiny.grad, np.zeros(tiny.shape))


def test_pairwise_scores_rejects_bad_shapes():
    rng = np.random.default_rng(24)
    imgs, txts = _ragged_batch(rng, [2, 3], 2, 3, 8)
    _, other = _ragged_batch(rng, [2], 1, 3, 6)
    cfg = LossConfig()
    with pytest.raises(ShapeError):
        pairwise_scores(imgs, other, cfg)
    with pytest.raises(ShapeError):
        pairwise_scores([], txts, cfg)
    with pytest.raises(ShapeError):
        pairwise_scores(imgs, [], cfg)
    flat = LocalGlobalFeatures(local=ref.constant(np.zeros((0, 8))),
                               global_feat=txts[0].global_feat, modality="text")
    with pytest.raises(ShapeError):
        pairwise_scores(imgs, [flat], cfg)
    vector = LocalGlobalFeatures(local=txts[0].local, global_feat=ref.constant(np.ones(8)),
                                 modality="text")
    with pytest.raises(ShapeError):
        pairwise_scores(imgs, [vector], cfg)
    miscounted = LocalGlobalFeatures(txts[1].local, txts[1].global_feat, "text", (2,))
    with pytest.raises(ShapeError):
        pairwise_scores(imgs, miscounted, cfg)


def test_total_loss_gradients_finite_difference():
    rng = np.random.default_rng(20)
    pairs = [make_features(rng, 5, 4, 8, requires_grad=True) for _ in range(3)]
    imgs, txts = [p[0] for p in pairs], [p[1] for p in pairs]
    tensors = []
    for feats in imgs + txts:
        tensors.extend([feats.local, feats.global_feat])

    def f():
        return total_loss(imgs, txts).total

    err = max_rel_error(f, tensors, coords_per_tensor=6, rng=rng)
    assert err < 1e-4


def test_loss_config_validation():
    with pytest.raises(ParameterError):
        LossConfig(lambda1=0.0)
    with pytest.raises(ParameterError):
        LossConfig(tau_global=-0.1)


# ---------------------------------------------------------------------------
# distinct word rows
# ---------------------------------------------------------------------------


def _encoded_batch(rng, use_positions, vocab=6, dim=8, lengths=(5, 9, 1, 7)):
    """Encoder parameters, token sequences over a small vocabulary (so words
    repeat), and four images with 4 regions each."""
    params = EncoderParams.initialize(dim, vocab, patch_pool=2, rng=rng,
                                      use_positions=use_positions)
    seqs = [TokenSequence(rng.integers(0, vocab, size=n), vocab_size=vocab) for n in lengths]
    imgs, _ = _ragged_batch(rng, [], 4, 4, dim, requires_grad=True)
    return params, seqs, imgs


@pytest.mark.parametrize("use_positions", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_distinct_rows_score_as_per_word_features(use_positions, seed):
    # the encoder's batch scored through its distinct rows, and the same words
    # as per-word rows with no index: equal scores, equal region gradients, and
    # each distinct row's gradient equal to the sum over its words' gradients
    rng = np.random.default_rng(40 + seed)
    params, seqs, imgs = _encoded_batch(rng, use_positions)
    enc = encode_text_toy(seqs, params)
    n, u = enc.local.shape[0], enc.distinct.shape[0]
    if not use_positions:
        assert u < n
    np.testing.assert_array_equal(enc.local.numpy(), enc.distinct.numpy()[enc.word_rows])
    glob = nm.Tensor(enc.global_feat.numpy(), requires_grad=True)
    via_rows = LocalGlobalFeatures(ref.constant(enc.local.numpy()), glob, "text", enc.lengths,
                                   nm.Tensor(enc.distinct.numpy(), requires_grad=True),
                                   enc.word_rows)
    per_word = LocalGlobalFeatures(nm.Tensor(enc.local.numpy(), requires_grad=True), glob,
                                   "text", enc.lengths)
    cfg = LossConfig(lambda1=3.0, lambda2=6.0)
    w = rng.normal(size=(2, len(imgs), len(seqs)))
    grads = []
    for txt, words in ((via_rows, via_rows.distinct), (per_word, per_word.local)):
        g, l = pairwise_scores(imgs, txt, cfg)
        grads.append((g.numpy(), l.numpy(), *analytic_grads(
            lambda: ref.add(ref.tensor_sum(ref.mul(pairwise_scores(imgs, txt, cfg)[0],
                                                   ref.constant(w[0]))),
                            ref.tensor_sum(ref.mul(pairwise_scores(imgs, txt, cfg)[1],
                                                   ref.constant(w[1])))),
            [words, *(f.local for f in imgs)])))
    (g1, l1, g_rows, *g_regions1), (g2, l2, g_words, *g_regions2) = grads
    np.testing.assert_array_equal(g1, g2)
    np.testing.assert_allclose(l1, l2, rtol=0, atol=1e-12)
    summed = np.zeros((u, g_words.shape[1]))
    np.add.at(summed, enc.word_rows, g_words)
    np.testing.assert_allclose(g_rows, summed, rtol=0, atol=1e-12)
    for a, b in zip(g_regions1, g_regions2):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("use_positions", [False, True])
def test_encoded_repeated_tokens_match_pair_oracle(use_positions):
    # the batch encoded in one call and scored through its distinct rows,
    # against the per-pair oracle on each study encoded alone: scores, and the
    # token table's gradient of a random weighting of both score matrices
    rng = np.random.default_rng(47)
    params, seqs, imgs = _encoded_batch(rng, use_positions)
    cfg = LossConfig(lambda1=3.0, lambda2=6.0)
    enc = encode_text_toy(seqs, params)
    g, l = pairwise_scores(imgs, enc, cfg)
    alone = [encode_text_toy(seq, params) for seq in seqs]
    g_want, l_want = pairwise_oracle(imgs, alone, cfg.lambda1, cfg.lambda2)
    np.testing.assert_allclose(g.numpy(), g_want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(l.numpy(), l_want, rtol=0, atol=1e-12)

    wg, wl = rng.normal(size=(2, len(imgs), len(seqs)))
    leaves = [params.token_table, params.global_proj_text, *(f.local for f in imgs)]

    def kernel():
        g, l = pairwise_scores(imgs, encode_text_toy(seqs, params), cfg)
        return ref.add(ref.tensor_sum(ref.mul(g, ref.constant(wg))),
                       ref.tensor_sum(ref.mul(l, ref.constant(wl))))

    def oracle():
        total = ref.constant(0.0)
        for j, seq in enumerate(seqs):
            txt = encode_text_toy(seq, params)
            for i, img in enumerate(imgs):
                total = ref.add(total, ref.scale(
                    global_similarity(img.global_feat, txt.global_feat), wg[i, j]))
                total = ref.add(total, ref.scale(
                    local_score(img, txt, cfg.lambda1, cfg.lambda2), wl[i, j]))
        return total

    for got, want in zip(analytic_grads(kernel, leaves), analytic_grads(oracle, leaves)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_all_distinct_words_take_the_same_path(monkeypatch):
    # every word distinct (U = N): the encoder's index is 0, 1, ..., its
    # distinct rows are its local rows, and align gets that index and N columns
    rng = np.random.default_rng(48)
    params, _, imgs = _encoded_batch(rng, False, vocab=12)
    seqs = [TokenSequence(ids, vocab_size=12) for ids in ((3, 0, 7), (11,), (5, 2, 9, 1))]
    enc = encode_text_toy(seqs, params)
    np.testing.assert_array_equal(enc.word_rows, np.arange(8))
    np.testing.assert_array_equal(enc.distinct.numpy(), enc.local.numpy())
    seen = []
    real = crossmodal.align

    def recording(regions, words_t, word_norms, lengths, lambda1, lambda2, word_rows=None):
        seen.append((words_t.shape, None if word_rows is None else word_rows.tolist()))
        return real(regions, words_t, word_norms, lengths, lambda1, lambda2, word_rows)

    monkeypatch.setattr(crossmodal, "align", recording)
    _, l = pairwise_scores(imgs, enc, LossConfig())
    assert seen == [((8, 8), list(range(8)))]
    _, l_want = pairwise_oracle(imgs, [encode_text_toy(s, params) for s in seqs], 4.0, 5.0)
    np.testing.assert_allclose(l.numpy(), l_want, rtol=0, atol=1e-12)


def test_pairwise_scores_rejects_a_mismatched_word_index():
    rng = np.random.default_rng(49)
    params, seqs, imgs = _encoded_batch(rng, False)
    enc = encode_text_toy(seqs, params)
    short = LocalGlobalFeatures(enc.local, enc.global_feat, "text", enc.lengths, enc.distinct,
                                enc.word_rows[1:])
    wide = LocalGlobalFeatures(enc.local, enc.global_feat, "text", enc.lengths,
                               ref.constant(np.ones((3, 5))), enc.word_rows)
    n, u = enc.local.shape[0], enc.distinct.shape[0]
    below, beyond = (LocalGlobalFeatures(enc.local, enc.global_feat, "text", enc.lengths,
                                         enc.distinct, np.full(n, row)) for row in (-1, u))
    for bad in (short, wide, below, beyond):
        with pytest.raises(ShapeError, match="distinct rows"):
            pairwise_scores(imgs, bad, LossConfig())
    # an index without distinct rows is not read: every local row is its own
    stray = LocalGlobalFeatures(enc.local, enc.global_feat, "text", enc.lengths,
                                word_rows=np.zeros(n, dtype=np.intp))
    plain = LocalGlobalFeatures(enc.local, enc.global_feat, "text", enc.lengths)
    np.testing.assert_array_equal(pairwise_scores(imgs, stray, LossConfig())[1].numpy(),
                                  pairwise_scores(imgs, plain, LossConfig())[1].numpy())


def test_forward_only_blocks_bound_the_per_word_arrays_too(monkeypatch):
    # 3 distinct rows behind 40 words: the (I, R, U) arrays are small, so the
    # (I, N) ones set the block size; under a budget of 256 elements, 12
    # images of 2 regions run 6 to a block, and score as per-word features do
    rng = np.random.default_rng(50)
    monkeypatch.setattr(crossmodal, "_BLOCK_ELEMENTS", 256)
    imgs, _ = _ragged_batch(rng, [], 12, 2, 8)
    distinct = unit_rows(rng, 3, 8)
    rows = np.concatenate([np.arange(3), rng.integers(0, 3, size=37)])
    glob = nm.Tensor(unit_rows(rng, 4, 8))
    lengths = (10, 10, 15, 5)
    via_rows = LocalGlobalFeatures(nm.Tensor(distinct[rows]), glob, "text", lengths,
                                   nm.Tensor(distinct), rows)
    per_word = LocalGlobalFeatures(nm.Tensor(distinct[rows]), glob, "text", lengths)
    shapes = []
    real = crossmodal.align

    def recording(regions, words_t, word_norms, *args):
        shapes.append((*regions.shape[:2], len(word_norms), words_t.shape[1]))
        return real(regions, words_t, word_norms, *args)

    monkeypatch.setattr(crossmodal, "align", recording)
    _, l = pairwise_scores(imgs, via_rows, LossConfig())
    # the 3 distinct columns, padded to 8 for the similarity GEMM
    assert shapes == [(6, 2, 3, 8), (6, 2, 3, 8)]
    assert all(i * 40 <= 256 and i * r * padded <= 256 for i, r, _, padded in shapes)
    shapes.clear()
    _, l_want = pairwise_scores(imgs, per_word, LossConfig())
    np.testing.assert_allclose(l.numpy(), l_want.numpy(), rtol=0, atol=1e-12)
