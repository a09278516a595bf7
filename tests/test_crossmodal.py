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
    contrastive_loss_batch,
    pairwise_scores,
    total_loss,
)
from glre.encoders import LocalGlobalFeatures
from glre.errors import ParameterError, ShapeError

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
    img_global = nm.Tensor(unit_rows(rng, 1, dim)[0], requires_grad=requires_grad)
    txt_local = nm.Tensor(unit_rows(rng, t, dim), requires_grad=requires_grad)
    txt_global = nm.Tensor(unit_rows(rng, 1, dim)[0], requires_grad=requires_grad)
    img = LocalGlobalFeatures(local=img_local, global_feat=img_global, modality="image")
    txt = LocalGlobalFeatures(local=txt_local, global_feat=txt_global, modality="text")
    return img, txt


# ---------------------------------------------------------------------------
# similarity matrix
# ---------------------------------------------------------------------------


def test_similarity_orthonormal_identity():
    eye = nm.constant(np.eye(4))
    sim = similarity_matrix(eye, eye)
    np.testing.assert_allclose(sim.numpy(), np.eye(4), atol=1e-15)


def test_similarity_entries_bounded():
    rng = np.random.default_rng(0)
    sim = similarity_matrix(nm.constant(unit_rows(rng, 6, 5)),
                            nm.constant(unit_rows(rng, 7, 5)))
    assert np.abs(sim.numpy()).max() <= 1.0 + 1e-12


def test_similarity_matches_dot_loop():
    rng = np.random.default_rng(1)
    w = unit_rows(rng, 5, 8)
    r = unit_rows(rng, 4, 8)
    sim = similarity_matrix(nm.constant(w), nm.constant(r)).numpy()
    for t in range(5):
        for k in range(4):
            assert abs(sim[t, k] - float(np.dot(w[t], r[k]))) < 1e-12


def test_similarity_dim_mismatch():
    with pytest.raises(ShapeError):
        similarity_matrix(nm.constant(np.eye(3)), nm.constant(np.eye(4)))


def test_similarity_rejects_unnormalized_rows():
    big = nm.constant(2.0 * np.eye(3))
    with pytest.raises(ValueError):
        similarity_matrix(big, big)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def test_attention_single_region():
    rng = np.random.default_rng(2)
    region = nm.constant(unit_rows(rng, 1, 6))
    words = nm.constant(unit_rows(rng, 4, 6))
    for lam in (0.5, 4.0, 80.0):
        att = attention_contexts(similarity_matrix(words, region), region, lam)
        np.testing.assert_allclose(att.contexts.numpy(),
                                   np.repeat(region.numpy(), 4, axis=0), atol=1e-12)


def test_attention_uniform_limit():
    rng = np.random.default_rng(3)
    regions = nm.constant(unit_rows(rng, 5, 8))
    words = nm.constant(unit_rows(rng, 3, 8))
    att = attention_contexts(similarity_matrix(words, regions), regions, 1e-6)
    mean = regions.numpy().mean(axis=0)
    assert np.abs(att.contexts.numpy() - mean).max() < 1e-4


def test_attention_sharp_limit_picks_argmax_region():
    # similarities with a gap >= 0.2 between best and rest
    sims = nm.constant(np.array([[0.9, 0.6, 0.1], [0.1, 0.2, 0.8]]))
    rng = np.random.default_rng(4)
    regions = nm.constant(unit_rows(rng, 3, 6))
    att = attention_contexts(sims, regions, 50.0)
    ctx = att.contexts.numpy()
    assert np.abs(ctx[0] - regions.numpy()[0]).max() < 1e-3
    assert np.abs(ctx[1] - regions.numpy()[2]).max() < 1e-3


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        regions = nm.constant(unit_rows(rng, 4, 8))
        words = nm.constant(unit_rows(rng, 5, 8))
        lam = float(rng.uniform(0.1, 20))
        att = attention_contexts(similarity_matrix(words, regions), regions, lam)
        np.testing.assert_allclose(att.weights.numpy().sum(axis=1), 1.0, atol=1e-9)


def test_attention_rejects_nonpositive_sharpening():
    rng = np.random.default_rng(6)
    regions = nm.constant(unit_rows(rng, 3, 4))
    words = nm.constant(unit_rows(rng, 2, 4))
    sim = similarity_matrix(words, regions)
    for lam in (0.0, -1.0):
        with pytest.raises(ParameterError):
            attention_contexts(sim, regions, lam)


def test_attention_context_is_exact_convex_combination():
    rng = np.random.default_rng(7)
    regions = nm.constant(unit_rows(rng, 4, 6))
    words = nm.constant(unit_rows(rng, 3, 6))
    att = attention_contexts(similarity_matrix(words, regions), regions, 4.0)
    np.testing.assert_array_equal(att.contexts.numpy(),
                                  att.weights.numpy() @ regions.numpy())


# ---------------------------------------------------------------------------
# local alignment
# ---------------------------------------------------------------------------


def _attention(rng, t, r, dim, lam=4.0):
    regions = nm.constant(unit_rows(rng, r, dim))
    words = nm.constant(unit_rows(rng, t, dim))
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
    regions = nm.constant(unit_rows(rng, 4, 6))
    word = unit_rows(rng, 1, 6)
    words = nm.constant(np.repeat(word, 5, axis=0))
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
    a = nm.constant([1.0, 0.0, 0.0])
    b = nm.constant([0.0, 1.0, 0.0])
    assert global_similarity(a, a).item() == 1.0
    assert global_similarity(a, b).item() == 0.0
    assert global_similarity(a, nm.constant([-1.0, 0.0, 0.0])).item() == -1.0


def test_global_similarity_dim_mismatch():
    with pytest.raises(ShapeError):
        global_similarity(nm.constant([1.0, 0.0]), nm.constant([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------


def test_all_equal_matrix_gives_log_b():
    for b in (2, 4, 16):
        pairwise = nm.constant(np.full((b, b), 0.37))
        for direction in ("i2t", "t2i"):
            loss = contrastive_loss_batch(pairwise, 0.1, direction)
            assert abs(loss.item() - math.log(b)) < 1e-10


def test_single_pair_loss_is_zero():
    loss = contrastive_loss_batch(nm.constant([[0.8]]), 0.1)
    assert loss.item() == 0.0


def test_identity_matrix_closed_form():
    pairwise = nm.constant(np.eye(4))
    loss = contrastive_loss_batch(pairwise, 0.1, "i2t")
    expected = -math.log(math.exp(10.0) / (math.exp(10.0) + 3.0))
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_loss_shift_invariance():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(5, 5))
    a = contrastive_loss_batch(nm.constant(m), 0.2).item()
    b = contrastive_loss_batch(nm.constant(m + 3.7), 0.2).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_loss_nonnegative():
    rng = np.random.default_rng(14)
    for _ in range(50):
        b = int(rng.integers(1, 7))
        m = rng.normal(size=(b, b))
        for d in ("i2t", "t2i"):
            assert contrastive_loss_batch(nm.constant(m), 0.5, d).item() >= 0.0


def test_loss_overflow_safety():
    m = nm.constant(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    loss = contrastive_loss_batch(m, 0.1)
    assert np.isfinite(loss.item())


def test_loss_parameter_and_shape_errors():
    square = nm.constant(np.eye(2))
    with pytest.raises(ParameterError):
        contrastive_loss_batch(square, 0.0)
    with pytest.raises(ShapeError):
        contrastive_loss_batch(nm.constant(np.zeros((2, 3))), 0.1)
    with pytest.raises(ValueError):
        contrastive_loss_batch(square, 0.1, "sideways")


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_loss_equals_scalar_oracle(b, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(b, b))
    tau = float(rng.uniform(0.05, 2.0))
    got = contrastive_loss_batch(nm.constant(m), tau, "i2t").item()
    rows = m / tau
    want = float(np.mean([np.log(np.exp(r - r.max()).sum()) + r.max() - r[i]
                          for i, r in enumerate(rows)]))
    assert got == pytest.approx(want, abs=1e-10)


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
    parts = (out.global_i2t.item() + out.global_t2i.item()
             + out.local_i2t.item() + out.local_t2i.item())
    assert out.total.item() == pytest.approx(parts, abs=1e-12)
    assert min(out.as_dict().values()) >= 0.0


def test_component_weights_scale_total():
    rng = np.random.default_rng(17)
    pairs = [make_features(rng, 3, 3, 8) for _ in range(3)]
    imgs, txts = [p[0] for p in pairs], [p[1] for p in pairs]
    base = total_loss(imgs, txts)
    half = total_loss(imgs, txts, LossConfig(weight_local_i2t=0.0,
                                             weight_local_t2i=0.0))
    expected = base.global_i2t.item() + base.global_t2i.item()
    assert half.total.item() == pytest.approx(expected, abs=1e-12)


def _orthogonal_batch(dim=16, b=3, rows=2):
    """Image i and text i share features; different pairs are orthogonal."""
    imgs, txts = [], []
    for i in range(b):
        local = np.zeros((rows, dim))
        for t in range(rows):
            local[t, i * (rows + 1) + t] = 1.0
        glob = np.zeros(dim)
        glob[i * (rows + 1) + rows] = 1.0
        img = LocalGlobalFeatures(local=nm.constant(local),
                                  global_feat=nm.constant(glob), modality="image")
        txt = LocalGlobalFeatures(local=nm.constant(local.copy()),
                                  global_feat=nm.constant(glob.copy()), modality="text")
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
            global_feat=nm.Tensor(unit_rows(rng, 1, dim)[0], requires_grad=requires_grad),
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
        return nm.add(nm.tensor_sum(nm.mul(g, nm.constant(wg))),
                      nm.tensor_sum(nm.mul(l, nm.constant(wl))))

    def oracle():
        total = nm.constant(0.0)
        for i, img in enumerate(imgs):
            for j, txt in enumerate(txts):
                total = nm.add(total, nm.scale(
                    global_similarity(img.global_feat, txt.global_feat), wg[i, j]))
                total = nm.add(total, nm.scale(
                    local_score(img, txt, cfg.lambda1, cfg.lambda2), wl[i, j]))
        return total

    return analytic_grads(kernel, leaves), analytic_grads(oracle, leaves)


def test_pairwise_gradients_match_pair_oracle():
    rng = np.random.default_rng(21)
    imgs, txts = _ragged_batch(rng, [1, 4, 2, 6], 3, 5, 8, requires_grad=True)
    cfg = LossConfig(lambda1=3.0, lambda2=6.0)
    for got, want in zip(*_kernel_and_oracle_grads(imgs, txts, cfg, rng)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_pairwise_scores_over_several_blocks_match_pair_oracle():
    # 40 images x 12 texts of 20 words at D=16 exceed the block budget, so
    # the local kernel scores them in at least three blocks of images
    rng = np.random.default_rng(26)
    n_images, lengths, r, dim = 40, [20] * 12, 9, 16
    per_block = max(1, crossmodal._BLOCK_ELEMENTS // (sum(lengths) * dim))
    assert math.ceil(n_images / per_block) >= 3
    imgs, txts = _ragged_batch(rng, lengths, n_images, r, dim, requires_grad=True)
    cfg = LossConfig(lambda1=3.0, lambda2=6.0)
    g, l = pairwise_scores(imgs, txts, cfg)
    g_want, l_want = pairwise_oracle(imgs, txts, cfg.lambda1, cfg.lambda2)
    np.testing.assert_allclose(g.numpy(), g_want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(l.numpy(), l_want, rtol=0, atol=1e-12)
    for got, want in zip(*_kernel_and_oracle_grads(imgs, txts, cfg, rng)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_pairwise_mixed_region_counts_match_pair_oracle():
    # a block holds images of one region count, so a change of count starts one
    rng = np.random.default_rng(27)
    imgs = []
    for r in (4, 4, 2, 4, 1, 1):
        imgs.extend(_ragged_batch(rng, [], 1, r, 8, requires_grad=True)[0])
    _, txts = _ragged_batch(rng, [3, 1, 5], 0, 1, 8, requires_grad=True)
    cfg = LossConfig(lambda1=2.0, lambda2=4.0)
    g, l = pairwise_scores(imgs, txts, cfg)
    _, l_want = pairwise_oracle(imgs, txts, cfg.lambda1, cfg.lambda2)
    np.testing.assert_allclose(l.numpy(), l_want, rtol=0, atol=1e-12)
    for got, want in zip(*_kernel_and_oracle_grads(imgs, txts, cfg, rng)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_pairwise_near_cancelling_contexts_match_pair_oracle():
    # regions u and -u + delta, against words orthogonal to u, get nearly
    # equal attention, so each context is about delta / 2: |c| runs from 1e-1
    # down to 1e-4. A context norm read off the region Gram, a (V V^T) a^T,
    # cancels here and misses both bounds; the kernel's norm of c does not.
    rng = np.random.default_rng(25)
    dim = 8
    u = unit_rows(rng, 1, dim)[0]

    def feats(local, modality):
        return LocalGlobalFeatures(
            local=nm.Tensor(local, requires_grad=True),
            global_feat=nm.Tensor(unit_rows(rng, 1, dim)[0], requires_grad=True),
            modality=modality)

    imgs = [feats(np.stack([u, -u + 2 * scale * unit_rows(rng, 1, dim)[0]]), "image")
            for scale in (1e-1, 1e-2, 1e-3, 1e-4)]
    txts = []
    for n in (1, 3, 5):
        w = rng.normal(size=(n, dim))
        w -= np.outer(w @ u, u)
        txts.append(feats(w / np.linalg.norm(w, axis=1, keepdims=True), "text"))
    cfg = LossConfig(lambda1=4.0, lambda2=5.0)
    att = attention_contexts(similarity_matrix(txts[-1].local, imgs[-1].local),
                             imgs[-1].local, cfg.lambda1)
    assert np.linalg.norm(att.contexts.numpy(), axis=1).max() < 3e-4

    _, l = pairwise_scores(imgs, txts, cfg)
    _, l_want = pairwise_oracle(imgs, txts, cfg.lambda1, cfg.lambda2)
    np.testing.assert_allclose(l.numpy(), l_want, rtol=0, atol=1e-12)
    # gradients grow like 1/|c|, so each is compared against its own scale
    for got, want in zip(*_kernel_and_oracle_grads(imgs, txts, cfg, rng)):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


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
        loss = nm.tensor_sum(l)
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
    flat = LocalGlobalFeatures(local=nm.constant(np.zeros((0, 8))),
                               global_feat=txts[0].global_feat, modality="text")
    with pytest.raises(ShapeError):
        pairwise_scores(imgs, [flat], cfg)


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
