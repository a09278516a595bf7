"""Linear-probe and zero-shot tests against scalar oracles."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from glre.classify import (
    ProbeConfig,
    ProbeModel,
    default_prompts,
    fit_linear_probe,
    image_features,
    probe_predict,
    PromptSet,
    _sigmoid,
    zero_shot_scores,
)
from glre.datapipe import (
    BLANK,
    PATHOLOGIES,
    LabelVector,
    StudyRecord,
    SynthConfig,
    labels_to_matrix,
    synth_paired_dataset,
)
from glre.encoders import CHUNK_PIXELS, ImageGrid, encode_image_patches
from glre.errors import ShapeError, VocabularyError
from glre.metrics import roc_auc
from glre.trainer import TrainConfig, initial_checkpoint, train

from pool_oracle import pool_each


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def cluster_data(rng, n_per=40, dim=8, gap=4.0):
    """Two separated Gaussian clusters per pathology along its own axis."""
    n = 2 * n_per
    x = rng.normal(size=(n, dim))
    labels = []
    for i in range(n):
        values = []
        for k in range(len(PATHOLOGIES)):
            positive = (i < n_per) == (k % 2 == 0)
            values.append(1 if positive else 0)
            if positive:
                x[i, k] += gap
        labels.append(LabelVector(tuple(values)))
    return x, labels


def test_untrained_probe_predicts_half():
    model = ProbeModel(weights=np.zeros((5, 8)), bias=np.zeros(5))
    probs = probe_predict(model, np.random.default_rng(0).normal(size=(6, 8)))
    np.testing.assert_array_equal(probs, np.full((6, 5), 0.5))


def test_probe_reaches_auc_one_on_separable_clusters():
    rng = np.random.default_rng(1)
    x, labels = cluster_data(rng)
    model = fit_linear_probe(x, labels, ProbeConfig(epochs=500))
    probs = probe_predict(model, x)
    y = np.array([lv.values for lv in labels], dtype=float)
    for k in range(5):
        assert roc_auc(probs[:, k], y[:, k].astype(int)).auc == 1.0


def test_probe_skips_single_class_pathology_and_warns():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 4))
    # pathology 0 varies; all others constant negative
    labels = [LabelVector((1 if i % 2 else 0, 0, 0, 0, 0)) for i in range(20)]
    with pytest.warns(UserWarning):
        model = fit_linear_probe(x, labels, ProbeConfig(epochs=10))
    assert model.metadata["skipped"] == list(PATHOLOGIES[1:])
    np.testing.assert_array_equal(model.weights[1:], 0.0)
    assert np.abs(model.weights[0]).max() > 0


def test_probe_all_masked_pathology_keeps_init():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 4))
    labels = [LabelVector((1 if i % 2 else 0, -1, 1 if i % 3 else 0, 0 if i % 2 else 1,
                           1 if i < 5 else 0)) for i in range(10)]
    with pytest.warns(UserWarning):
        model = fit_linear_probe(x, labels, ProbeConfig(epochs=5))
    np.testing.assert_array_equal(model.weights[1], 0.0)


def test_probe_loss_non_increasing_at_small_lr():
    rng = np.random.default_rng(4)
    x, labels = cluster_data(rng, n_per=25)
    model = fit_linear_probe(x, labels, ProbeConfig(epochs=200, learning_rate=1e-2))
    history = model.metadata["loss_history"]
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_probe_policies_differ_only_on_uncertain_rows():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 6))
    labels = []
    for i in range(30):
        values = [1 if (i + k) % 2 else 0 for k in range(5)]
        if i % 5 == 0:
            values[2] = -1
        labels.append(LabelVector(tuple(values)))
    excl = fit_linear_probe(x, labels, ProbeConfig(epochs=50, uncertain_policy="exclude"))
    pos = fit_linear_probe(x, labels, ProbeConfig(epochs=50, uncertain_policy="pos"))
    # pathologies without any -1 labels train identically under both policies
    for k in (0, 1, 3, 4):
        np.testing.assert_array_equal(excl.weights[k], pos.weights[k])
    assert np.abs(excl.weights[2] - pos.weights[2]).max() > 0


def loop_probe(x, labels, config):
    """The per-pathology gradient-descent loop the fused fit replaced.

    Returns weights, bias, loss history, skipped names and warning texts.
    """
    y, mask = labels_to_matrix(labels, uncertain_policy=config.uncertain_policy)
    w = np.zeros((len(PATHOLOGIES), x.shape[1]))
    b = np.zeros(len(PATHOLOGIES))
    active, warned = [], []
    for k, name in enumerate(PATHOLOGIES):
        visible = y[mask[:, k], k]
        if visible.size == 0 or visible.min() == visible.max():
            warned.append(f"probe skips {name!r}: labels are single-class or fully masked")
        else:
            active.append(k)
    history = []
    for _ in range(config.epochs):
        p = _sigmoid(x @ w.T + b)
        losses = []
        for k in active:
            mk = mask[:, k]
            count = mk.sum()
            err = p[mk, k] - y[mk, k]
            w[k] -= config.learning_rate * (err @ x[mk]) / count
            b[k] -= config.learning_rate * err.sum() / count
            eps = 1e-12
            losses.append(float(-np.mean(y[mk, k] * np.log(p[mk, k] + eps)
                                         + (1 - y[mk, k]) * np.log(1 - p[mk, k] + eps))))
        history.append(float(np.mean(losses)) if losses else 0.0)
    skipped = [PATHOLOGIES[k] for k in range(len(PATHOLOGIES)) if k not in active]
    return w, b, history, skipped, warned


@pytest.mark.parametrize("policy", ["exclude", "pos", "neg"])
def test_fused_probe_matches_per_pathology_loop(policy):
    rng = np.random.default_rng(12)
    config = ProbeConfig(epochs=150, learning_rate=0.1, uncertain_policy=policy)
    for _ in range(4):
        n, d = int(rng.integers(12, 60)), int(rng.integers(1, 10))
        x = rng.normal(size=(n, d))
        values = rng.choice(np.array([1, 0, -1, BLANK], dtype=object), size=(n, 5))
        single, masked = rng.choice(5, size=2, replace=False)
        values[:, single] = rng.choice(np.array([0, BLANK], dtype=object), size=n)
        values[:, masked] = -1  # masked under "exclude", single-class otherwise
        labels = [LabelVector(tuple(row)) for row in values]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_linear_probe(x, labels, config)
        w, b, history, skipped, warned = loop_probe(x, labels, config)
        np.testing.assert_allclose(model.weights, w, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.bias, b, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.metadata["loss_history"], history, rtol=1e-12, atol=0)
        assert model.metadata["skipped"] == skipped
        assert [str(c.message) for c in caught] == warned
        assert len(skipped) >= 2 and np.abs(model.weights).max() > 0


def test_probe_predict_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(5, 7))
    b = rng.normal(size=5)
    x = rng.normal(size=(4, 7))
    probs = probe_predict(ProbeModel(weights=w, bias=b), x)
    for i in range(4):
        for k in range(5):
            z = float(np.dot(w[k], x[i]) + b[k])
            assert probs[i, k] == pytest.approx(1 / (1 + np.exp(-z)), abs=1e-12)


def test_probe_saturation():
    w = np.zeros((5, 3))
    w[0, 0] = 1.0
    model = ProbeModel(weights=w, bias=np.zeros(5))
    probs = probe_predict(model, np.array([[50.0, 0, 0]]))
    assert probs[0, 0] > 1 - 1e-12


def test_probe_shape_errors_and_round_trip(tmp_path):
    with pytest.raises(ShapeError):
        ProbeModel(weights=np.zeros((4, 8)), bias=np.zeros(5))
    model = ProbeModel(weights=np.ones((5, 3)), bias=np.zeros(5),
                       metadata={"epochs": 1})
    with pytest.raises(ShapeError):
        probe_predict(model, np.zeros((2, 4)))
    path = tmp_path / "probe.json"
    model.save(path)
    assert json.loads(path.read_text()) == {"weights": [[1.0] * 3] * 5, "bias": [0.0] * 5,
                                            "metadata": {"epochs": 1}}


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(epochs=-1)
    with pytest.raises(ValueError):
        ProbeConfig(uncertain_policy="coinflip")


# ---------------------------------------------------------------------------
# prompts and zero-shot
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained():
    cfg = SynthConfig(n_train=60, n_heldout=20, image_size=12)
    train_recs, held_recs = synth_paired_dataset(cfg, seed=9)
    tcfg = TrainConfig(batch_size=8, steps=40, dim=16, patch_pool=2, seed=1)
    ckpt = train(train_recs, tcfg)
    return ckpt, held_recs


def test_prompt_set_validation():
    with pytest.raises(ValueError):
        PromptSet(prompts={name: [name] for name in PATHOLOGIES[:-1]})
    bad = {name: [name] for name in PATHOLOGIES}
    bad["edema"] = ["  "]
    with pytest.raises(ValueError):
        PromptSet(prompts=bad)


def test_prompt_without_tokens_names_class_and_prompt():
    prompts = {name: [name] for name in PATHOLOGIES}
    prompts["edema"] = ["edema", "..."]
    with pytest.raises(ValueError, match=r"'\.\.\.' for pathology 'edema' has no tokens"):
        PromptSet(prompts=prompts)


def test_prompt_set_round_trip(tmp_path):
    prompts = default_prompts()
    path = tmp_path / "prompts.json"
    path.write_text(json.dumps(prompts.prompts))
    assert PromptSet.load(path).prompts == prompts.prompts


def test_default_prompts_tokenizable_under_synth_vocab(trained):
    ckpt, held = trained
    feats = image_features(held[:3], ckpt)
    scores = zero_shot_scores(feats, default_prompts(), ckpt)
    assert scores.shape == (3, 5)
    assert np.all(np.isfinite(scores))


def test_unknown_prompt_token_names_the_prompt(trained):
    ckpt, _ = trained
    prompts = default_prompts()
    prompts.prompts["edema"] = ["edema xylophone present"]
    feats = image_features(_imgs(trained, 1), ckpt)
    with pytest.raises(VocabularyError) as exc:
        zero_shot_scores(feats, prompts, ckpt)
    assert "xylophone" in str(exc.value)


def _imgs(trained, n):
    _, held = trained
    return held[:n]


def test_duplicate_prompt_does_not_change_scores(trained):
    ckpt, held = trained
    feats = image_features(held[:2], ckpt)
    single = default_prompts()
    doubled = PromptSet(prompts={k: (v + [v[0]] if k == "edema" else v)
                                 for k, v in single.prompts.items()})
    np.testing.assert_allclose(zero_shot_scores(feats, single, ckpt),
                               zero_shot_scores(feats, doubled, ckpt), atol=1e-12)


def test_matching_global_scores_one_with_local_disabled(trained):
    ckpt, held = trained
    feats = image_features(held[:1], ckpt)
    prompts = default_prompts()
    scores = zero_shot_scores(feats, prompts, ckpt, global_weight=1.0, local_weight=0.0)
    # oracle: mean global cosine per class, computed directly
    from glre.encoders import encode_text_toy
    from glre.trainer import encode_report
    img_g = feats.global_feat.numpy()[0]
    for k, name in enumerate(PATHOLOGIES):
        vals = []
        for p in prompts.prompts[name]:
            txt = encode_text_toy(encode_report(p, ckpt.vocab, ckpt.config), ckpt.params)
            vals.append(float(np.dot(img_g, txt.global_feat.numpy()[0])))
        assert scores[0, k] == pytest.approx(np.mean(vals), abs=1e-12)


def test_zero_shot_argmax_shift_invariant(trained):
    ckpt, held = trained
    feats = image_features(held[:4], ckpt)
    scores = zero_shot_scores(feats, default_prompts(), ckpt)
    shifted = scores + 0.73
    np.testing.assert_array_equal(np.argmax(scores, axis=1), np.argmax(shifted, axis=1))


def test_feature_matrix_shape(trained):
    ckpt, held = trained
    feats = image_features(held[:5], ckpt)
    mat = feats.global_feat.numpy()
    assert mat.shape == (5, 16)
    np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-10)


def test_image_features_in_chunks_give_the_bytes_of_one_batch(trained):
    # a chunk holds CHUNK_PIXELS pixels of the largest image (28 of 24 x 24, 7 of
    # 48 x 48), but never one image of several: two of 144 x 144, and the image
    # left over after full chunks joins the last of them
    ckpt, _ = trained
    rng = np.random.default_rng(29)
    chunk = CHUNK_PIXELS // (24 * 24)
    assert CHUNK_PIXELS < 144 * 144
    for sizes in [*([24] * n for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)),
                  [24, 48] * 8, [144] * 5]:
        records = [StudyRecord(f"s{k}", image=ImageGrid(rng.uniform(size=(s, s))))
                   for k, s in enumerate(sizes)]
        got = image_features(records, ckpt)
        want = encode_image_patches(pool_each([r.image for r in records], ckpt.params.patch_pool),
                                    ckpt.params)
        assert got.lengths == want.lengths
        for attr in ("local", "global_feat"):
            assert getattr(got, attr).numpy().tobytes() == getattr(want, attr).numpy().tobytes()


def test_image_features_holds_no_batch_sized_temporary():
    # encoded as one batch, 500 studies held their patches, the stacked rows, the
    # tensor's copy of them and the normalized rows together: 2.8x the output
    records, _ = synth_paired_dataset(SynthConfig(n_train=500, n_heldout=0), seed=7)
    ckpt = initial_checkpoint(records, TrainConfig())
    tracemalloc.start()
    try:
        feats = image_features(records, ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = feats.local.numpy().nbytes + feats.global_feat.numpy().nbytes
    assert output == (500 * 9 + 500) * 64 * 8
    assert peak <= 1.5 * output
