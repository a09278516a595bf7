"""AUC against a brute-force pairwise oracle, plus curve and aggregation checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glre.errors import UndefinedAucError
from glre.metrics import RocCurve, aggregate_auc, retrieval_top1, roc_auc


def pairwise_auc_oracle(scores, labels):
    """O(n_pos * n_neg) comparison count: win 1, tie 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_perfect_separation():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = [1, 1, 0, 0]
    assert roc_auc(scores, labels).auc == 1.0


def test_perfectly_inverted():
    scores = [0.1, 0.2, 0.8, 0.9]
    labels = [1, 1, 0, 0]
    assert roc_auc(scores, labels).auc == 0.0


def test_all_tied_scores_give_half():
    scores = [0.5, 0.5, 0.5, 0.5]
    labels = [1, 0, 1, 0]
    assert roc_auc(scores, labels).auc == 0.5


def test_single_tie_half_credit():
    # one positive ties one negative: U = 1*1 + 0.5 over 2*2 pairs minus...
    scores = [0.7, 0.5, 0.5, 0.3]
    labels = [1, 1, 0, 0]
    expected = pairwise_auc_oracle(scores, labels)
    assert roc_auc(scores, labels).auc == pytest.approx(expected, abs=1e-15)


def test_matches_pairwise_oracle_500_random_cases():
    rng = np.random.default_rng(7)
    zero_rng = np.random.default_rng(21)
    for _ in range(500):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        if labels.sum() == n:
            labels[int(rng.integers(0, n))] = 0
        # quantized scores force frequent ties
        scores = np.round(rng.normal(size=n), 1)
        # quarter steps with -0.0 mixed in: signed zeros must tie with 0.0
        signed_zeros = zero_rng.integers(-3, 4, size=n) * 0.25
        signed_zeros[zero_rng.uniform(size=n) < 0.3] = -0.0
        for s in (scores, signed_zeros):
            got = roc_auc(s, labels).auc
            want = pairwise_auc_oracle(s, labels)
            assert abs(got - want) < 1e-12


def test_symmetry_is_exact_in_floating_point():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[-1] = 0
        scores = np.round(rng.normal(size=n), 2)
        a = roc_auc(scores, labels).auc
        b = roc_auc(-scores, labels).auc
        assert a + b == 1.0


def test_single_class_raises():
    with pytest.raises(UndefinedAucError):
        roc_auc([0.1, 0.2, 0.3], [1, 1, 1])
    with pytest.raises(UndefinedAucError):
        roc_auc([0.1, 0.2, 0.3], [0, 0, 0])


def test_too_few_samples_raises():
    with pytest.raises(UndefinedAucError):
        roc_auc([0.5], [1])


def test_nonfinite_scores_raise():
    with pytest.raises(ValueError):
        roc_auc([0.1, np.nan, 0.3], [1, 0, 1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=4, max_size=30),
       st.data())
def test_monotone_transform_invariance(raw, data):
    # quantize so the affine map cannot collapse distinct scores into ties
    scores = np.round(np.asarray(raw), 2)
    labels = np.array(data.draw(st.lists(st.integers(0, 1),
                                         min_size=len(scores),
                                         max_size=len(scores))))
    if labels.sum() in (0, len(labels)):
        labels[0] = 1 - labels[0]
    base = roc_auc(scores, labels).auc
    shifted = roc_auc(3.0 * scores + 7.0, labels).auc
    assert shifted == pytest.approx(base, abs=1e-12)


def test_curve_endpoints_and_monotonicity():
    rng = np.random.default_rng(3)
    scores = np.round(rng.normal(size=50), 1)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 1, 0
    curve = roc_auc(scores, labels)
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)
    assert curve.thresholds[0] == np.inf
    assert np.all(np.diff(curve.thresholds[1:]) < 0)


def test_trapezoid_area_equals_mann_whitney_auc():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(4, 80))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        scores = np.round(rng.normal(size=n), 1)
        curve = roc_auc(scores, labels)
        area = np.sum(np.diff(curve.fpr) * (curve.tpr[1:] + curve.tpr[:-1]) / 2.0)
        assert area == pytest.approx(curve.auc, abs=1e-12)


def test_roc_csv_round_trip(tmp_path):
    curve = roc_auc([0.9, 0.6, 0.6, 0.2], [1, 1, 0, 0])
    path = tmp_path / "roc.csv"
    curve.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    rows = [line.split(",") for line in lines[1:]]
    fpr = np.array([float(r[0]) for r in rows])
    tpr = np.array([float(r[1]) for r in rows])
    np.testing.assert_array_equal(fpr, curve.fpr)
    np.testing.assert_array_equal(tpr, curve.tpr)


def test_mean_of_five_rounds_to_published_averages():
    row_a = [0.685, 0.628, 0.694, 0.754, 0.717]
    row_b = [0.719, 0.587, 0.700, 0.784, 0.694]
    mean_a, _ = aggregate_auc(row_a)
    mean_b, _ = aggregate_auc(row_b)
    assert f"{mean_a:.3f}" == "0.696"
    assert f"{mean_b:.3f}" == "0.697"


def test_aggregate_std_over_seeds():
    # the std across seeds is the population std of the per-seed means
    mean, std = aggregate_auc([0.74, 0.76])
    assert mean == pytest.approx(0.75)
    assert std == pytest.approx(0.01)


def test_aggregate_single_value():
    mean, std = aggregate_auc([0.7])
    assert mean == pytest.approx(0.7)
    assert std == 0.0


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate_auc([])


def test_retrieval_top1_identity():
    m = np.eye(4) + 0.01 * np.random.default_rng(0).normal(size=(4, 4))
    out = retrieval_top1(m)
    assert out["image_to_text"] == 1.0
    assert out["text_to_image"] == 1.0
    assert out["mean"] == 1.0


def test_retrieval_top1_partial():
    # row 0 prefers column 1, and column 0 prefers row 1
    m = np.array([[0.1, 0.9, 0.0],
                  [0.95, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    out = retrieval_top1(m)
    assert out["image_to_text"] == pytest.approx(2 / 3)
    assert out["text_to_image"] == pytest.approx(2 / 3)
    assert out["mean"] == pytest.approx(2 / 3)


def test_retrieval_rejects_non_square():
    with pytest.raises(ValueError):
        retrieval_top1(np.zeros((3, 4)))
