"""Acceptance gate: eight shipping criteria, one test (and line) per criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
Criteria 5-8 drive the command-line pipeline and compare artifact bytes
across fully independent reruns.
"""

import json
import time

import numpy as np
import pytest

from glre import numerics as nm
from glre.classify import image_features, mixed_scores
from glre.cli import _attach_images
from glre.cli import main as cli_main
from glre.cli import runreport_fingerprint
from glre.crossmodal import (
    LossConfig,
    align,
    contrastive_loss,
    pairwise_scores,
    total_loss,
)
from glre.datapipe import (
    PATHOLOGIES,
    StudyRecord,
    default_lexicon,
    label_report,
    read_manifest,
    write_manifest,
)
from glre.encoders import (
    EncoderParams,
    LocalGlobalFeatures,
    TokenSequence,
    encode_image_patches,
    encode_text_toy,
)
from glre.metrics import aggregate_auc, retrieval_top1, roc_auc
from glre.trainer import load_checkpoint

import reference_ops as ref
from golden_corpus import GOLDEN
from gradcheck import max_rel_error


def _cli(*argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"


def _report(out_dir, command):
    path = out_dir / f"run_report_{command.replace('-', '_')}.json"
    return json.loads(path.read_text())


def _leaf(arr):
    return nm.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# Criterion 1: finite-difference gradient suite
# ---------------------------------------------------------------------------


def _op_battery(rng) -> float:
    """Worst FD relative error across every differentiable operation."""
    T, R, D = 5, 4, 8
    x = _leaf(rng.normal(size=(T, D)))
    x2 = _leaf(rng.normal(size=(T, D)))
    y = _leaf(rng.normal(size=(D, R)))
    rowvec = _leaf(rng.normal(size=(D,)))
    scal = _leaf(np.array(rng.normal()))
    v = _leaf(rng.normal(size=(T,)))
    ids = [int(i) for i in rng.integers(0, T, size=6)]  # repeats accumulate

    def ws(t, w):
        return ref.tensor_sum(ref.mul(t, ref.constant(w)))

    w_tr = rng.normal(size=(T, R))
    w_td = rng.normal(size=(T, D))
    w_dt = rng.normal(size=(D, T))
    w_t = rng.normal(size=(T,))
    cut = int(rng.integers(1, T))  # two segments of unequal length, T being odd
    w_seg = rng.normal(size=(2, D))
    w_gd = rng.normal(size=(6, D))

    # pairwise scores: 3 images x 4 texts of ragged length (T = 1, 5, 2, 3),
    # each side a batch of two studies between batches of one. Image 2's
    # regions are scaled below the 1e-12 norm floor (a near-zero context)
    # and held constant, so its cosines stay guarded under FD steps.
    def feats(lengths, modality, scale=1.0, leaf=True):
        local = scale * rng.normal(size=(sum(lengths), D))
        make = _leaf if leaf else ref.constant
        return LocalGlobalFeatures(make(local), _leaf(rng.normal(size=(len(lengths), D))),
                                   modality, lengths)

    imgs = [feats((R, R), "image"), feats((R,), "image", 1e-14, leaf=False)]
    txts = [feats((1,), "text"), feats((T, 2), "text"), feats((3,), "text")]
    w_34 = rng.normal(size=(3, 4))
    loss_cfg = LossConfig(lambda1=float(rng.uniform(1.0, 6.0)),
                          lambda2=float(rng.uniform(1.0, 6.0)))
    g_leaves = [f.global_feat for f in imgs + txts]
    l_leaves = [f.local for f in imgs[:1] + txts]
    # fused InfoNCE over two 4 x 4 score matrices with random temperatures
    # and weights, one of them 0. Temperatures stay at or above 0.2: below
    # that, softmax entries and so true gradients fall under 1e-6, where the
    # FD quotient's rounding alone exceeds the 1e-4 relative bound.
    s_g = _leaf(rng.uniform(-1.0, 1.0, size=(4, 4)))
    s_l = _leaf(rng.uniform(-1.0, 1.0, size=(4, 4)))
    w_loss = rng.uniform(0.2, 2.0, size=4)
    w_loss[rng.integers(4)] = 0.0
    infonce_cfg = LossConfig(tau_global=float(rng.uniform(0.2, 1.0)),
                             tau_local=float(rng.uniform(0.2, 1.0)),
                             weight_global_i2t=w_loss[0], weight_global_t2i=w_loss[1],
                             weight_local_i2t=w_loss[2], weight_local_t2i=w_loss[3])

    # the fused encoders on a ragged batch of 3 studies, read out through their
    # local rows alone, their global rows alone (the other output's gradient
    # is None) and both; a readout of the local rows alone reaches no global
    # projection, so those are left out of its leaves
    enc = EncoderParams.initialize(dim=D, vocab_size=T, patch_pool=2, rng=rng,
                                   use_positions=bool(rng.integers(2)))
    enc_patches = [rng.uniform(size=(n, 4)) for n in (R, 1, 3)]
    enc_seqs = [TokenSequence(rng.integers(0, T, size=n), vocab_size=T) for n in (2, T, 1)]
    w_glob = rng.normal(size=(3, D))
    encoder_checks = []
    for encode, batch, rows, leaves in (
            (encode_image_patches, enc_patches, R + 4,
             [enc.patch_proj, enc.patch_bias, enc.global_proj_image]),
            (encode_text_toy, enc_seqs, T + 3, [enc.token_table, enc.global_proj_text])):
        w_loc = rng.normal(size=(rows, D))

        def local_only(encode=encode, batch=batch, w_loc=w_loc):
            return ws(encode(batch, enc).local, w_loc)

        def global_only(encode=encode, batch=batch):
            return ws(encode(batch, enc).global_feat, w_glob)

        def both(encode=encode, batch=batch, w_loc=w_loc):
            out = encode(batch, enc)
            return ref.add(ws(out.local, w_loc), ws(out.global_feat, w_glob))

        encoder_checks += [(local_only, leaves[:-1]), (global_only, leaves), (both, leaves)]

    checks = [
        *encoder_checks,
        (lambda: ws(ref.matmul(x, y), w_tr), [x, y]),
        (lambda: ws(ref.transpose(x), w_dt), [x]),
        (lambda: ws(ref.softmax_rows(x, 4.0), w_td), [x]),
        (lambda: ws(ref.l2_normalize_rows(x), w_td), [x]),
        (lambda: ws(ref.logsumexp_rows(x), w_t), [x]),
        (lambda: ref.logsumexp_rows(v), [v]),
        (lambda: ws(ref.add(x, x2), w_td), [x, x2]),
        (lambda: ws(ref.add(x, rowvec), w_td), [x, rowvec]),
        (lambda: ws(ref.add(x, scal), w_td), [x, scal]),
        (lambda: ws(ref.mul(x, x2), w_td), [x, x2]),
        (lambda: ws(ref.mul(x, rowvec), w_td), [x, rowvec]),
        (lambda: ws(ref.mul(x, scal), w_td), [x, scal]),
        (lambda: ws(ref.scale(x, -1.7), w_td), [x]),
        (lambda: ws(ref.row_gather(x, ids), w_gd), [x]),
        (lambda: ref.tensor_sum(ref.mul(x, ref.constant(w_td))), [x]),
        (lambda: ws(ref.mean_rows(x, [cut, T - cut]), w_seg), [x]),
        (lambda: ws(ref.rowwise_cosine(x, x2), w_t), [x, x2]),
        (lambda: ws(pairwise_scores(imgs, txts, loss_cfg)[0], w_34), g_leaves),
        (lambda: ws(pairwise_scores(imgs, txts, loss_cfg)[1], w_34), l_leaves),
        (lambda: contrastive_loss(s_g, s_l, infonce_cfg).total, [s_g, s_l]),
    ]
    worst = 0.0
    for f, leaves in checks:
        worst = max(worst, max_rel_error(f, leaves, coords_per_tensor=8, rng=rng))
    return worst


def _composed_graph_error(rng) -> float:
    """FD check through the batched encoders, as train calls them, and the full
    contrastive loss (B=3, T=5, R=4, D=8)."""
    B, T, R, D, V = 3, 5, 4, 8, 12
    params = EncoderParams.initialize(dim=D, vocab_size=V, patch_pool=2, rng=rng)
    patches = [rng.uniform(0.0, 1.0, size=(R, 4)) for _ in range(B)]
    seqs = [TokenSequence([int(t) for t in rng.integers(0, V, size=T)],
                          vocab_size=V) for _ in range(B)]
    cfg = LossConfig()

    def f():
        imgs = encode_image_patches(patches, params)
        txts = encode_text_toy(seqs, params)
        return total_loss(imgs, txts, cfg).total

    return max_rel_error(f, list(params.parameters().values()),
                         coords_per_tensor=3, rng=rng)


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    instances = 100
    for _ in range(instances):
        worst = max(worst, _op_battery(rng))
        worst = max(worst, _composed_graph_error(rng))
    elapsed = time.perf_counter() - started
    assert worst < 1e-4, f"worst FD relative error {worst:.3e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"criterion 1 (gradient suite): PASS, worst rel err {worst:.2e} "
          f"over {instances} instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: contrastive-loss anchors and attention normalization
# ---------------------------------------------------------------------------


def test_criterion_2_loss_anchors():
    cfg = LossConfig(tau_global=0.1, tau_local=0.1)
    for b in (2, 4, 16):
        equal = ref.constant(np.full((b, b), 0.37))
        terms = contrastive_loss(equal, equal, cfg)
        for direction in ("global_i2t", "global_t2i", "local_i2t", "local_t2i"):
            loss = getattr(terms, direction)
            assert abs(loss - np.log(b)) < 1e-10, (b, direction)
    single = ref.constant(np.array([[0.8]]))
    assert abs(contrastive_loss(single, single, cfg).total.item()) < 1e-12

    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(1000):
        t, r = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        regions, words = rng.normal(size=(r, 6)), rng.normal(size=(t, 6))
        regions /= np.linalg.norm(regions, axis=1, keepdims=True)
        words /= np.linalg.norm(words, axis=1, keepdims=True)
        al = align(regions[None], np.ascontiguousarray(words.T),
                   np.linalg.norm(words, axis=1), np.array([t]),
                   lambda1=4.0, lambda2=5.0)
        sums = al.weights.sum(axis=1)  # (I, R, N): regions on axis 1
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    assert worst < 1e-9, f"attention row sums off by {worst:.2e}"
    print(f"criterion 2 (loss anchors): PASS, ln B within 1e-10, "
          f"row sums within {worst:.1e}")


# ---------------------------------------------------------------------------
# Criterion 3: AUC equals the O(N^2) pairwise oracle; exact symmetry
# ---------------------------------------------------------------------------


def _pairwise_auc(scores, labels) -> float:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
    return wins / (len(pos) * len(neg))


def test_criterion_3_auc_oracle_and_symmetry():
    rng = np.random.default_rng(33)
    worst = 0.0
    for case in range(500):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        while labels.min() == labels.max():
            labels = rng.integers(0, 2, size=n)
        if case % 2 == 0:
            scores = rng.integers(0, 4, size=n) / 3.0  # heavy ties
        else:
            scores = rng.normal(size=n)
        auc = roc_auc(scores, labels).auc
        worst = max(worst, abs(auc - _pairwise_auc(scores, labels)))
        assert roc_auc(scores, labels).auc + roc_auc(-scores, labels).auc == 1.0
    assert worst <= 1e-12, f"oracle mismatch {worst:.2e}"
    print(f"criterion 3 (AUC oracle): PASS, max |diff| {worst:.1e}, "
          "symmetry exact on 500 cases")


# ---------------------------------------------------------------------------
# Criterion 4: published per-pathology rows average as reported
# ---------------------------------------------------------------------------


def test_criterion_4_reported_row_averages():
    mean_a, _ = aggregate_auc([0.685, 0.628, 0.694, 0.754, 0.717])
    mean_b, _ = aggregate_auc([0.719, 0.587, 0.700, 0.784, 0.694])
    assert round(mean_a, 3) == 0.696
    assert round(mean_b, 3) == 0.697
    print("criterion 4 (row averages): PASS, 0.696 and 0.697 at 3 decimals")


# ---------------------------------------------------------------------------
# Criterion 5: 3,279-record frontal manifest splits into 2,552 / 727
# ---------------------------------------------------------------------------


def test_criterion_5_split_fidelity(tmp_path):
    records = [StudyRecord(study_id=f"study-{i:05d}", view="frontal",
                           report_text=f"report {i}.") for i in range(3279)]
    manifest = tmp_path / "frontal.jsonl"
    write_manifest(records, manifest)

    dirs = [tmp_path / "s1", tmp_path / "s2"]
    for d in dirs:
        _cli("split", "--manifest", manifest, "--sizes", "train=2552,test=727",
             "--seed", 13, "--out-dir", d)
    train = read_manifest(dirs[0] / "train.jsonl")
    test = read_manifest(dirs[0] / "test.jsonl")
    assert len(train) == 2552 and len(test) == 727
    train_ids = {r.study_id for r in train}
    test_ids = {r.study_id for r in test}
    assert not train_ids & test_ids
    assert len(train_ids | test_ids) == 3279
    for name in ("split.json", "train.jsonl", "test.jsonl"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert runreport_fingerprint(dirs[0] / "run_report_split.json") == \
        runreport_fingerprint(dirs[1] / "run_report_split.json")
    print("criterion 5 (split fidelity): PASS, 2552/727 disjoint, "
          "rerun byte-identical")


# ---------------------------------------------------------------------------
# Criterion 6: golden labeling corpus, 100% agreement
# ---------------------------------------------------------------------------


def test_criterion_6_labeler_golden_corpus():
    assert len(GOLDEN) == 30
    lex = default_lexicon()
    mismatches = [(text, expected, label_report(text, lex).values)
                  for text, expected in GOLDEN
                  if label_report(text, lex).values != tuple(expected)]
    agreement = 1.0 - len(mismatches) / len(GOLDEN)
    assert agreement == 1.0, f"disagreements: {mismatches[:3]}"
    print("criterion 6 (golden corpus): PASS, 30/30 agreement")


# ---------------------------------------------------------------------------
# Criteria 7 and 8: end-to-end synthetic experiment, twice, bit-identical
# ---------------------------------------------------------------------------

E2E_SEED = 7


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Run the full pipeline twice into independent directories."""
    root = tmp_path_factory.mktemp("e2e")
    runs = {}
    for tag in ("a", "b"):
        base = root / tag
        data, run_d = base / "data", base / "run"
        zs, zse = base / "zs", base / "zs_eval"
        pr, pre = base / "probe", base / "probe_eval"
        started = time.perf_counter()
        _cli("synth", "--seed", E2E_SEED, "--out-dir", data)
        _cli("train", "--seed", E2E_SEED, "--manifest", data / "train.jsonl",
             "--out-dir", run_d)
        _cli("zeroshot", "--checkpoint", run_d / "checkpoint.bin",
             "--manifest", data / "heldout.jsonl", "--out-dir", zs)
        _cli("eval", "--scores", zs / "zeroshot_scores.csv",
             "--labels", data / "heldout.jsonl", "--out-dir", zse)
        _cli("probe", "--checkpoint", run_d / "checkpoint.bin",
             "--manifest", data / "train.jsonl",
             "--score-manifest", data / "heldout.jsonl", "--out-dir", pr)
        _cli("eval", "--scores", pr / "probe_scores.csv",
             "--labels", data / "heldout.jsonl", "--out-dir", pre)
        elapsed = time.perf_counter() - started
        runs[tag] = {"base": base, "data": data, "run": run_d, "zs": zs,
                     "zs_eval": zse, "probe": pr, "probe_eval": pre,
                     "elapsed": elapsed}
    return runs


def test_criterion_7_end_to_end_synthetic(e2e):
    a = e2e["a"]
    started = time.perf_counter()

    zs_report = _report(a["zs_eval"], "eval")
    per_class = [zs_report["auc"][name] for name in PATHOLOGIES]
    assert all(v is not None and v >= 0.95 for v in per_class), per_class

    probe_report = _report(a["probe_eval"], "eval")
    assert probe_report["auc_mean"] >= 0.95, probe_report["auc_mean"]

    ckpt = load_checkpoint(a["run"] / "checkpoint.bin")
    held = read_manifest(a["data"] / "heldout.jsonl")
    _attach_images(held, a["data"] / "heldout.jsonl", ckpt.config.region_grid)
    imgs = image_features(held, ckpt)
    top1 = retrieval_top1(mixed_scores(imgs, [r.report_text for r in held], ckpt))
    assert top1["image_to_text"] >= 0.80 and top1["text_to_image"] >= 0.80, top1

    total = a["elapsed"] + (time.perf_counter() - started)
    assert total < 300.0, f"end-to-end took {total:.0f}s"
    print(f"criterion 7 (end-to-end): PASS, zero-shot min AUC "
          f"{min(per_class):.3f}, probe mean {probe_report['auc_mean']:.3f}, "
          f"retrieval {top1['image_to_text']:.3f}/{top1['text_to_image']:.3f}, "
          f"{total:.0f}s")


def test_criterion_8_determinism(e2e, tmp_path):
    a, b = e2e["a"], e2e["b"]
    paired_files = [
        ("data", "train.jsonl"),
        ("data", "heldout.jsonl"),
        ("run", "checkpoint.bin"),
        ("run", "train_log.jsonl"),
        ("zs", "zeroshot_scores.csv"),
        ("probe", "probe.json"),
        ("probe", "probe_scores.csv"),
    ]
    for part, name in paired_files:
        assert (a[part] / name).read_bytes() == (b[part] / name).read_bytes(), \
            f"{part}/{name} differs between reruns"
    reports = [
        ("data", "synth"), ("run", "train"), ("zs", "zeroshot"),
        ("zs_eval", "eval"), ("probe", "probe"), ("probe_eval", "eval"),
    ]
    for part, cmd in reports:
        fa = runreport_fingerprint(a[part] / f"run_report_{cmd}.json")
        fb = runreport_fingerprint(b[part] / f"run_report_{cmd}.json")
        assert fa == fb, f"{part} run report differs between reruns"
        ra, rb = _report(a[part], cmd), _report(b[part], cmd)
        assert ra["content_hash"] == rb["content_hash"]

    # synthetic images byte-identical via the synth content hash; the
    # labeling step (criterion 6 pipeline) is rerun here through the CLI
    texts = [text for text, _ in GOLDEN]
    records = [StudyRecord(study_id=f"g{i:02d}", report_text=t)
               for i, t in enumerate(texts)]
    write_manifest(records, tmp_path / "golden.jsonl")
    for d in ("l1", "l2"):
        _cli("label", "--manifest", tmp_path / "golden.jsonl",
             "--out-dir", tmp_path / d)
    assert (tmp_path / "l1" / "labeled.jsonl").read_bytes() == \
        (tmp_path / "l2" / "labeled.jsonl").read_bytes()
    print("criterion 8 (determinism): PASS, manifests, checkpoints, scores, "
          "and run reports bit-identical across reruns")
