"""Adam oracle, training determinism, and checkpoint round-trip tests."""

import json
import math
import struct

import numpy as np
import pytest

from glre.datapipe import SynthConfig, synth_paired_dataset
from glre.encoders import EncoderParams
from glre.errors import (
    ConsistencyError,
    FormatError,
    InsufficientDataError,
    TrainingDivergenceError,
    VersionError,
)
from glre import files, trainer
from glre.files import step_log
from glre.trainer import (
    AdamState,
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    train,
)
from test_files import FailingWrites


def small_config(**kw):
    defaults = dict(batch_size=8, steps=30, dim=16, patch_pool=2,
                    region_grid=(3, 3), seed=4)
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_dataset(n_train=48, seed=5):
    cfg = SynthConfig(n_train=n_train, n_heldout=0, image_size=12)
    train_recs, _ = synth_paired_dataset(cfg, seed=seed)
    return train_recs


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def make_params(seed=0, dim=4, vocab=6):
    return EncoderParams.initialize(dim, vocab, patch_pool=2,
                                    rng=np.random.default_rng(seed))


def test_zero_gradients_leave_parameters_unchanged():
    params = make_params()
    state = AdamState.for_params(params)
    cfg = TrainConfig(steps=1)
    before = {k: p.data.copy() for k, p in params.parameters().items()}
    params.grad.fill(0.0)
    optimizer_step(params, state, cfg)
    for k, p in params.parameters().items():
        np.testing.assert_array_equal(p.data, before[k])


def test_moments_decay_after_activity():
    params = make_params()
    state = AdamState.for_params(params)
    cfg = TrainConfig(steps=1)
    params.grad.fill(1.0)
    optimizer_step(params, state, cfg)
    patch_proj = slice(0, params.patch_proj.size)  # the first tensor of the flat layout
    m_after_first = state.m[patch_proj].copy()
    params.grad.fill(0.0)
    optimizer_step(params, state, cfg)
    np.testing.assert_allclose(state.m[patch_proj], cfg.beta1 * m_after_first)


def test_adam_quadratic_matches_independent_recurrence():
    # minimize f(x) = x^2 from x0 = 1 with lr 0.1
    # as the first entry of a real parameter vector; every other entry gets a zero gradient
    cfg = TrainConfig(learning_rate=0.1, steps=1)
    start = np.zeros(14)  # the parameter vector at dim 2, vocabulary 1, patch_pool 1
    start[0] = 1.0
    params = EncoderParams(start, dim=2, vocab_size=1, patch_pool=1)
    x = params.patch_proj  # the tensor object held here sees every update
    state = AdamState.for_params(params)

    # independent scalar recurrence
    xs, ms, vs = 1.0, 0.0, 0.0
    for t in range(1, 201):
        x.grad[0, 0] = 2.0 * x.data[0, 0]
        optimizer_step(params, state, cfg)

        gs = 2.0 * xs
        ms = cfg.beta1 * ms + (1 - cfg.beta1) * gs
        vs = cfg.beta2 * vs + (1 - cfg.beta2) * gs * gs
        m_hat = ms / (1 - cfg.beta1 ** t)
        v_hat = vs / (1 - cfg.beta2 ** t)
        xs = xs - cfg.learning_rate * m_hat / (math.sqrt(v_hat) + cfg.epsilon)
        assert x.data[0, 0] == pytest.approx(xs, abs=1e-14)
        assert np.array_equal(params.flat[1:], start[1:])
    assert abs(x.data[0, 0]) < 0.05


def test_flat_adam_matches_per_parameter_loop():
    # the per-tensor update that the flat vector replaced, kept as the oracle
    params = make_params(seed=3)
    ref = {k: p.data.copy() for k, p in params.parameters().items()}
    ref_m = {k: np.zeros(p.shape) for k, p in ref.items()}
    ref_v = {k: np.zeros(p.shape) for k, p in ref.items()}
    state = AdamState.for_params(params)
    cfg = TrainConfig(learning_rate=3e-2, steps=1)
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    rng = np.random.default_rng(11)
    for t in range(1, 7):
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape)
                 for k, p in ref.items()}
        grads["global_proj_text" if t % 2 else "patch_bias"] = None
        for k, p in params.parameters().items():
            p.grad[...] = 0.0 if grads[k] is None else grads[k]
        optimizer_step(params, state, cfg)
        for k in ref:
            g = np.zeros(ref[k].shape) if grads[k] is None else grads[k]
            ref_m[k] = b1 * ref_m[k] + (1 - b1) * g
            ref_v[k] = b2 * ref_v[k] + (1 - b2) * g * g
            m_hat = ref_m[k] / (1 - b1 ** t)
            v_hat = ref_v[k] / (1 - b2 ** t)
            ref[k] = ref[k] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        assert state.t == t
        for k, p in params.parameters().items():
            assert np.array_equal(p.data, ref[k]) and not p.data.flags.writeable
        assert np.array_equal(state.m, np.concatenate([ref_m[k].ravel() for k in ref]))
        assert np.array_equal(state.v, np.concatenate([ref_v[k].ravel() for k in ref]))


def test_nan_gradient_names_parameter():
    params = make_params()
    state = AdamState.for_params(params)
    grads = {k: np.ones(p.shape) for k, p in params.parameters().items()}
    grads["token_table"][0, 0] = np.nan
    grads["global_proj_text"][1, 1] = np.inf
    before = {k: p.data.copy() for k, p in params.parameters().items()}
    for k, p in params.parameters().items():
        p.grad[...] = grads[k]
    with pytest.raises(TrainingDivergenceError) as exc:
        optimizer_step(params, state, TrainConfig())
    assert exc.value.param_name == "token_table"
    # nothing moves, not even the parameters ahead of the bad one
    assert state.t == 0 and not state.m.any() and not state.v.any()
    for k, p in params.parameters().items():
        np.testing.assert_array_equal(p.data, before[k])


def test_two_runs_same_seed_bit_identical_params():
    records = small_dataset()
    cfg = small_config(steps=50)
    a = train(records, cfg)
    b = train(records, cfg)
    for k in a.params.parameters():
        np.testing.assert_array_equal(a.params.parameters()[k].data,
                                      b.params.parameters()[k].data)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)


def test_b16_step_records_5_tape_ops(monkeypatch):
    # one image batch, one text batch, 2 score matrices and 1 loss; each
    # encoder runs once per step, whatever the batch size
    import glre.trainer as trainer_mod

    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name if name != "backward" else len(args[1]))
            return fn(*args)
        return wrapper

    for name in ("encode_image_patches", "encode_text_toy", "backward"):
        monkeypatch.setattr(trainer_mod, name, counting(name, getattr(trainer_mod, name)))
    train(small_dataset(n_train=32), small_config(batch_size=16, steps=2))
    assert calls == ["encode_image_patches", "encode_text_toy", 5] * 2


def test_a_train_step_gives_no_taped_output_a_grad(monkeypatch):
    # backward gives a new .grad to leaves only: when Adam runs, no output of
    # the step's records holds one, and each parameter's .grad is still its
    # view of params.grad
    tapes = []
    real_backward, real_step = trainer.backward, trainer.optimizer_step

    def backward(loss, tape):
        tapes.append(tape)
        real_backward(loss, tape)

    def step(params, state, config):
        assert all(out.grad is None for outs, _, _ in tapes[-1]._records for out in outs)
        assert all(np.shares_memory(t.grad, params.grad)
                   for t in params.parameters().values())
        real_step(params, state, config)

    monkeypatch.setattr(trainer, "backward", backward)
    monkeypatch.setattr(trainer, "optimizer_step", step)
    train(small_dataset(n_train=24), small_config(steps=2))
    assert [len(tape) for tape in tapes] == [5, 5]


def test_train_tokenizes_each_report_once(monkeypatch):
    # the emptiness check, the vocabulary and the token ids of a fresh run, and
    # the check and the ids of a resume, come from one token list per report
    from glre import datapipe

    records = small_dataset(n_train=24)
    real_tokenize, calls = datapipe.tokenize, []

    def counting(text):
        calls.append(text)
        return real_tokenize(text)

    for module in (datapipe, trainer):
        monkeypatch.setattr(module, "tokenize", counting)
    mid = train(records, small_config(steps=1))
    assert sorted(calls) == sorted(r.report_text for r in records)
    calls.clear()
    train(records, small_config(steps=2), resume_from=mid)
    assert sorted(calls) == sorted(r.report_text for r in records)


def test_zero_steps_returns_initialization():
    records = small_dataset()
    cfg = small_config(steps=0)
    ckpt = train(records, cfg)
    rng = np.random.default_rng(cfg.seed)
    fresh = EncoderParams.initialize(cfg.dim, len(ckpt.vocab),
                                     patch_pool=cfg.patch_pool, rng=rng,
                                     init_scale=cfg.init_scale)
    for k in fresh.parameters():
        np.testing.assert_array_equal(ckpt.params.parameters()[k].data,
                                      fresh.parameters()[k].data)


def test_dataset_too_small():
    records = small_dataset()[:1]
    with pytest.raises(InsufficientDataError):
        train(records, small_config())


def test_missing_report_rejected():
    records = small_dataset()
    records[3].report_text = "   "
    with pytest.raises(InsufficientDataError):
        train(records, small_config())


def test_same_seed_identical_log_files(tmp_path):
    records = small_dataset()
    cfg = small_config(steps=25)
    p1, p2 = tmp_path / "log1.jsonl", tmp_path / "log2.jsonl"
    train(records, cfg, on_step=step_log(p1))
    train(records, cfg, on_step=step_log(p2))
    assert p1.read_bytes() == p2.read_bytes()
    rows = [json.loads(line) for line in p1.read_text().splitlines()]
    assert [r["step"] for r in rows] == list(range(25))
    assert all(set(r) == {"step", "global_i2t", "global_t2i",
                          "local_i2t", "local_t2i", "total"} for r in rows)


def test_initial_loss_near_log_batch_size(tmp_path):
    # each component starts near ln(B): random init gives near-uniform
    # pairings, but unit-norm features keep a residual cosine spread of
    # order 1/sqrt(D) that the 1/tau=10 logit scale amplifies, so the
    # anchor is loose; the exact ln(B) identity is covered in the loss tests
    records = small_dataset()
    cfg = small_config(steps=1, batch_size=8)
    log = tmp_path / "log.jsonl"
    train(records, cfg, on_step=step_log(log))
    first = json.loads(log.read_text().splitlines()[0])
    for key in ("global_i2t", "global_t2i", "local_i2t", "local_t2i"):
        assert 0.0 < first[key] < math.log(8) + 2.5


def test_loss_moving_average_decreases(tmp_path):
    records = small_dataset(n_train=64)
    cfg = small_config(steps=120, batch_size=8, dim=24)
    log = tmp_path / "log.jsonl"
    train(records, cfg, on_step=step_log(log))
    totals = [json.loads(line)["total"] for line in log.read_text().splitlines()]
    window = 20
    averages = [np.mean(totals[i : i + window])
                for i in range(0, len(totals) - window + 1, window)]
    assert all(b < a for a, b in zip(averages, averages[1:]))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    records = small_dataset()
    ckpt = train(records, small_config(steps=10))
    p1, p2 = tmp_path / "a.ck", tmp_path / "b.ck"
    save_checkpoint(ckpt, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_round_trip_fields(tmp_path):
    records = small_dataset()
    cfg = small_config(steps=10)
    ckpt = train(records, cfg)
    path = tmp_path / "c.ck"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.step == 10
    assert back.config.hash() == cfg.hash()
    assert back.vocab.tokens == ckpt.vocab.tokens
    assert back.order == ckpt.order and back.pointer == ckpt.pointer
    assert back.rng_state == ckpt.rng_state
    assert back.adam.t == ckpt.adam.t
    for k in ckpt.params.parameters():
        np.testing.assert_array_equal(back.params.parameters()[k].data,
                                      ckpt.params.parameters()[k].data)


def test_checkpoint_payload_follows_header_arrays(tmp_path):
    # slice the payload by the header's own `arrays` list and match every
    # slice to the tensor or moment it names; a swap of m and v made in both
    # save and load would still round-trip, but not pass this
    ckpt = train(small_dataset(), small_config(steps=6))
    path = tmp_path / "l.ck"
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 9)
    header = json.loads(blob[13 : 13 + length])
    payload = np.frombuffer(blob[:-32], dtype="<f8", offset=13 + length)  # before the digest
    tensors = ckpt.params.parameters()
    offsets = np.cumsum([0] + [t.size for t in tensors.values()])
    moments = {"adam_m": ckpt.adam.m, "adam_v": ckpt.adam.v}
    expected = {f"param/{k}": t.data for k, t in tensors.items()}
    for kind, flat in moments.items():
        for k, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            expected[f"{kind}/{k}"] = flat[lo:hi].reshape(tensors[k].shape)
    assert [m["name"] for m in header["arrays"]] == list(expected)
    pos = 0
    for meta in header["arrays"]:
        size = math.prod(meta["shape"])
        piece = payload[pos : pos + size].reshape(meta["shape"])
        assert np.array_equal(piece, expected[meta["name"]]), meta["name"]
        pos += size
    assert pos == payload.size
    assert not np.array_equal(ckpt.adam.m, ckpt.adam.v)


@pytest.mark.parametrize("failure", ["mid_write", "at_rename"])
def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch, failure):
    # a resumed run saves over the checkpoint it started from; a save that
    # dies part-way must leave that file as it was and no temp file behind
    records = small_dataset()
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(train(records, small_config(steps=2)), path)
    before = path.read_bytes()
    later = train(records, small_config(steps=4))
    if failure == "mid_write":
        monkeypatch.setattr(files, "open", lambda name, mode: FailingWrites(
            open(name, mode), len(before) // 2), raising=False)
    else:
        def no_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(files.os, "replace", no_rename)
    with pytest.raises(OSError):
        save_checkpoint(later, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]


def test_truncated_checkpoint(tmp_path):
    records = small_dataset()
    ckpt = train(records, small_config(steps=2))
    path = tmp_path / "t.ck"
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_bad_magic_and_version(tmp_path):
    records = small_dataset()
    ckpt = train(records, small_config(steps=2))
    path = tmp_path / "v.ck"
    save_checkpoint(ckpt, path)
    blob = bytearray(path.read_bytes())
    bad_magic = tmp_path / "m.ck"
    bad_magic.write_bytes(b"NOPE!" + bytes(blob[5:]))
    with pytest.raises(FormatError):
        load_checkpoint(bad_magic)
    blob[5:9] = (99).to_bytes(4, "little")
    bad_version = tmp_path / "w.ck"
    bad_version.write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        load_checkpoint(bad_version)


def test_resume_reproduces_uninterrupted_run(tmp_path):
    records = small_dataset()
    full_cfg = small_config(steps=40)
    half_cfg = small_config(steps=20)

    log_full = tmp_path / "full.jsonl"
    full = train(records, full_cfg, on_step=step_log(log_full))

    log_resume = tmp_path / "resume.jsonl"
    half = train(records, half_cfg, on_step=step_log(log_resume))
    mid_path = tmp_path / "mid.ck"
    save_checkpoint(half, mid_path)
    resumed = train(records, full_cfg, on_step=step_log(log_resume),
                    resume_from=load_checkpoint(mid_path))

    for k in full.params.parameters():
        np.testing.assert_array_equal(full.params.parameters()[k].data,
                                      resumed.params.parameters()[k].data)
    assert log_full.read_bytes() == log_resume.read_bytes()

    p_full, p_resumed = tmp_path / "full.ck", tmp_path / "resumed.ck"
    save_checkpoint(full, p_full)
    save_checkpoint(resumed, p_resumed)
    assert p_full.read_bytes() == p_resumed.read_bytes()


def test_resume_leaves_its_start_checkpoint_as_it_was(tmp_path):
    records = small_dataset(n_train=24)
    full = train(records, small_config(steps=4))
    mid = train(records, small_config(steps=2))
    mid_path, ck_path = tmp_path / "mid.ck", tmp_path / "out.ck"
    save_checkpoint(mid, mid_path)
    save_checkpoint(full, ck_path)
    full_bytes = ck_path.read_bytes()

    first = train(records, small_config(steps=4), resume_from=mid)
    second = train(records, small_config(steps=4), resume_from=mid)
    for resumed in (first, second):
        save_checkpoint(resumed, ck_path)
        assert ck_path.read_bytes() == full_bytes
    save_checkpoint(mid, ck_path)
    assert ck_path.read_bytes() == mid_path.read_bytes()


def test_each_step_backpropagates_into_the_gradient_vector(monkeypatch):
    # every tensor's .grad is a view of params.grad when Adam reads it, a fresh run
    # and a resume alike; the resumed-from checkpoint's own vector stays all zeros
    records = small_dataset(n_train=24)
    real_step = trainer.optimizer_step
    seen, watched = [], []

    def step(params, state, config):
        assert all(np.shares_memory(t.grad, params.grad)
                   for t in params.parameters().values())
        assert not any(ckpt.params.grad.any() for ckpt in watched)
        seen.append(params.grad.copy())
        real_step(params, state, config)

    monkeypatch.setattr(trainer, "optimizer_step", step)
    mid = train(records, small_config(steps=2))
    watched.append(mid)
    resumed = train(records, small_config(steps=4), resume_from=mid)
    assert len(seen) == 4 and all(g.any() and np.isfinite(g).all() for g in seen)
    for ckpt in (mid, resumed):
        assert all(np.shares_memory(t.grad, ckpt.params.grad)
                   for t in ckpt.params.parameters().values())
    assert not mid.params.grad.any()
    assert not np.shares_memory(mid.params.grad, resumed.params.grad)


def test_resume_rejects_different_config(tmp_path):
    records = small_dataset()
    ckpt = train(records, small_config(steps=5))
    other = small_config(steps=10, learning_rate=5e-3)
    with pytest.raises(ConsistencyError):
        train(records, other, resume_from=ckpt)


def test_config_hash_ignores_steps_only():
    a = small_config(steps=10)
    b = small_config(steps=99)
    c = small_config(steps=10, dim=32)
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()
