import ast
import inspect
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glre import numerics
from glre.errors import (
    DegenerateRowError,
    NonScalarLossError,
    ParameterError,
    ShapeError,
    TapeStateError,
)
from glre.numerics import GradTape, Tensor, backward

from gradcheck import max_rel_error
from reference_ops import (
    add,
    constant,
    l2_normalize_rows,
    logsumexp_rows,
    matmul,
    mean_rows,
    mul,
    row_gather,
    rowwise_cosine,
    scale,
    softmax_rows,
    tensor_sum,
    transpose,
)


def test_matmul_identity():
    a = Tensor([[2.0, 3.0], [4.0, 5.0]])
    out = matmul(constant(np.eye(2)), a)
    np.testing.assert_array_equal(out.numpy(), a.numpy())


def test_matmul_1x1():
    out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.numpy()[0, 0] == 6.0


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = 0.0
            for k in range(4):
                acc += a[i, k] * b[k, j]
            expected[i, j] = acc
    out = matmul(Tensor(a), Tensor(b)).numpy()
    assert np.max(np.abs(out - expected)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_associativity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = Tensor(rng.normal(size=(3, 5)))
        b = Tensor(rng.normal(size=(5, 4)))
        c = Tensor(rng.normal(size=(4, 2)))
        left = matmul(matmul(a, b), c).numpy()
        right = matmul(a, matmul(b, c)).numpy()
        assert np.max(np.abs(left - right)) < 1e-9


def test_softmax_equal_values_uniform():
    x = Tensor(np.full((3, 5), 2.7))
    for s in (0.5, 1.0, 50.0):
        out = softmax_rows(x, s).numpy()
        np.testing.assert_allclose(out, 1.0 / 5.0, atol=1e-15)


def test_softmax_single_column():
    out = softmax_rows(Tensor([[3.0], [-1.0]]), 2.0).numpy()
    np.testing.assert_array_equal(out, [[1.0], [1.0]])


def test_softmax_closed_form_row():
    out = softmax_rows(Tensor([[0.0, math.log(2.0)]]), 1.0).numpy()
    np.testing.assert_allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)


def test_softmax_rejects_nonpositive_scale():
    for s in (0.0, -1.0):
        with pytest.raises(ParameterError):
            softmax_rows(Tensor([[1.0, 2.0]]), s)


def test_softmax_survives_extreme_scale():
    # 1/0.01 style sharpening must not overflow thanks to max subtraction.
    out = softmax_rows(Tensor([[0.0, 0.5, 1.0]]), 100.0).numpy()
    assert np.all(np.isfinite(out))
    assert abs(out.sum() - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-30, 30), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    ),
    st.floats(0.01, 20.0),
    st.floats(-10.0, 10.0),
)
def test_softmax_rows_sum_to_one_and_shift_invariant(rows, s, shift):
    x = np.array(rows)
    out = softmax_rows(Tensor(x), s).numpy()
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    shifted = softmax_rows(Tensor(x + shift), s).numpy()
    np.testing.assert_allclose(out, shifted, atol=1e-9)


def test_l2_normalize_unit_row_unchanged():
    v = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(l2_normalize_rows(Tensor(v)).numpy(), v, atol=1e-15)


def test_l2_normalize_345():
    out = l2_normalize_rows(Tensor([[3.0, 4.0]])).numpy()
    np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)


def test_l2_normalize_zero_row_errors_with_index():
    with pytest.raises(DegenerateRowError) as e:
        l2_normalize_rows(Tensor([[1.0, 1.0], [0.0, 0.0]]))
    assert e.value.row == 1
    # several degenerate rows: the first one is reported, with its norm
    with pytest.raises(DegenerateRowError) as e:
        l2_normalize_rows(Tensor([[1.0, 1.0], [0.0, 1e-13], [0.0, 0.0], [2.0, 0.0]]))
    assert (e.value.row, e.value.norm) == (1, 1e-13)


def test_l2_normalize_rejects_non_2d():
    for bad in (Tensor([3.0, 4.0]), Tensor(np.ones((1, 2, 2)))):
        with pytest.raises(ShapeError):
            l2_normalize_rows(bad)


def test_l2_normalize_idempotent():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6, 4)))
    once = l2_normalize_rows(x)
    twice = l2_normalize_rows(once)
    assert np.max(np.abs(once.numpy() - twice.numpy())) < 1e-10


def test_logsumexp_matches_direct_formula():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6)) * 3
    out = logsumexp_rows(Tensor(x)).numpy()
    expected = np.log(np.exp(x).sum(axis=1))
    np.testing.assert_allclose(out, expected, atol=1e-12)
    # 1-D input collapses to a scalar
    v = logsumexp_rows(Tensor(x[0]))
    assert v.shape == ()
    assert abs(v.item() - expected[0]) < 1e-12


def test_row_gather_repeated_rows_accumulate_gradient():
    table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    with GradTape() as tape:
        picked = row_gather(table, [1, 1, 3])
        loss = tensor_sum(picked)
    backward(loss, tape)
    expected = np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(table.grad, expected)


def test_row_gather_gradient_is_bitwise_np_add_at():
    # every bit, signed zeros included, must be those of np.add.at's in-order
    # accumulation, so the rows mix magnitudes whose sum depends on the order
    # of addition
    rng = np.random.default_rng(40)
    for n_ids, rows in ((1, 1), (7, 3), (60, 5), (300, 54), (0, 4)):
        ids = rng.integers(0, rows, size=n_ids)
        g = rng.normal(size=(n_ids, 6)) * 10.0 ** rng.integers(-8, 9, size=(n_ids, 6))
        g[rng.random(size=g.shape) < 0.1] = -0.0
        table = Tensor(np.zeros((rows, 6)), requires_grad=True)
        with GradTape() as tape:
            loss = tensor_sum(mul(row_gather(table, ids), constant(g)))
        backward(loss, tape)
        want = np.zeros((rows, 6))
        np.add.at(want, ids, g)
        assert table.grad.tobytes() == want.tobytes()


def test_row_gather_out_of_range():
    with pytest.raises(IndexError):
        row_gather(Tensor(np.zeros((2, 2))), [0, 2])


def test_backward_of_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with GradTape() as tape:
        loss = tensor_sum(x)
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_independent_tensor_grad_stays_none():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0], requires_grad=True)
    with GradTape() as tape:
        _ = scale(x, 2.0)  # on the tape, but not feeding the loss
        loss = tensor_sum(y)
    backward(loss, tape)
    assert x.grad is None
    np.testing.assert_array_equal(y.grad, np.ones(2))


def test_backward_ignores_untracked_tensors():
    x = Tensor([1.0, 2.0], requires_grad=False)
    y = Tensor([3.0, 4.0], requires_grad=True)
    with GradTape() as tape:
        loss = tensor_sum(add(x, y))
    backward(loss, tape)
    assert x.grad is None
    np.testing.assert_array_equal(y.grad, np.ones(2))


def test_backward_accumulates_across_multiple_uses():
    x = Tensor([2.0, 3.0], requires_grad=True)
    with GradTape() as tape:
        loss = tensor_sum(add(x, x))
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_a_second_backward_adds_into_the_existing_grad_in_place():
    # the first sweep gives x a new .grad; later ones add into that array, and into
    # a view of a larger vector, as EncoderParams gives each parameter, alike
    x = Tensor([2.0, 3.0], requires_grad=True)
    vector = np.zeros(4)
    y = Tensor([1.0, 5.0], requires_grad=True)
    y.grad = vector[1:3]
    grads = []
    for _ in range(2):
        with GradTape() as tape:
            loss = tensor_sum(add(add(x, x), y))
        backward(loss, tape)
        grads.append(x.grad)
    assert grads[0] is grads[1]
    np.testing.assert_array_equal(x.grad, [4.0, 4.0])
    assert y.grad.base is vector
    np.testing.assert_array_equal(vector, [0.0, 2.0, 2.0, 0.0])


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        y = scale(x, 2.0)
    with pytest.raises(NonScalarLossError):
        backward(y, tape)


def test_backward_twice_without_reset_errors():
    x = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        loss = tensor_sum(x)
    backward(loss, tape)
    with pytest.raises(TapeStateError):
        backward(loss, tape)


def test_composite_loss_gradient_matches_finite_differences():
    # matmul -> normalize -> softmax -> weighted sum, random 4x3 input.
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = constant(rng.normal(size=(3, 3)))
    weights = constant(rng.normal(size=(4, 3)))

    def f():
        h = matmul(x, w)
        h = l2_normalize_rows(h)
        h = softmax_rows(h, 3.0)
        return tensor_sum(mul(h, weights))

    assert max_rel_error(f, [x]) < 1e-4


def test_rowwise_cosine_values_and_guard():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    b = np.array([[2.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    out = rowwise_cosine(Tensor(a), Tensor(b)).numpy()
    np.testing.assert_allclose(out, [1.0, -1.0, 0.0], atol=1e-15)


def test_rowwise_cosine_guarded_row_has_zero_gradient():
    a = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]), requires_grad=True)
    b = constant([[0.5, 0.5], [1.0, 1.0]])
    with GradTape() as tape:
        loss = tensor_sum(rowwise_cosine(a, b))
    backward(loss, tape)
    np.testing.assert_array_equal(a.grad[1], [0.0, 0.0])
    assert np.any(a.grad[0] != 0.0)


def _softmax_cosine_grads(seed, between=None):
    """Gradients of a small softmax/cosine graph recorded on a fresh tape.

    `between` runs after each recorded op, so a caller can interleave
    another thread's recording with this one.
    """
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    step = between or (lambda: None)
    with GradTape() as tape:
        s = softmax_rows(a, 2.0)
        step()
        c = rowwise_cosine(s, b)
        step()
        loss = tensor_sum(c)
        step()
    backward(loss, tape)
    return len(tape), a.grad, b.grad


def test_tapes_in_two_threads_record_independently():
    expected = {seed: _softmax_cosine_grads(seed) for seed in (1, 2)}
    barrier = threading.Barrier(2)
    results, errors = {}, []

    def worker(seed):
        try:
            results[seed] = _softmax_cosine_grads(seed, lambda: barrier.wait(timeout=10))
        except Exception as exc:  # surfaced in the main thread below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for seed, (n_records, ga, gb) in expected.items():
        got = results[seed]
        assert got[0] == n_records == 3
        np.testing.assert_array_equal(got[1], ga)
        np.testing.assert_array_equal(got[2], gb)


def test_reductions_shapes_and_values():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert tensor_sum(x).item() == 10.0
    np.testing.assert_array_equal(mean_rows(x, [2]).numpy(), [[2.0, 3.0]])
    np.testing.assert_array_equal(mean_rows(x, [1, 1]).numpy(), x.numpy())
    for lengths in ([3], [2, 0], [], [[2]]):
        with pytest.raises(ShapeError):
            mean_rows(x, lengths)


def test_tensor_rejects_nonfinite_values():
    with pytest.raises(ValueError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        Tensor([float("inf")])


def test_add_broadcast_rules():
    m = Tensor(np.ones((2, 3)))
    v = Tensor([1.0, 2.0, 3.0])
    out = add(m, v).numpy()
    np.testing.assert_array_equal(out, [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]])
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    # column-style broadcast is out of scope
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))


def test_row_vector_broadcast_gradient_sums_over_rows():
    bias = Tensor([1.0, -1.0], requires_grad=True)
    x = constant(np.ones((3, 2)))
    with gradtape_ctx() as tape:
        loss = tensor_sum(add(x, bias))
    backward(loss, tape)
    np.testing.assert_array_equal(bias.grad, [3.0, 3.0])


def gradtape_ctx():
    return GradTape()


@pytest.mark.parametrize("op_name", [
    "matmul", "transpose", "softmax", "l2norm", "logsumexp", "add", "mul",
    "scale", "gather", "sum", "mean_rows", "cosine",
])
def test_per_op_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(hash(op_name) % (2**32))
    for _ in range(10):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = constant(rng.normal(size=(3, 4)))

        w32 = constant(rng.normal(size=(3, 2)))
        w43 = constant(rng.normal(size=(4, 3)))
        w44 = constant(rng.normal(size=(4, 4)))
        v3 = constant(rng.normal(size=3))
        w24 = constant(rng.normal(size=(2, 4)))

        if op_name == "matmul":
            f = lambda: tensor_sum(mul(matmul(a, b), w32))
            inputs = [a, b]
        elif op_name == "transpose":
            f = lambda: tensor_sum(mul(transpose(a), w43))
            inputs = [a]
        elif op_name == "softmax":
            f = lambda: tensor_sum(mul(softmax_rows(a, 2.5), w))
            inputs = [a]
        elif op_name == "l2norm":
            f = lambda: tensor_sum(mul(l2_normalize_rows(a), w))
            inputs = [a]
        elif op_name == "logsumexp":
            f = lambda: tensor_sum(mul(logsumexp_rows(a), v3))
            inputs = [a]
        elif op_name == "add":
            f = lambda: tensor_sum(mul(add(a, c), w))
            inputs = [a, c]
        elif op_name == "mul":
            f = lambda: tensor_sum(mul(mul(a, c), w))
            inputs = [a, c]
        elif op_name == "scale":
            f = lambda: tensor_sum(mul(scale(a, -1.7), w))
            inputs = [a]
        elif op_name == "gather":
            f = lambda: tensor_sum(mul(row_gather(a, [0, 2, 2, 1]), w44))
            inputs = [a]
        elif op_name == "sum":
            f = lambda: tensor_sum(a)
            inputs = [a]
        elif op_name == "mean_rows":
            f = lambda: tensor_sum(mul(mean_rows(a, [2, 1]), w24))
            inputs = [a]
        else:  # cosine
            f = lambda: tensor_sum(mul(rowwise_cosine(a, c), v3))
            inputs = [a, c]

        assert max_rel_error(f, inputs) < 1e-4


def _numerics_calls(module: Path) -> set[str]:
    """Names of numerics functions that a module calls, through the module
    alias (``nm.matmul(...)``) or a name imported from it."""
    tree = ast.parse(module.read_text())
    aliases, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("numerics", "glre.numerics"):
            imported.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom):
            aliases.update(a.asname or a.name for a in node.names if a.name == "numerics")
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in aliases:
            called.add(f.attr)
        elif isinstance(f, ast.Name) and f.id in imported:
            called.add(imported[f.id])
    return called


def test_every_public_numerics_function_has_a_caller_in_src():
    # an op only tests use belongs in tests/reference_ops.py
    public = {name for name, fn in inspect.getmembers(numerics, inspect.isfunction)
              if not name.startswith("_") and fn.__module__ == numerics.__name__}
    package = Path(numerics.__file__).parent
    called = set()
    for module in package.glob("*.py"):
        if module.name != "numerics.py":
            called |= _numerics_calls(module)
    assert public, "no public functions found in glre.numerics"
    assert public <= called, f"no caller in src/glre: {sorted(public - called)}"
