import numpy as np
import pytest

from depthlab.autodiff import (
    Graph,
    NonDifferentiableError,
    NonFiniteError,
    ShapeError,
    _attention_weights,
    _vjp_layer_norm,
    backpropagate,
    evaluate,
    gradient_check,
)


def test_matmul_identity():
    g = Graph()
    eye = g.leaf(np.eye(2))
    x = g.leaf(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    out = g.matmul(eye, x)
    np.testing.assert_array_equal(out.data, x.data)


def test_softmax_symmetry():
    g = Graph()
    out = g.softmax(g.leaf(np.array([0.0, 0.0])))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_rows_sum_to_one():
    g = Graph()
    rng = np.random.default_rng(0)
    out = g.softmax(g.leaf(rng.normal(size=(5, 7)) * 10))
    assert np.all(out.data >= 0)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_layer_norm_hand_value():
    g = Graph()
    x = g.leaf(np.array([[1.0, 2.0, 3.0]]))
    gain = g.leaf(np.ones(3))
    bias = g.leaf(np.zeros(3))
    out = g.layer_norm(x, gain, bias, eps=0.0)
    np.testing.assert_allclose(out.data, [[-1.2247, 0.0, 1.2247]], atol=1e-4)


def test_shape_errors_name_op_and_dims():
    g = Graph()
    a = g.leaf(np.ones((2, 3)))
    b = g.leaf(np.ones((2, 3)))
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\)"):
        g.matmul(a, b)
    with pytest.raises(ShapeError, match="add"):
        g.add(a, g.leaf(np.ones((3, 2))))


def test_evaluate_replays_with_new_bindings():
    g = Graph()
    x = g.input("x", np.zeros((2, 2)))
    w = g.leaf(np.array([[2.0, 0.0], [0.0, 3.0]]))
    g.mark_output("y", g.matmul(x, w))
    out = evaluate(g, {"x": np.eye(2)})
    np.testing.assert_array_equal(out["y"], [[2.0, 0.0], [0.0, 3.0]])


def test_evaluate_deterministic_bit_identical():
    g = Graph()
    rng = np.random.default_rng(1)
    x = g.input("x", rng.normal(size=(3, 4)))
    w = g.leaf(rng.normal(size=(4, 4)))
    h = g.gelu(g.matmul(x, w))
    g.mark_output("out", g.softmax(h))
    binding = {"x": rng.normal(size=(3, 4))}
    first = evaluate(g, binding)["out"]
    second = evaluate(g, binding)["out"]
    assert np.array_equal(first, second)


def test_evaluate_requires_all_inputs():
    g = Graph()
    g.input("x", np.zeros(2))
    g.mark_output("out", g.scale(g.leaf(np.ones(2)), 2.0))
    with pytest.raises(ValueError, match="'x' not bound"):
        evaluate(g, {})


def test_backprop_sum_gives_ones():
    g = Graph()
    x = g.leaf(np.arange(6.0).reshape(2, 3), requires_grad=True)
    loss = g.reduce_sum(x)
    backpropagate(g, loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backprop_quadratic():
    g = Graph()
    x = g.leaf(np.array([1.0, 2.0]), requires_grad=True)
    loss = g.reduce_sum(g.multiply(x, x))
    backpropagate(g, loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backprop_fanout_accumulates():
    g = Graph()
    x = g.leaf(np.array([3.0]), requires_grad=True)
    y = g.add(x, x)
    loss = g.reduce_sum(y)
    backpropagate(g, loss)
    np.testing.assert_allclose(x.grad, [2.0])


def test_backprop_leaf_grads_do_not_share_memory():
    # `add` hands its incoming gradient to both inputs; each leaf still gets
    # an array of its own.
    g = Graph()
    a = g.leaf(np.array([1.0, 2.0]), requires_grad=True)
    b = g.leaf(np.array([3.0, 4.0]), requires_grad=True)
    backpropagate(g, g.reduce_sum(g.add(a, b)))
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])
    assert not np.shares_memory(a.grad, b.grad)


def test_backprop_loss_must_be_scalar():
    g = Graph()
    x = g.leaf(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backpropagate(g, g.multiply(x, x))


def test_argmax_on_grad_path_raises():
    g = Graph()
    x = g.leaf(np.array([[0.3, 0.7]]), requires_grad=True)
    picked = g.argmax(x, axis=1)
    loss = g.reduce_sum(picked)
    with pytest.raises(NonDifferentiableError, match="argmax"):
        backpropagate(g, loss)


def test_argmax_off_grad_path_is_fine():
    g = Graph()
    x = g.leaf(np.array([[0.3, 0.7]]), requires_grad=True)
    const = g.leaf(np.array([[1.0, 5.0]]))
    g.argmax(const, axis=1)  # not connected to the loss
    loss = g.reduce_sum(g.multiply(x, x))
    backpropagate(g, loss)
    assert x.grad is not None


def test_straight_through_passes_gradient():
    g = Graph()
    soft = g.leaf(np.array([0.2, 0.8]), requires_grad=True)
    hard = g.straight_through(soft, np.array([0.0, 1.0]))
    np.testing.assert_array_equal(hard.data, [0.0, 1.0])
    loss = g.reduce_sum(g.multiply(hard, g.leaf(np.array([3.0, 5.0]))))
    backpropagate(g, loss)
    np.testing.assert_allclose(soft.grad, [3.0, 5.0])


def _mlp_graph(seed=0):
    rng = np.random.default_rng(seed)
    g = Graph()
    x = g.leaf(rng.normal(size=(4, 5)))
    w1 = g.leaf(rng.normal(size=(5, 6)), requires_grad=True, name="w1")
    b1 = g.leaf(rng.normal(size=6), requires_grad=True, name="b1")
    w2 = g.leaf(rng.normal(size=(6, 3)), requires_grad=True, name="w2")
    b2 = g.leaf(rng.normal(size=3), requires_grad=True, name="b2")
    w3 = g.leaf(rng.normal(size=(3, 2)), requires_grad=True, name="w3")
    h = g.gelu(g.add_bias(g.matmul(x, w1), b1))
    h = g.gelu(g.add_bias(g.matmul(h, w2), b2))
    out = g.matmul(h, w3)
    loss = g.reduce_mean(g.multiply(out, out))
    g.mark_output("loss", loss)
    return g, loss


def test_three_layer_mlp_matches_finite_differences():
    g, loss = _mlp_graph()
    report = gradient_check(g, tolerance=1e-5)
    assert report.passed, report.max_rel_error


def test_linear_layer_gradient_check_tight():
    rng = np.random.default_rng(3)
    g = Graph()
    x = g.leaf(rng.normal(size=(3, 4)))
    w = g.leaf(rng.normal(size=(4, 2)), requires_grad=True, name="w")
    b = g.leaf(rng.normal(size=2), requires_grad=True, name="b")
    y = g.add_bias(g.matmul(x, w), b)
    g.mark_output("loss", g.reduce_sum(g.multiply(y, y)))
    report = gradient_check(g, tolerance=1e-6)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize(
    "build",
    [
        lambda g, x: g.softmax(x),
        lambda g, x: g.log_softmax(x),
        lambda g, x: g.gelu(x),
        lambda g, x: g.exponential(g.scale(x, 0.3)),
        lambda g, x: g.transpose(x),
        lambda g, x: g.reshape(x, (6, 2)),
        lambda g, x: g.slice(x, (np.s_[1:3], np.s_[0:2])),
        lambda g, x: g.concatenate([x, x], axis=1),
        lambda g, x: g.reduce_mean(x, axis=0),
        lambda g, x: g.reduce_sum(x, axis=1),
    ],
    ids=[
        "softmax",
        "log_softmax",
        "gelu",
        "exponential",
        "transpose",
        "reshape",
        "slice",
        "concatenate",
        "reduce_mean",
        "reduce_sum",
    ],
)
def test_per_op_gradients_match_finite_differences(build):
    rng = np.random.default_rng(11)
    g = Graph()
    x = g.leaf(rng.normal(size=(3, 4)), requires_grad=True, name="x")
    y = build(g, x)
    mixer = g.leaf(rng.normal(size=y.shape))
    g.mark_output("loss", g.reduce_sum(g.multiply(y, mixer)))
    report = gradient_check(g, tolerance=1e-6)
    assert report.passed, report.max_rel_error


def test_log_multiply_scale_rows_gradients():
    rng = np.random.default_rng(12)
    g = Graph()
    x = g.leaf(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True, name="x")
    s = g.leaf(rng.normal(size=3), requires_grad=True, name="s")
    y = g.scale_rows(g.log(x), s)
    mixer = g.leaf(rng.normal(size=(3, 4)))
    g.mark_output("loss", g.reduce_sum(g.multiply(y, mixer)))
    report = gradient_check(g, tolerance=1e-6)
    assert report.passed, report.max_rel_error


def test_layer_norm_gradients():
    rng = np.random.default_rng(13)
    g = Graph()
    x = g.leaf(rng.normal(size=(4, 6)), requires_grad=True, name="x")
    gain = g.leaf(rng.normal(size=6), requires_grad=True, name="gain")
    bias = g.leaf(rng.normal(size=6), requires_grad=True, name="bias")
    y = g.layer_norm(x, gain, bias, eps=1e-5)
    mixer = g.leaf(rng.normal(size=(4, 6)))
    g.mark_output("loss", g.reduce_sum(g.multiply(y, mixer)))
    report = gradient_check(g, tolerance=1e-5)
    assert report.passed, report.max_rel_error


def test_layer_norm_vjp_bit_identical_to_mean_formula():
    rng = np.random.default_rng(15)
    eps = 1e-5
    for shape in ((1, 64), (7, 16), (200, 64)):
        x, g = rng.normal(size=shape), rng.normal(size=shape)
        gain, bias = rng.normal(size=shape[1]), rng.normal(size=shape[1])
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
        xhat = xc * inv
        gxhat = g * gain
        gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True) - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        expected = [gx, (g * xhat).sum(axis=0), g.sum(axis=0)]
        got = _vjp_layer_norm(g, (x, gain, bias), None, {"eps": eps})
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(have, want)


def naive_attention_weights(q, k, num_heads):
    """Per head and per query row: scaled scores over the keys up to the
    row's position Tk - Tq + i, softmax, zeros beyond."""
    tq, tk = q.shape[0], k.shape[0]
    dh = q.shape[1] // num_heads
    out = np.zeros((num_heads, tq, tk))
    for h in range(num_heads):
        cols = slice(h * dh, (h + 1) * dh)
        for i in range(tq):
            seen = tk - tq + i + 1
            scores = k[:seen, cols] @ q[i, cols] / np.sqrt(dh)
            e = np.exp(scores - scores.max())
            out[h, i, :seen] = e / e.sum()
    return out


ATTENTION_SHAPES = [(1, 1), (1, 240), (25, 25), (64, 64), (65, 65), (97, 97), (200, 200), (40, 130)]


@pytest.mark.parametrize("tq,tk", ATTENTION_SHAPES)
def test_attention_weights_match_naive_loop(tq, tk):
    rng = np.random.default_rng(tq * 1000 + tk)
    q, k = rng.normal(size=(tq, 64)), rng.normal(size=(tk, 64))
    w = _attention_weights(q, k, 4)
    assert w.shape == (4, tq, tk)
    np.testing.assert_allclose(w, naive_attention_weights(q, k, 4), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(np.triu(w, tk - tq + 1), 0.0)


def test_embedding_and_take_per_row_gradients():
    rng = np.random.default_rng(14)
    g = Graph()
    table = g.leaf(rng.normal(size=(7, 4)), requires_grad=True, name="table")
    emb = g.embedding(table, [1, 3, 3, 6])
    logp = g.log_softmax(emb)
    picked = g.take_per_row(logp, [0, 2, 1, 3])
    g.mark_output("loss", g.scale(g.reduce_sum(picked), -1.0))
    report = gradient_check(g, tolerance=1e-6)
    assert report.passed, report.max_rel_error


def test_gradient_check_reports_nonfinite():
    g = Graph()
    x = g.leaf(np.array([1.0, 0.0]), requires_grad=True, name="x")
    g.mark_output("loss", g.reduce_sum(g.log(x)))
    with pytest.raises(NonFiniteError, match="node"):
        gradient_check(g, tolerance=1e-4)


def test_embedding_rejects_out_of_range_ids():
    g = Graph()
    table = g.leaf(np.zeros((4, 2)))
    with pytest.raises(ShapeError, match="embedding"):
        g.embedding(table, [0, 4])
