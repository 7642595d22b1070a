import numpy as np
import pytest

from depthlab.autodiff import (
    _VJP,
    Graph,
    NonFiniteError,
    ShapeError,
    _attention_weights,
    _vjp_layer_norm,
    backpropagate,
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


def test_straight_through_passes_gradient():
    g = Graph()
    soft = g.leaf(np.array([0.2, 0.8]), requires_grad=True)
    hard = g.straight_through(soft, np.array([0.0, 1.0]))
    np.testing.assert_array_equal(hard.data, [0.0, 1.0])
    loss = g.reduce_sum(g.multiply(hard, g.leaf(np.array([3.0, 5.0]))))
    backpropagate(g, loss)
    np.testing.assert_allclose(soft.grad, [3.0, 5.0])


def tape_gradient_error(build, values):
    """Worst relative error of the tape gradients of sum(build(g, leaves) *
    mixer) against finite differences. `leaves` holds one requires_grad leaf
    per entry of `values`; the mixer is a fixed random constant, so every
    output element reaches the loss with its own weight."""

    def tape(vals):
        g = Graph()
        leaves = {name: g.leaf(v, requires_grad=True) for name, v in vals.items()}
        y = build(g, leaves)
        mixer = g.leaf(np.random.default_rng(0).normal(size=y.shape))
        return g, leaves, g.reduce_sum(g.multiply(y, mixer))

    g, leaves, loss = tape(values)
    backpropagate(g, loss)
    grads = {name: leaf.grad for name, leaf in leaves.items()}
    return gradient_check(lambda vals: tape(vals)[2].item(), values, grads)


def _normal(seed, **shapes):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=shape) for name, shape in shapes.items()}


def _op_case(op, values, build, tolerance=1e-6):
    return pytest.param(values, build, tolerance, id=op)


def _attention_case(t, tolerance):
    values = _normal(t, q=(t, 4), k=(t, 4), v=(t, 4))
    build = lambda g, x: g.causal_attention(x["q"], x["k"], x["v"], num_heads=2)
    return pytest.param(values, build, tolerance, id=f"causal_attention-T{t}")


# One finite-difference check per tape op, named by the op; straight_through
# has its own test (its gradient deliberately differs from its forward).
OP_CASES = [
    _op_case("matmul", _normal(1, a=(3, 4), b=(4, 2)), lambda g, x: g.matmul(x["a"], x["b"])),
    _op_case("add", _normal(2, a=(3, 4), b=(3, 4)), lambda g, x: g.add(x["a"], x["b"])),
    _op_case("multiply", _normal(3, a=(3, 4), b=(3, 4)), lambda g, x: g.multiply(x["a"], x["b"])),
    _op_case("scale", _normal(4, x=(3, 4)), lambda g, x: g.scale(x["x"], 0.3)),
    _op_case("add_bias", _normal(5, x=(3, 4), b=(4,)), lambda g, x: g.add_bias(x["x"], x["b"])),
    _op_case("scale_rows", _normal(6, x=(3, 4), s=(3,)), lambda g, x: g.scale_rows(x["x"], x["s"])),
    _op_case(
        "layer_norm",
        _normal(7, x=(4, 6), gain=(6,), bias=(6,)),
        lambda g, x: g.layer_norm(x["x"], x["gain"], x["bias"], eps=1e-5),
        tolerance=1e-5,
    ),
    _op_case("softmax", _normal(8, x=(3, 4)), lambda g, x: g.softmax(x["x"])),
    _op_case("log_softmax", _normal(9, x=(3, 4)), lambda g, x: g.log_softmax(x["x"])),
    _op_case("gelu", _normal(10, x=(3, 4)), lambda g, x: g.gelu(x["x"])),
    _op_case("embedding", _normal(11, table=(7, 4)), lambda g, x: g.embedding(x["table"], [1, 3, 3, 6])),
    _op_case("slice", _normal(12, x=(3, 4)), lambda g, x: g.slice(x["x"], (np.s_[1:3], np.s_[0:2]))),
    _op_case("reshape", _normal(13, x=(3, 4)), lambda g, x: g.reshape(x["x"], (6, 2))),
    _op_case("reduce_sum", _normal(14, x=(3, 4)), lambda g, x: g.reduce_sum(x["x"], axis=1)),
    _op_case("take_per_row", _normal(15, x=(4, 4)), lambda g, x: g.take_per_row(x["x"], [0, 2, 1, 3])),
    _attention_case(1, 1e-6),
    _attention_case(5, 1e-6),
    # At T=33 the loss sums 132 terms, so the difference quotient carries
    # ~1e-9 of roundoff, and the smallest gradient entries (~1e-6) reach
    # relative errors up to ~3e-4 on some draws; a wrong VJP term errs by O(1).
    _attention_case(33, 1e-3),
]


@pytest.mark.parametrize("values,build,tolerance", OP_CASES)
def test_per_op_gradients_match_finite_differences(values, build, tolerance):
    assert tape_gradient_error(build, values) <= tolerance


def test_every_op_has_a_finite_difference_check():
    checked = {case.id.split("-")[0] for case in OP_CASES}
    assert set(_VJP) == checked | {"straight_through"}


def test_three_layer_mlp_matches_finite_differences():
    x = np.random.default_rng(16).normal(size=(4, 5))

    def mlp_loss(g, p):
        h = g.gelu(g.add_bias(g.matmul(g.leaf(x), p["w1"]), p["b1"]))
        h = g.gelu(g.add_bias(g.matmul(h, p["w2"]), p["b2"]))
        out = g.matmul(h, p["w3"])
        return g.scale(g.reduce_sum(g.multiply(out, out)), 1.0 / out.data.size)

    values = _normal(0, w1=(5, 6), b1=(6,), w2=(6, 3), b2=(3,), w3=(3, 2))
    assert tape_gradient_error(mlp_loss, values) <= 1e-5


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


def test_gradient_check_reports_nonfinite():
    values = {"x": np.array([1.0, np.inf])}
    with pytest.raises(NonFiniteError, match="loss is"):
        tape_gradient_error(lambda g, x: g.reduce_sum(x["x"]), values)


def test_embedding_rejects_out_of_range_ids():
    g = Graph()
    table = g.leaf(np.zeros((4, 2)))
    with pytest.raises(ShapeError, match="embedding"):
        g.embedding(table, [0, 4])
