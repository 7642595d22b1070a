import numpy as np
import pytest

from depthlab import autodiff, training
from depthlab.autodiff import (
    _VJP,
    BLOCK_PARAMS,
    Graph,
    NonFiniteError,
    ShapeError,
    _attention_weights,
    _vjp_layer_norm,
    backpropagate,
    gradient_check,
)
from depthlab.corpus import Example
from depthlab.model import DecoderModel, ModelConfig, init_params


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


def _block_case(t):
    """A block of width 4 with 2 heads and an MLP of width 6 on t rows; at
    t = 33 the forward attends in two row blocks."""
    shapes = {"h": (t, 4), **autodiff.block_param_shapes(4, 6)}
    values = _normal(t, **shapes)
    build = lambda g, x: g.block(x["h"], [x[name] for name in BLOCK_PARAMS], num_heads=2, eps=1e-5)
    return pytest.param(values, build, 1e-6, id=f"block-T{t}")


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
    _op_case("embedding", _normal(11, table=(7, 4)), lambda g, x: g.embedding(x["table"], [1, 3, 3, 6])),
    _op_case("reduce_sum", _normal(14, x=(3, 4)), lambda g, x: g.reduce_sum(x["x"], axis=1)),
    _op_case("take_per_row", _normal(15, x=(4, 4)), lambda g, x: g.take_per_row(x["x"], [0, 2, 1, 3])),
    _block_case(1),
    _block_case(5),
    _block_case(33),
]


@pytest.mark.parametrize("values,build,tolerance", OP_CASES)
def test_per_op_gradients_match_finite_differences(values, build, tolerance):
    assert tape_gradient_error(build, values) <= tolerance


def test_every_op_has_a_finite_difference_check():
    checked = {case.id.split("-")[0] for case in OP_CASES}
    assert set(_VJP) == checked | {"straight_through"}


def test_gradient_check_rejects_a_vjp_term_off_by_one_percent(monkeypatch):
    # The attention VJP reads the output only in its row-sum term; feeding
    # it 1.01 * out makes that one term 1% too large inside the T=33 block.
    real = autodiff._vjp_causal_attention
    monkeypatch.setattr(
        autodiff, "_vjp_causal_attention", lambda g, q, k, v, out, w, heads: real(g, q, k, v, 1.01 * out, w, heads)
    )
    values, build, tolerance = _block_case(33).values
    assert tape_gradient_error(build, values) > 100 * tolerance


def test_three_layer_mlp_matches_finite_differences():
    x = np.random.default_rng(16).normal(size=(4, 5))

    def mlp_loss(g, p):
        h = g.softmax(g.add_bias(g.matmul(g.leaf(x), p["w1"]), p["b1"]))
        h = g.softmax(g.add_bias(g.matmul(h, p["w2"]), p["b2"]))
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
    w = _attention_weights(q, k, 4, np.arange(tk - tq, tk))
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


def _gelu_grid_block(grid):
    """A width-2 block whose w1 is 0, so the MLP's pre-activation u is b1 =
    `grid` on every row and the block applies its activation to the grid."""
    params = {name: np.zeros(shape) for name, shape in autodiff.block_param_shapes(2, grid.size).items()}
    params["b1"] = grid
    h = np.array([[1.0, -1.0], [0.5, 2.0]])
    return h, [params[name] for name in BLOCK_PARAMS]


def _sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_block_gelu_matches_the_sigmoid_formula():
    # The activation is u * s, s = (1 + tanh(0.851 u)) / 2, on a grid over
    # [-40, 40]; s is sigmoid(1.702 u) of the exp form to within an ulp.
    grid = np.linspace(-40.0, 40.0, 8001)
    keep = {}
    autodiff._block_forward(*_gelu_grid_block(grid), 1, 1e-5, keep=keep)
    assert np.array_equal(keep["u"], np.broadcast_to(grid, keep["u"].shape))
    reference = grid * (0.5 * (1.0 + np.tanh(0.851 * grid)))
    assert np.abs(keep["act"] - reference).max() <= 2e-15
    assert np.abs(0.5 * (1.0 + keep["t"]) - _sigmoid(1.702 * grid)).max() <= 2.3e-16


def test_block_gelu_is_finite_without_warnings_at_large_inputs():
    # u over [-1000, 1000]: forward and backward raise on any overflow,
    # invalid or divide-by-zero and stay finite; the activation is u or 0
    # once |u| is large.
    grid = np.linspace(-1000.0, 1000.0, 20001)
    g = Graph()
    h, params = _gelu_grid_block(grid)
    leaves = [g.leaf(p, requires_grad=True) for p in [h, *params]]
    out = g.block(leaves[0], leaves[1:], num_heads=1, eps=1e-5)
    with np.errstate(all="raise"):
        backpropagate(g, g.reduce_sum(out))
        keep = {}
        autodiff._block_forward(h, params, 1, 1e-5, keep=keep)
    assert all(np.isfinite(leaf.grad).all() for leaf in leaves)
    big = np.abs(grid) >= 50.0
    np.testing.assert_array_equal(keep["act"][:, big], np.broadcast_to(np.maximum(grid, 0.0)[big], (2, big.sum())))


def test_block_gradients_match_finite_differences_at_large_preactivations():
    # b1 puts the MLP's pre-activations at 4 <= |u| <= 12, where the
    # derivative's tanh-tail term 0.851 u (1 - t^2) / 2 outweighs s on the
    # negative side.
    values, build, tolerance = _block_case(5).values
    rng = np.random.default_rng(23)
    signs = rng.choice([-1.0, 1.0], size=6)
    values = {**values, "w1": 0.25 * values["w1"], "b1": signs * rng.uniform(6.0, 10.0, size=6)}
    keep = {}
    autodiff._block_forward(values["h"], [values[name] for name in BLOCK_PARAMS], 2, 1e-5, keep=keep)
    assert 4.0 <= np.abs(keep["u"]).min() and np.abs(keep["u"]).max() <= 12.0
    assert tape_gradient_error(build, values) <= tolerance


def test_backprop_consumes_the_tape(monkeypatch):
    # A fine-tune tape after its backward pass: each op node has released
    # its kept intermediates and, the loss aside, its output; leaves keep
    # their data and grads, and the tape cannot be swept a second time.
    tapes = []
    monkeypatch.setattr(training, "backpropagate", lambda g, loss: tapes.append((g, loss)) or backpropagate(g, loss))
    cfg = ModelConfig(num_layers=3, hidden_dim=16, num_heads=2, ffn_dim=32, max_context=32)
    model = DecoderModel(cfg, init_params(cfg, 0))
    loss_value, grads = training.sequence_loss_and_grads(model, Example("x", "copy: ab", "ab"))
    ((g, loss),) = tapes
    assert g.backpropagated
    blocks = [node for node in g.nodes if node.op == "block"]
    assert len(blocks) == 3 and all(node.attrs == {} for node in blocks)
    for node in g.nodes:
        if node.op == "leaf":
            assert node.tensor.data is not None
            assert (node.tensor.grad is not None) == node.tensor.requires_grad
        elif node.tensor is not loss:
            assert node.tensor.data is None and node.attrs == {}
    assert loss.item() == loss_value
    for name, grad in grads.items():
        assert grad.shape == model.params[name].shape
    with pytest.raises(ValueError, match="already backpropagated"):
        backpropagate(g, loss)
