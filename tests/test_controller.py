import numpy as np
import pytest

from depthlab.autodiff import Graph, backpropagate, gradient_check
from depthlab.controller import (
    ControllerBank,
    GumbelConfig,
    InputMode,
    build_controller_loss,
    controlled_layers,
    gate_sample,
    init_controller_params,
    skip_ratio_report,
)
from depthlab.model import DecoderModel, ModelConfig, init_params

CFG = ModelConfig(num_layers=4, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=32, max_context=32)


def test_controlled_layers_excludes_first_and_last_by_default():
    cfg = ModelConfig(num_layers=8)
    assert controlled_layers(cfg) == [2, 3, 4, 5, 6, 7]
    assert controlled_layers(cfg, exclude_first=False) == [1, 2, 3, 4, 5, 6, 7]
    assert controlled_layers(cfg, exclude_last=False) == [2, 3, 4, 5, 6, 7, 8]


def test_controller_init_biases_toward_execution():
    params = init_controller_params(CFG, [2, 3], seed=0)
    assert set(params) == {
        "controller.layer2.w",
        "controller.layer2.b",
        "controller.layer3.w",
        "controller.layer3.b",
    }
    np.testing.assert_array_equal(params["controller.layer2.b"], [0.0, 2.0])


def test_gate_sample_saturated_logits_execute():
    cfg = GumbelConfig(temperature=1.0)
    rng = np.random.default_rng(0)
    executes = sum(gate_sample(np.array([-20.0, 20.0]), cfg, rng)[0] for _ in range(10_000))
    assert executes / 10_000 > 0.999


def test_gate_sample_symmetric_logits_half_rate():
    cfg = GumbelConfig(temperature=1.0)
    rng = np.random.default_rng(1)
    executes = sum(gate_sample(np.array([0.0, 0.0]), cfg, rng)[0] for _ in range(10_000))
    assert executes / 10_000 == pytest.approx(0.5, abs=0.02)


def test_gate_sample_deterministic_under_seed():
    cfg = GumbelConfig(temperature=0.7)
    a = gate_sample(np.array([0.3, -0.1]), cfg, np.random.default_rng(42))
    b = gate_sample(np.array([0.3, -0.1]), cfg, np.random.default_rng(42))
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])


def test_gate_sample_surrogate_is_distribution():
    cfg = GumbelConfig(temperature=2.0)
    rng = np.random.default_rng(2)
    for _ in range(100):
        bit, surrogate = gate_sample(np.array([0.5, 1.0]), cfg, rng)
        assert bit in (0, 1)
        assert surrogate.sum() == pytest.approx(1.0, abs=1e-12)
        assert bit == int(np.argmax(surrogate))


def test_gate_sample_requires_positive_temperature():
    with pytest.raises(ValueError):
        GumbelConfig(temperature=0.0)


def _loss_value(p_hat, p_target, gate_values, alpha, token_weights):
    """build_controller_loss on constant tensors: `p_hat` and `p_target` are
    (T, V) distributions, `gate_values` one (T,) row per gated layer."""
    g = Graph()
    gates = [g.leaf(row) for row in gate_values]
    loss = build_controller_loss(g, g.leaf(np.log(p_hat)), np.log(p_target), gates, alpha, np.asarray(token_weights))
    return loss.item()


def test_controller_loss_alpha_zero_is_pure_kl():
    p = np.array([[0.7, 0.2, 0.1]])
    q = np.array([[0.5, 0.3, 0.2]])
    kl = float(np.sum(p * np.log(p / q)))
    assert _loss_value(p, q, [[0.5], [0.5]], alpha=0.0, token_weights=[1.0]) == pytest.approx(kl)


def test_controller_loss_matching_distributions_cost_only():
    p = np.array([[0.25, 0.25, 0.5], [0.1, 0.6, 0.3]])
    loss = _loss_value(p, p, [[1.0, 1.0]] * 6, alpha=2.0, token_weights=[0.5, 0.5])
    assert loss == pytest.approx(2.0 * 6)


def _soft_gate_loss(g, p, h, noise, teacher_lp):
    """Tiny gated network with soft (relaxed) Gumbel gates so analytic and
    numeric gradients are comparable."""
    t = h.shape[0]
    h = g.leaf(h)
    logits_gate = g.add_bias(g.matmul(h, p["w_gate"]), p["b_gate"])
    surrogate = g.softmax(g.scale(g.add(logits_gate, g.leaf(noise)), 1.0 / 0.8))
    gate = g.reshape(g.slice(surrogate, (np.s_[0:t], np.s_[1:2])), (t,))
    blended = g.add(g.scale_rows(g.gelu(h), gate), g.scale_rows(h, g.add(g.leaf(np.ones(t)), g.scale(gate, -1.0))))
    logits = g.matmul(blended, p["w_out"])
    weights = np.array([0.0, 0.5, 0.5])
    return build_controller_loss(g, logits, teacher_lp, [gate], alpha=1.5, token_weights=weights)


def test_controller_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    t, d, vocab = 3, 4, 5
    h = rng.normal(size=(t, d))
    values = {"w_gate": rng.normal(size=(d, 2)), "b_gate": rng.normal(size=2), "w_out": rng.normal(size=(d, vocab))}
    noise = rng.gumbel(size=(t, 2))
    teacher = rng.normal(size=(t, vocab))
    teacher_lp = teacher - np.log(np.exp(teacher).sum(axis=1, keepdims=True))

    def tape(vals):
        g = Graph()
        leaves = {name: g.leaf(v, requires_grad=True) for name, v in vals.items()}
        return g, leaves, _soft_gate_loss(g, leaves, h, noise, teacher_lp)

    g, leaves, loss = tape(values)
    backpropagate(g, loss)
    grads = {name: leaf.grad for name, leaf in leaves.items()}
    assert gradient_check(lambda vals: tape(vals)[2].item(), values, grads) <= 1e-4


def test_fixed_ones_mode_constant_logits_across_tokens():
    model = DecoderModel(CFG, init_params(CFG, seed=1))
    params = init_controller_params(CFG, controlled_layers(CFG), seed=2)
    bank = ControllerBank(CFG, params, input_mode=InputMode.FIXED_ONES)
    h1 = np.random.default_rng(0).normal(size=CFG.hidden_dim)
    h2 = np.random.default_rng(1).normal(size=CFG.hidden_dim)
    np.testing.assert_array_equal(bank.logits_for(2, h1), bank.logits_for(2, h2))


def test_hidden_mode_logits_depend_on_state():
    params = init_controller_params(CFG, [2], seed=3)
    bank = ControllerBank(CFG, params, input_mode=InputMode.HIDDEN_STATE)
    h1 = np.zeros(CFG.hidden_dim)
    h2 = np.ones(CFG.hidden_dim)
    assert not np.array_equal(bank.logits_for(2, h1), bank.logits_for(2, h2))


def test_gate_fn_forces_uncontrolled_layers():
    params = init_controller_params(CFG, [2, 3], seed=4)
    # Saturate toward skip so controlled layers reliably return 0.
    for l in (2, 3):
        params[f"controller.layer{l}.w"][:] = 0.0
        params[f"controller.layer{l}.b"][:] = [50.0, -50.0]
    bank = ControllerBank(CFG, params)
    fn = bank.gate_fn(np.random.default_rng(0))
    h = np.zeros(CFG.hidden_dim)
    assert fn(1, h) == 1
    assert fn(4, h) == 1
    assert fn(2, h) == 0
    assert fn(3, h) == 0


def _saturated_bank(execute: bool) -> ControllerBank:
    params = init_controller_params(CFG, [2, 3], seed=5)
    sign = 1.0 if execute else -1.0
    for l in (2, 3):
        params[f"controller.layer{l}.w"][:] = 0.0
        params[f"controller.layer{l}.b"][:] = [-50.0 * sign, 50.0 * sign]
    return ControllerBank(CFG, params)


def test_skip_ratio_report_saturated_execute():
    model = DecoderModel(CFG, init_params(CFG, seed=6))
    prompts = [[1, 2, 3], [4, 5]]
    row = skip_ratio_report(model, _saturated_bank(execute=True), prompts, alpha=2.0, max_new=6, seed=0)
    assert row.skip_fraction == {2: 0.0, 3: 0.0}
    assert row.steps == 2 * 6  # no EOS stop: every prompt decodes max_new tokens


def test_skip_ratio_report_saturated_skip():
    model = DecoderModel(CFG, init_params(CFG, seed=6))
    prompts = [[1, 2, 3], [4, 5]]
    row = skip_ratio_report(model, _saturated_bank(execute=False), prompts, alpha=2.0, max_new=6, seed=0)
    assert row.skip_fraction == {2: 1.0, 3: 1.0}
    assert row.steps == 2 * 6  # no EOS stop: every prompt decodes max_new tokens


def test_skip_ratio_report_rejects_empty_corpus():
    model = DecoderModel(CFG, init_params(CFG, seed=6))
    with pytest.raises(ValueError, match="empty corpus"):
        skip_ratio_report(model, _saturated_bank(True), [], alpha=2.0)


def test_straight_through_forward_is_binary_backward_finite():
    rng = np.random.default_rng(7)
    g = Graph()
    logits = g.leaf(rng.normal(size=(4, 2)), requires_grad=True)
    noise = g.leaf(rng.gumbel(size=(4, 2)))
    surrogate = g.softmax(g.scale(g.add(logits, noise), 1.0))
    exec_col = g.reshape(g.slice(surrogate, (np.s_[0:4], np.s_[1:2])), (4,))
    bits = surrogate.data.argmax(axis=1).astype(np.float64)
    gate = g.straight_through(exec_col, bits)
    assert set(np.unique(gate.data)) <= {0.0, 1.0}
    loss = g.reduce_sum(g.multiply(gate, g.leaf(rng.normal(size=4))))
    backpropagate(g, loss)
    assert np.all(np.isfinite(logits.grad))
