import numpy as np
import pytest

from depthlab import tokenizer, training
from depthlab.autodiff import Graph, backpropagate, gradient_check
from depthlab.controller import ControllerBank, GumbelConfig, InputMode, init_controller_params
from depthlab.corpus import Example, tokenize_example
from depthlab.model import DecoderModel, ModelConfig, build_graph_forward, graph_leaves, init_params
from depthlab.training import (
    TrainConfig,
    TrainingDiverged,
    build_controller_sequence_graph,
    controller_sequence_loss,
    draw_layerdrop,
    finetune,
    mean_cost,
    rouge_eval,
    sequence_loss_and_grads,
    train_controllers,
    _target_weights,
)

CFG = ModelConfig(num_layers=4, hidden_dim=16, num_heads=2, ffn_dim=32, max_context=64)

TRAIN = [
    Example("t0", "copy: ab", "ab"),
    Example("t1", "copy: cd", "cd"),
    Example("t2", "upper: ef", "EF"),
    Example("t3", "copy: gh", "gh"),
    Example("t4", "upper: ij", "IJ"),
    Example("t5", "copy: kl", "kl"),
]
VAL = [Example("v0", "copy: mn", "mn"), Example("v1", "upper: op", "OP")]


def quick_cfg(**kwargs) -> TrainConfig:
    base = dict(
        learning_rate=1e-3,
        batch_size=3,
        max_epochs=2,
        patience=5,
        eval_every=1.0,
        seed=0,
        max_eval_sequences=2,
        eval_max_new=8,
    )
    base.update(kwargs)
    base.setdefault("controller_learning_rate", base["learning_rate"])
    return TrainConfig(**base)


def test_zero_learning_rate_leaves_parameters_bit_identical():
    model = DecoderModel(CFG, init_params(CFG, seed=0))
    before = {k: v.copy() for k, v in model.params.items()}
    finetune(model, TRAIN, VAL, quick_cfg(learning_rate=0.0, max_epochs=1))
    for name in before:
        assert np.array_equal(model.params[name], before[name]), name


def test_prompt_masked_positions_do_not_affect_loss():
    model = DecoderModel(CFG, init_params(CFG, seed=1))
    ex = Example("x", "copy: abc", "abc")
    tok = tokenize_example(ex)
    inputs = tok.full_ids[:-1]
    targets = np.asarray(tok.full_ids[1:], dtype=np.int64)
    weights = _target_weights(len(inputs), tok.prompt_len)

    def loss_for(tgt):
        g = Graph()
        leaves = graph_leaves(g, model.params, trainable=False)
        logits = build_graph_forward(g, leaves, CFG, inputs)
        picked = g.take_per_row(g.log_softmax(logits), tgt)
        return g.scale(g.reduce_sum(g.multiply(picked, g.leaf(weights))), -1.0).item()

    scrambled = targets.copy()
    scrambled[: tok.prompt_len - 1] = (scrambled[: tok.prompt_len - 1] + 7) % CFG.vocab_size
    assert loss_for(targets) == loss_for(scrambled)


def test_sequence_loss_is_mean_nats_per_label_token():
    model = DecoderModel(CFG, init_params(CFG, seed=2))
    ex = Example("x", "copy: a", "a")
    loss, grads = sequence_loss_and_grads(model, ex)
    assert loss > 0
    assert set(grads) == set(model.params)


def test_single_sequence_overfit_smoke():
    # Desk-scale smoke oracle: loss on one short sequence falls below
    # 0.1 nats/token well within 500 steps.
    cfg = ModelConfig(num_layers=8, hidden_dim=64, num_heads=4, ffn_dim=256, max_context=64)
    model = DecoderModel(cfg, init_params(cfg, seed=3))
    ex = Example("x", "copy: hello", "hello")
    tcfg = quick_cfg(learning_rate=3e-3, batch_size=1)
    from depthlab.training import AdamW

    optimizer = AdamW(sorted(model.params), tcfg)
    loss = np.inf
    for step in range(500):
        loss, grads = sequence_loss_and_grads(model, ex)
        if loss < 0.1:
            break
        optimizer.step(model.params, grads, tcfg.learning_rate)
    assert loss < 0.1, f"loss {loss} after {step} steps"


def _functional_adamw(params, grads, m, v, t, lr, cfg):
    """One AdamW step as the textbook formula, each line a new array."""
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    out = {}
    for name in sorted(params):
        g = grads[name]
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * (g * g)
        m_hat = m[name] / (1 - b1**t)
        v_hat = v[name] / (1 - b2**t)
        update = m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        if params[name].ndim >= 2:
            update = update + cfg.weight_decay * params[name]
        out[name] = params[name] - lr * update
    return out


def test_adamw_matches_the_functional_formula_bit_for_bit():
    rng = np.random.default_rng(4)
    shapes = {"w": (5, 3), "big": (7, 9), "b": (3,), "gain": (11,)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    cfg = quick_cfg(weight_decay=0.05)
    optimizer = training.AdamW(sorted(params), cfg)
    expected = dict(params)
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for t, lr in enumerate((3e-3, 1e-3, 2e-4), start=1):
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2) for name, shape in shapes.items()}
        before = dict(params)
        snapshot = {name: value.copy() for name, value in params.items()}
        optimizer.step(params, grads, lr)
        expected = _functional_adamw(expected, grads, m, v, t, lr, cfg)
        for name in shapes:
            assert np.array_equal(params[name], expected[name]), (t, name)
            assert np.array_equal(optimizer.m[name], m[name]) and np.array_equal(optimizer.v[name], v[name])
            # the caller's arrays are replaced, never written into
            assert params[name] is not before[name]
            assert np.array_equal(before[name], snapshot[name]), (t, name)


def test_finetune_drops_the_layers_draw_layerdrop_draws(monkeypatch):
    seen = []
    real = training.sequence_loss_and_grads

    def recording(model, example, skip_layers=None):
        seen.append(skip_layers)
        return real(model, example, skip_layers)

    monkeypatch.setattr(training, "sequence_loss_and_grads", recording)
    cfg = quick_cfg(max_epochs=1, layerdrop_prob=0.5)
    finetune(DecoderModel(CFG, init_params(CFG, seed=4)), TRAIN, VAL, cfg)
    rng = np.random.default_rng((cfg.seed, 1))
    batches = [draw_layerdrop(rng, [2, 3], 0.5) for _ in range(len(TRAIN) // cfg.batch_size)]
    assert seen == [skip for skip in batches for _ in range(cfg.batch_size)]


def test_layerdrop_draw_frequency():
    rng = np.random.default_rng(5)
    droppable = [2, 3]
    counts = {2: 0, 3: 0}
    draws = 10_000
    for _ in range(draws):
        for l in draw_layerdrop(rng, droppable, 0.5):
            counts[l] += 1
    for l in droppable:
        assert counts[l] / draws == pytest.approx(0.5, abs=0.02)


def test_layerdrop_dropped_layer_gradients_zero():
    model = DecoderModel(CFG, init_params(CFG, seed=6))
    loss, grads = sequence_loss_and_grads(model, TRAIN[0], skip_layers={2, 3})
    assert np.all(grads["layer2.wq"] == 0.0)
    assert np.all(grads["layer3.w2"] == 0.0)
    assert np.any(grads["layer1.wq"] != 0.0)


def test_training_reproducible_same_seed():
    results, models = [], []
    for _ in range(2):
        model = DecoderModel(CFG, init_params(CFG, seed=7))
        results.append(finetune(model, TRAIN, VAL, quick_cfg()))
        models.append(model)
    log_a, log_b = results[0].log, results[1].log
    assert [(r.step, r.split, r.loss, r.rouge_l) for r in log_a] == [
        (r.step, r.split, r.loss, r.rouge_l) for r in log_b
    ]
    for name in models[0].params:
        assert np.array_equal(models[0].params[name], models[1].params[name])


def test_early_stopping_within_patience():
    model = DecoderModel(CFG, init_params(CFG, seed=8))
    cfg = quick_cfg(max_epochs=30, patience=1, eval_every=0.5, learning_rate=0.0)
    result = finetune(model, TRAIN, VAL, cfg)
    val_rows = [r for r in result.log if r.split == "val"]
    best_idx = int(np.argmax([r.rouge_l for r in val_rows]))
    assert len(val_rows) - 1 - best_idx <= cfg.patience + 1


def test_an_empty_validation_split_is_refused_before_the_first_step(monkeypatch):
    # with no val examples every val ROUGE-L is nan and training would keep
    # the initial weights
    steps = []
    monkeypatch.setattr(training, "sequence_loss_and_grads", lambda *a, **k: steps.append(1))
    with pytest.raises(ValueError, match="empty validation split"):
        finetune(DecoderModel(CFG, init_params(CFG, seed=9)), TRAIN, [], quick_cfg())
    assert steps == []


def test_divergence_aborts_with_step_index():
    model = DecoderModel(CFG, init_params(CFG, seed=9))
    model.params["head.w"] = model.params["head.w"] * np.nan
    with pytest.raises(TrainingDiverged) as err:
        finetune(model, TRAIN, VAL, quick_cfg())
    assert err.value.step == 0


def _saturated_bank(model_cfg, execute: bool) -> ControllerBank:
    params = init_controller_params(model_cfg, [2, 3], seed=5)
    sign = 1.0 if execute else -1.0
    for l in (2, 3):
        params[f"controller.layer{l}.w"][:] = 0.0
        params[f"controller.layer{l}.b"][:] = [-50.0 * sign, 50.0 * sign]
    return ControllerBank(model_cfg, params)


def _model_with_eos_bias(seed: int, bias: float) -> DecoderModel:
    params = init_params(CFG, seed=seed)
    params["head.b"][tokenizer.EOS] = bias
    return DecoderModel(CFG, params)


@pytest.mark.parametrize("execute", [True, False])
def test_rouge_eval_returns_the_realized_bits_of_each_step(execute):
    # EOS never wins, so every generation takes eval_max_new steps.
    model = _model_with_eos_bias(6, -1e3)
    cfg = quick_cfg(max_eval_sequences=3)
    scores, bits = rouge_eval(model, TRAIN, cfg, (0, 11), bank=_saturated_bank(CFG, execute))
    assert len(scores) == len(bits) == 3
    expected = np.array([1, int(execute), int(execute), 1])
    for b in bits:
        assert b.shape == (cfg.eval_max_new, CFG.num_layers)
        assert (b == expected).all()
    assert mean_cost(bits) == (4.0 if execute else 2.0)


def test_rouge_eval_gives_no_rows_to_a_generation_that_takes_no_step():
    model = _model_with_eos_bias(6, 1e3)
    scores, bits = rouge_eval(model, TRAIN, quick_cfg(max_eval_sequences=3), (0, 11), bank=_saturated_bank(CFG, True))
    assert scores == [0.0] * 3
    assert [b.shape for b in bits] == [(0, CFG.num_layers)] * 3
    assert np.isnan(mean_cost(bits))


def _falling_rouge(monkeypatch, snapshots, params_of):
    """Make every eval score lower than the one before, recording the
    parameters each eval sees."""

    def falling(model, examples, cfg, key, bank=None):
        snapshots.append({k: v.copy() for k, v in params_of(model, bank).items()})
        return [1.0 / len(snapshots)], [np.ones((1, model.cfg.num_layers), dtype=np.int64)]

    monkeypatch.setattr(training, "rouge_eval", falling)


def test_finetune_restores_the_first_evals_parameters(monkeypatch):
    snapshots = []
    _falling_rouge(monkeypatch, snapshots, lambda model, bank: model.params)
    model = DecoderModel(CFG, init_params(CFG, seed=19))
    result = finetune(model, TRAIN, VAL, quick_cfg(max_epochs=3, eval_every=0.5, patience=5))
    assert len(snapshots) == 6 and result.best_metric == 1.0
    assert any(not np.array_equal(snapshots[-1][n], snapshots[0][n]) for n in model.params)
    for name in model.params:
        assert np.array_equal(model.params[name], snapshots[0][name]), name


def _bank(model_cfg, seed=0, mode=InputMode.HIDDEN_STATE):
    params = init_controller_params(model_cfg, [2, 3], seed=seed)
    return ControllerBank(model_cfg, params, input_mode=mode, gumbel=GumbelConfig())


def test_freeze_backbone_leaves_backbone_bit_identical():
    model = DecoderModel(CFG, init_params(CFG, seed=10))
    before = {k: v.copy() for k, v in model.params.items()}
    bank = _bank(CFG)
    cfg = quick_cfg(freeze_backbone=True, max_epochs=1)
    train_controllers(model, bank, TRAIN, VAL, cfg, alpha=2.0)
    for name in before:
        assert np.array_equal(model.params[name], before[name]), name


def test_joint_training_updates_backbone():
    model = DecoderModel(CFG, init_params(CFG, seed=11))
    before = {k: v.copy() for k, v in model.params.items()}
    bank = _bank(CFG)
    cfg = quick_cfg(freeze_backbone=False, max_epochs=1)
    train_controllers(model, bank, TRAIN, VAL, cfg, alpha=2.0)
    changed = any(not np.array_equal(model.params[n], before[n]) for n in before)
    assert changed


def test_controller_divergence_aborts_with_step_index():
    model = DecoderModel(CFG, init_params(CFG, seed=9))
    model.params["head.w"] = model.params["head.w"] * np.nan
    with pytest.raises(TrainingDiverged) as err:
        train_controllers(model, _bank(CFG), TRAIN, VAL, quick_cfg(), alpha=2.0)
    assert err.value.step == 0


def test_train_controllers_restores_the_first_evals_parameters(monkeypatch):
    snapshots = []
    _falling_rouge(monkeypatch, snapshots, lambda model, bank: {**model.params, **bank.params})
    model = DecoderModel(CFG, init_params(CFG, seed=20))
    bank = _bank(CFG, seed=3)
    cfg = quick_cfg(max_epochs=3, eval_every=0.5, patience=5, learning_rate=0.05)
    result = train_controllers(model, bank, TRAIN, VAL, cfg, alpha=2.0)
    assert len(snapshots) == 6 and result.best_metric == 1.0
    assert any(not np.array_equal(snapshots[-1][n], snapshots[0][n]) for n in bank.params)
    assert any(not np.array_equal(snapshots[-1][n], snapshots[0][n]) for n in model.params)
    for name, value in {**model.params, **bank.params}.items():
        assert np.array_equal(value, snapshots[0][name]), name


def test_huge_alpha_collapses_cost_to_floor():
    model = DecoderModel(CFG, init_params(CFG, seed=12))
    bank = _bank(CFG)
    cfg = quick_cfg(freeze_backbone=True, max_epochs=15, learning_rate=0.2, patience=50)
    result = train_controllers(model, bank, TRAIN, VAL, cfg, alpha=1000.0)
    final_cost = [r.mean_cost for r in result.log if r.split == "train"][-1]
    # Floor: layers 1 and 4 always execute.
    assert final_cost < 2.5


def test_controller_training_reproducible():
    logs = []
    for _ in range(2):
        model = DecoderModel(CFG, init_params(CFG, seed=13))
        bank = _bank(CFG, seed=1)
        result = train_controllers(model, bank, TRAIN, VAL, quick_cfg(max_epochs=1), alpha=4.0)
        logs.append([(r.step, r.split, r.loss, r.rouge_l, r.mean_cost) for r in result.log])
    assert logs[0] == logs[1]


def test_full_controller_loss_gradient_matches_finite_differences():
    # Relaxed gates (hard_forward=False) so the surrogate path is the forward
    # path; grads are checked for every controller parameter through the
    # whole decoder. The Gumbel stream restarts for every evaluation.
    tiny = ModelConfig(num_layers=3, hidden_dim=8, num_heads=2, ffn_dim=12, max_context=16)
    model = DecoderModel(tiny, init_params(tiny, seed=14))
    teacher = DecoderModel(tiny, {k: v.copy() for k, v in model.params.items()})
    gumbel = GumbelConfig(temperature=0.9, hard_forward=False)
    ex = Example("x", "ab", "cd")

    def tape(params):
        bank = ControllerBank(tiny, params, gumbel=gumbel)
        g, loss, leaves, _, _ = build_controller_sequence_graph(
            model, bank, teacher, ex, alpha=1.5,
            gumbel_rng=np.random.default_rng(16),
            freeze_backbone=True,
        )
        return g, loss, leaves

    values = init_controller_params(tiny, [2], seed=15)
    g, loss, leaves = tape(values)
    backpropagate(g, loss)
    grads = {name: leaves[name].grad for name in values}
    assert gradient_check(lambda params: tape(params)[1].item(), values, grads) <= 1e-4


@pytest.mark.parametrize("mode", [InputMode.HIDDEN_STATE, InputMode.FIXED_ONES])
def test_controller_tape_builds_each_constant_once(mode):
    # One all-ones (T,) leaf serves every gated layer's mix, and only the
    # fixed-input mode holds the (T, d) ones input.
    model = DecoderModel(CFG, init_params(CFG, seed=17))
    teacher = DecoderModel(CFG, {k: v.copy() for k, v in model.params.items()})
    g, _, _, _, _ = build_controller_sequence_graph(
        model, _bank(CFG, seed=2, mode=mode), teacher, TRAIN[0], 2.0, np.random.default_rng(19), False
    )
    t = len(tokenize_example(TRAIN[0]).full_ids) - 1
    constants = [n.tensor for n in g.nodes if n.op == "leaf" and not n.tensor.requires_grad]
    ones = [c.shape for c in constants if np.all(c.data == 1.0)]
    expected = [(t,), (t, CFG.hidden_dim)] if mode is InputMode.FIXED_ONES else [(t,)]
    assert sorted(ones) == sorted(expected)


def test_controller_loss_realized_cost_counts_bits():
    model = DecoderModel(CFG, init_params(CFG, seed=17))
    bank = _bank(CFG, seed=2)
    teacher = DecoderModel(CFG, {k: v.copy() for k, v in model.params.items()})
    _, _, cost = controller_sequence_loss(
        model, bank, teacher, TRAIN[0], alpha=2.0,
        gumbel_rng=np.random.default_rng(18), freeze_backbone=True,
    )
    # 2 uncontrolled layers always run; 0..2 controlled layers may.
    assert 2.0 <= cost <= 4.0


def test_controller_loss_cost_is_the_mean_cost_of_the_label_rows():
    model = DecoderModel(CFG, init_params(CFG, seed=17))
    bank = _bank(CFG, seed=2)
    teacher = DecoderModel(CFG, {k: v.copy() for k, v in model.params.items()})

    def cost_and_label_rows(ex):
        _, _, _, realized, prompt_len = build_controller_sequence_graph(
            model, bank, teacher, ex, 2.0, np.random.default_rng(19), freeze_backbone=True
        )
        _, _, cost = controller_sequence_loss(model, bank, teacher, ex, 2.0, np.random.default_rng(19), True)
        return cost, realized[prompt_len:]

    cost, rows = cost_and_label_rows(TRAIN[2])
    assert len(rows) == len(TRAIN[2].label) and cost == mean_cost([rows])
    # an empty label leaves no rows: no cost, not a fallback of L
    cost, rows = cost_and_label_rows(Example("e", "copy: ab", ""))
    assert len(rows) == 0 and np.isnan(cost)


def test_train_cost_leaves_out_sequences_without_label_rows():
    # an empty label gives a nan cost, which the logged train cost skips
    # instead of turning its whole eval window into nan
    empty = Example("e", "copy: ab", "")

    def train_costs(examples):
        model = DecoderModel(CFG, init_params(CFG, seed=21))
        result = train_controllers(model, _bank(CFG, seed=4), examples, VAL, quick_cfg(batch_size=4, max_epochs=1), alpha=2.0)
        return [r.mean_cost for r in result.log if r.split == "train"]

    [cost] = train_costs(TRAIN[:3] + [empty])
    assert 2.0 <= cost <= 4.0
    [cost] = train_costs([empty])
    assert np.isnan(cost)
