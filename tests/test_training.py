import numpy as np
import pytest

from depthlab import training
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
    results = []
    for _ in range(2):
        model = DecoderModel(CFG, init_params(CFG, seed=7))
        result = finetune(model, TRAIN, VAL, quick_cfg())
        results.append(result)
    log_a, log_b = results[0].log, results[1].log
    assert [(r.step, r.split, r.loss, r.rouge_l) for r in log_a] == [
        (r.step, r.split, r.loss, r.rouge_l) for r in log_b
    ]
    for name in results[0].best_params:
        assert np.array_equal(results[0].best_params[name], results[1].best_params[name])


def test_early_stopping_within_patience():
    model = DecoderModel(CFG, init_params(CFG, seed=8))
    cfg = quick_cfg(max_epochs=30, patience=1, eval_every=0.5, learning_rate=0.0)
    result = finetune(model, TRAIN, VAL, cfg)
    val_rows = [r for r in result.log if r.split == "val"]
    best_idx = int(np.argmax([r.rouge_l for r in val_rows]))
    assert len(val_rows) - 1 - best_idx <= cfg.patience + 1


def test_divergence_aborts_with_step_index():
    model = DecoderModel(CFG, init_params(CFG, seed=9))
    model.params["head.w"] = model.params["head.w"] * np.nan
    with pytest.raises(TrainingDiverged) as err:
        finetune(model, TRAIN, VAL, quick_cfg())
    assert err.value.step == 0


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
