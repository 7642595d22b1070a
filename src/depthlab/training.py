"""Optimization loops: backbone fine-tuning (optionally with random layer
dropout), and cost-regularized controller training with a joint or frozen
backbone. All loops are fully deterministic given (seed, config, corpus)."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Graph, backpropagate, _log_softmax_forward
from .controller import ControllerBank, InputMode, build_controller_loss, gumbel_noise
from .corpus import Example, tokenize_example
from .metrics import rouge_l_text
from .model import DecoderModel, build_graph_forward, graph_leaves
from . import tokenizer


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite loss {loss} at step {step}")
        self.step = step


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    schedule: str = "linear"  # "linear" decay to zero, or "constant"
    batch_size: int = 8
    max_epochs: int = 6
    patience: int = 1
    eval_every: float = 1.0 / 3.0
    seed: int = 0
    freeze_backbone: bool = False
    layerdrop_prob: float = 0.0
    weight_decay: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    max_eval_sequences: int = 32
    eval_max_new: int = 48
    # Gate parameters see ~100x fewer optimizer steps at desk scale than the
    # backbone did at paper scale; they get their own rate (None = shared).
    controller_learning_rate: float | None = None

    def __post_init__(self) -> None:
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if not 0 < self.eval_every <= 1:
            raise ValueError("eval_every must be in (0, 1]")
        if not 0 <= self.layerdrop_prob < 1:
            raise ValueError("layerdrop_prob must be in [0, 1)")

    @property
    def controller_lr(self) -> float:
        return self.learning_rate if self.controller_learning_rate is None else self.controller_learning_rate


class AdamW:
    """Decoupled weight decay Adam; decay applies to matrices only. Updates
    are functional (parameters are replaced, never mutated in place)."""

    def __init__(self, names: Sequence[str], cfg: TrainConfig):
        self.names = list(names)
        self.cfg = cfg
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
        cfg = self.cfg
        self.t += 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        for name in self.names:
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            v = self.v[name]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            self.m[name], self.v[name] = m, v
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            update = m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
            if params[name].ndim >= 2:
                update = update + cfg.weight_decay * params[name]
            params[name] = params[name] - lr * update


@dataclass
class LogRow:
    step: int
    split: str
    loss: float
    rouge_l: float
    mean_cost: float


@dataclass
class TrainResult:
    best_params: dict[str, np.ndarray]
    best_metric: float
    log: list[LogRow] = field(default_factory=list)
    steps_run: int = 0


def write_log_csv(log: Sequence[LogRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "split", "loss", "rouge_l", "mean_cost"])
        for row in log:
            writer.writerow(
                [row.step, row.split, f"{row.loss:.6f}", f"{row.rouge_l:.6f}", f"{row.mean_cost:.4f}"]
            )


def _target_weights(num_inputs: int, prompt_len: int) -> np.ndarray:
    """Per-position loss weights over target positions: prompt targets are
    masked away, label targets share 1/n uniformly."""
    weights = np.zeros(num_inputs)
    start = prompt_len - 1
    count = num_inputs - start
    weights[start:] = 1.0 / count
    return weights


def sequence_loss_and_grads(
    model: DecoderModel,
    example: Example,
    skip_layers: set[int] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Prompt-masked next-token cross-entropy (nats per label token) for one
    sequence, with gradients for the backbone parameters."""
    tok = tokenize_example(example)
    inputs = tok.full_ids[:-1]
    targets = np.asarray(tok.full_ids[1:], dtype=np.int64)
    weights = _target_weights(len(inputs), tok.prompt_len)

    g = Graph()
    leaves = graph_leaves(g, model.params)
    logits = build_graph_forward(g, leaves, model.cfg, inputs, skip_layers=skip_layers)
    logp = g.log_softmax(logits)
    picked = g.take_per_row(logp, targets)
    loss = g.scale(g.reduce_sum(g.multiply(picked, g.leaf(weights))), -1.0)
    backpropagate(g, loss)
    return loss.item(), {name: leaves[name].grad for name in model.params}


def _rouge_eval(
    model: DecoderModel,
    examples: Sequence[Example],
    cfg: TrainConfig,
    bank: ControllerBank | None = None,
    seed_tag: int = 0,
) -> tuple[float, float]:
    """Mean ROUGE-L F and mean realized per-step cost of greedy generations."""
    scores = []
    costs = []
    for i, ex in enumerate(examples[: cfg.max_eval_sequences]):
        prompt = tokenizer.encode(ex.prompt, add_bos=True)
        if bank is None:
            res = model.generate(prompt, max_new=cfg.eval_max_new, rng_seed=0)
        else:
            res = model.generate(
                prompt,
                gate_fn_factory=bank.gate_fn,
                max_new=cfg.eval_max_new,
                rng_seed=int(np.random.default_rng((cfg.seed, 7, seed_tag, i)).integers(2**31)),
            )
        text = tokenizer.decode(res.generated_ids)
        scores.append(rouge_l_text(text, ex.label).f)
        if res.step_costs:
            costs.append(float(np.mean(res.step_costs)))
        else:
            costs.append(float(model.cfg.num_layers))
    return float(np.mean(scores)), float(np.mean(costs))


def _schedule_factor(cfg: TrainConfig, step: int, total_steps: int) -> float:
    if cfg.schedule == "constant":
        return 1.0
    return max(0.0, 1.0 - step / max(total_steps, 1))


def _linear_lr(cfg: TrainConfig, step: int, total_steps: int) -> float:
    return cfg.learning_rate * _schedule_factor(cfg, step, total_steps)


def finetune(
    model: DecoderModel,
    train_examples: Sequence[Example],
    val_examples: Sequence[Example],
    cfg: TrainConfig,
) -> TrainResult:
    """Standard fine-tuning: AdamW on prompt-masked next-token cross-entropy,
    with ROUGE-L early stopping on the validation split. When
    cfg.layerdrop_prob > 0, each non-first/non-last layer is dropped
    independently per batch."""
    if len(train_examples) == 0:
        raise ValueError("empty training corpus")
    data_rng = np.random.default_rng((cfg.seed, 0))
    drop_rng = np.random.default_rng((cfg.seed, 1))

    steps_per_epoch = math.ceil(len(train_examples) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.max_epochs
    eval_interval = max(1, round(cfg.eval_every * steps_per_epoch))
    optimizer = AdamW(sorted(model.params), cfg)

    droppable = list(range(2, model.cfg.num_layers))
    log: list[LogRow] = []
    best_metric = -np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}
    evals_since_best = 0
    step = 0
    running: list[float] = []
    stop = False

    for _epoch in range(cfg.max_epochs):
        order = data_rng.permutation(len(train_examples))
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_examples[i] for i in order[start : start + cfg.batch_size]]
            skip: set[int] | None = None
            if cfg.layerdrop_prob > 0:
                skip = draw_layerdrop(drop_rng, droppable, cfg.layerdrop_prob)
            acc: dict[str, np.ndarray] = {k: np.zeros_like(v) for k, v in model.params.items()}
            batch_loss = 0.0
            for ex in batch:
                loss, grads = sequence_loss_and_grads(model, ex, skip_layers=skip)
                if not math.isfinite(loss):
                    raise TrainingDiverged(step, loss)
                batch_loss += loss
                for name, grad in grads.items():
                    acc[name] += grad
            scale = 1.0 / len(batch)
            for name in acc:
                acc[name] *= scale
            optimizer.step(model.params, acc, _linear_lr(cfg, step, total_steps))
            running.append(batch_loss * scale)
            step += 1

            if step % eval_interval == 0 or step == total_steps:
                val_rouge, _ = _rouge_eval(model, val_examples, cfg)
                log.append(LogRow(step, "train", float(np.mean(running)), 0.0, model.cfg.num_layers))
                log.append(LogRow(step, "val", 0.0, val_rouge, model.cfg.num_layers))
                running = []
                if val_rouge > best_metric:
                    best_metric = val_rouge
                    best_params = {k: v.copy() for k, v in model.params.items()}
                    evals_since_best = 0
                else:
                    evals_since_best += 1
                    if evals_since_best > cfg.patience:
                        stop = True
                        break
        if stop:
            break

    model.params = best_params
    return TrainResult(best_params=best_params, best_metric=best_metric, log=log, steps_run=step)


def draw_layerdrop(rng: np.random.Generator, droppable: Sequence[int], prob: float) -> set[int]:
    """One batch's dropped-layer draw: each droppable layer independently
    with probability `prob`."""
    return {l for l in droppable if rng.random() < prob}


@dataclass
class ControllerTrainResult:
    controller_params: dict[str, np.ndarray]
    backbone_params: dict[str, np.ndarray]
    best_metric: float
    log: list[LogRow] = field(default_factory=list)
    steps_run: int = 0


def build_controller_sequence_graph(
    model: DecoderModel,
    bank: ControllerBank,
    teacher: DecoderModel,
    example: Example,
    alpha: float,
    gumbel_rng: np.random.Generator,
    freeze_backbone: bool,
):
    """Tape for one sequence of the cost-regularized loss: gated forward, KL
    against the frozen teacher's full-execution distributions, plus the
    per-layer gate cost. Prompt positions are forced to execute and excluded
    from both loss terms. Returns (graph, loss tensor, leaves, realized gate
    matrix, prompt_len)."""
    tok = tokenize_example(example)
    inputs = tok.full_ids[:-1]
    t = len(inputs)
    weights = _target_weights(t, tok.prompt_len)
    label_pos = np.zeros(t)
    label_pos[tok.prompt_len :] = 1.0
    prompt_pos = 1.0 - label_pos

    teacher_lp = _log_softmax_forward(teacher.forward_hidden(inputs)[1])

    g = Graph()
    backbone_leaves = graph_leaves(g, model.params, trainable=not freeze_backbone)
    ctrl_leaves = graph_leaves(g, bank.params, trainable=True)
    controlled = set(bank.layers)
    gate_nodes = []
    realized = np.ones((t, model.cfg.num_layers))
    label_leaf = g.leaf(label_pos)
    prompt_leaf = g.leaf(prompt_pos)
    ones_input = g.leaf(np.ones((t, model.cfg.hidden_dim)))

    def gates(layer: int, h_prev):
        if layer not in controlled:
            return None
        x = ones_input if bank.input_mode is InputMode.FIXED_ONES else h_prev
        logits = g.add_bias(
            g.matmul(x, ctrl_leaves[f"controller.layer{layer}.w"]),
            ctrl_leaves[f"controller.layer{layer}.b"],
        )
        noise = g.leaf(gumbel_noise(gumbel_rng, (t, 2)))
        surrogate = g.softmax(g.scale(g.add(logits, noise), 1.0 / bank.gumbel.temperature))
        exec_col = g.reshape(g.slice(surrogate, (np.s_[0:t], np.s_[1:2])), (t,))
        if not bank.gumbel.hard_forward:
            gate = exec_col
            realized[:, layer - 1] = exec_col.data
        else:
            bits = surrogate.data.argmax(axis=1).astype(np.float64)
            gate = g.straight_through(exec_col, bits)
            realized[:, layer - 1] = bits
        gate_nodes.append(gate)
        return g.add(g.multiply(gate, label_leaf), prompt_leaf)

    logits = build_graph_forward(g, backbone_leaves, model.cfg, inputs, layer_gates=gates)
    loss = build_controller_loss(g, logits, teacher_lp, gate_nodes, alpha, weights)
    leaves = {**backbone_leaves, **ctrl_leaves}
    return g, loss, leaves, realized, tok.prompt_len


def controller_sequence_loss(
    model: DecoderModel,
    bank: ControllerBank,
    teacher: DecoderModel,
    example: Example,
    alpha: float,
    gumbel_rng: np.random.Generator,
    freeze_backbone: bool,
) -> tuple[float, dict[str, np.ndarray], float]:
    """Loss, gradients, and mean realized cost per label token for one
    sequence."""
    g, loss, leaves, realized, prompt_len = build_controller_sequence_graph(
        model, bank, teacher, example, alpha, gumbel_rng, freeze_backbone
    )
    backpropagate(g, loss)
    grads: dict[str, np.ndarray] = {name: leaves[name].grad for name in bank.params}
    if not freeze_backbone:
        grads.update({name: leaves[name].grad for name in model.params})

    label_slice = realized[prompt_len:]
    mean_cost = float(label_slice.sum(axis=1).mean()) if len(label_slice) else float(model.cfg.num_layers)
    return loss.item(), grads, mean_cost


def train_controllers(
    model: DecoderModel,
    bank: ControllerBank,
    train_examples: Sequence[Example],
    val_examples: Sequence[Example],
    cfg: TrainConfig,
    alpha: float,
) -> ControllerTrainResult:
    """Optimize the gate controllers (and, unless frozen, the backbone) under
    the cost-regularized distillation loss at one alpha. The distillation
    target is the backbone snapshot taken before training starts."""
    if len(train_examples) == 0:
        raise ValueError("empty training corpus")
    teacher = DecoderModel(model.cfg, {k: v.copy() for k, v in model.params.items()})
    data_rng = np.random.default_rng((cfg.seed, 2))
    gumbel_rng = np.random.default_rng((cfg.seed, 3))

    trainable = sorted(bank.params)
    if not cfg.freeze_backbone:
        trainable += sorted(model.params)
    ctrl_optimizer = AdamW(sorted(bank.params), cfg)
    backbone_optimizer = AdamW(sorted(model.params), cfg) if not cfg.freeze_backbone else None

    steps_per_epoch = math.ceil(len(train_examples) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.max_epochs
    eval_interval = max(1, round(cfg.eval_every * steps_per_epoch))

    log: list[LogRow] = []
    best_metric = -np.inf
    best_ctrl = {k: v.copy() for k, v in bank.params.items()}
    best_backbone = {k: v.copy() for k, v in model.params.items()}
    evals_since_best = 0
    step = 0
    running_loss: list[float] = []
    running_cost: list[float] = []
    stop = False

    for _epoch in range(cfg.max_epochs):
        order = data_rng.permutation(len(train_examples))
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_examples[i] for i in order[start : start + cfg.batch_size]]
            acc = {name: None for name in trainable}
            batch_loss = 0.0
            batch_cost = 0.0
            for ex in batch:
                loss, grads, cost = controller_sequence_loss(
                    model, bank, teacher, ex, alpha, gumbel_rng, cfg.freeze_backbone
                )
                if not math.isfinite(loss):
                    raise TrainingDiverged(step, loss)
                batch_loss += loss
                batch_cost += cost
                for name in trainable:
                    acc[name] = grads[name] if acc[name] is None else acc[name] + grads[name]
            scale = 1.0 / len(batch)
            grads_avg = {name: acc[name] * scale for name in trainable}
            factor = _schedule_factor(cfg, step, total_steps)
            ctrl_optimizer.step(bank.params, grads_avg, cfg.controller_lr * factor)
            if backbone_optimizer is not None:
                backbone_optimizer.step(model.params, grads_avg, cfg.learning_rate * factor)
            running_loss.append(batch_loss * scale)
            running_cost.append(batch_cost * scale)
            step += 1

            if step % eval_interval == 0 or step == total_steps:
                val_rouge, val_cost = _rouge_eval(model, val_examples, cfg, bank=bank, seed_tag=step)
                log.append(
                    LogRow(step, "train", float(np.mean(running_loss)), 0.0, float(np.mean(running_cost)))
                )
                log.append(LogRow(step, "val", 0.0, val_rouge, val_cost))
                running_loss, running_cost = [], []
                if val_rouge > best_metric:
                    best_metric = val_rouge
                    best_ctrl = {k: v.copy() for k, v in bank.params.items()}
                    best_backbone = {k: v.copy() for k, v in model.params.items()}
                    evals_since_best = 0
                else:
                    evals_since_best += 1
                    if evals_since_best > cfg.patience:
                        stop = True
                        break
        if stop:
            break

    bank.params = best_ctrl
    model.params = best_backbone
    return ControllerTrainResult(
        controller_params=best_ctrl,
        backbone_params=best_backbone,
        best_metric=best_metric,
        log=log,
        steps_run=step,
    )
