"""Optimization: backbone fine-tuning (optionally with random layer dropout)
and cost-regularized controller training with a joint or frozen backbone,
both run by one loop. Training is fully deterministic given (seed, config,
corpus)."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

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
        if self.schedule not in ("linear", "constant"):
            raise ValueError(f"schedule must be 'linear' or 'constant', got {self.schedule!r}")

    @property
    def controller_lr(self) -> float:
        return self.learning_rate if self.controller_learning_rate is None else self.controller_learning_rate


class AdamW:
    """Decoupled weight decay Adam; decay applies to matrices only.

    Parameters are replaced, never mutated in place: tape leaves hold the
    parameter arrays uncopied. The optimizer-owned moments are updated in
    place, and the bias-corrected moments and the update are computed in two
    scratch buffers that every parameter shares (each sized to the largest
    parameter). Each step performs the operations of the textbook formula in
    the same order, so the result is bit-identical to it."""

    def __init__(self, names: Sequence[str], cfg: TrainConfig):
        self.names = list(names)
        self.cfg = cfg
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
        cfg = self.cfg
        if self.t == 0:
            buffers = np.empty((2, max((grads[name].size for name in self.names), default=0)))
            for name in self.names:
                shape = grads[name].shape
                self.m[name], self.v[name] = np.zeros(shape), np.zeros(shape)
                self._scratch[name] = tuple(buf[: grads[name].size].reshape(shape) for buf in buffers)
        self.t += 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        for name in self.names:
            g, m, v = grads[name], self.m[name], self.v[name]
            a, b = self._scratch[name]
            # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
            m *= b1
            m += np.multiply(g, 1 - b1, out=a)
            v *= b2
            np.multiply(g, g, out=a)
            a *= 1 - b2
            v += a
            # update = m_hat / (sqrt(v_hat) + eps) [+ weight_decay * param]
            np.divide(m, 1 - b1**self.t, out=a)
            np.divide(v, 1 - b2**self.t, out=b)
            np.sqrt(b, out=b)
            b += cfg.adam_eps
            a /= b
            if params[name].ndim >= 2:
                a += np.multiply(params[name], cfg.weight_decay, out=b)
            a *= lr
            params[name] = params[name] - a


@dataclass
class LogRow:
    step: int
    split: str
    loss: float
    rouge_l: float
    mean_cost: float


@dataclass
class TrainResult:
    best_metric: float
    log: list[LogRow] = field(default_factory=list)


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


def rouge_eval(
    model: DecoderModel,
    examples: Sequence[Example],
    cfg: TrainConfig,
    key: tuple[int, ...],
    bank: ControllerBank | None = None,
) -> tuple[list[float], list[np.ndarray]]:
    """Greedy generations for the first cfg.max_eval_sequences examples,
    gated by `bank` when given. Returns each one's ROUGE-L F against its
    label, and each one's realized execute bits: a (steps, L) 0/1 array with
    one row per decode step taken (zero rows when the first token is EOS).
    Generation i draws its gates from a seed derived from (*key, i)."""
    scores: list[float] = []
    bits: list[np.ndarray] = []
    for i, ex in enumerate(examples[: cfg.max_eval_sequences]):
        res = model.generate(
            tokenizer.encode(ex.prompt, add_bos=True),
            gate_fn_factory=None if bank is None else bank.gate_fn,
            max_new=cfg.eval_max_new,
            rng_seed=int(np.random.default_rng((*key, i)).integers(2**31)),
        )
        scores.append(rouge_l_text(tokenizer.decode(res.generated_ids), ex.label).f)
        bits.append(np.asarray(res.step_masks, dtype=np.int64).reshape(-1, model.cfg.num_layers))
    return scores, bits


def mean_cost(bits: Sequence[np.ndarray]) -> float:
    """Mean over generations that took a step of each one's mean executed
    layers per step; nan when none took a step."""
    costs = [b.sum(axis=1).mean() for b in bits if len(b)]
    return float(np.mean(costs)) if costs else math.nan


def _schedule_factor(cfg: TrainConfig, step: int, total_steps: int) -> float:
    if cfg.schedule == "constant":
        return 1.0
    return max(0.0, 1.0 - step / max(total_steps, 1))


SequenceStep = Callable[[Example], tuple[float, dict[str, np.ndarray], float]]


def _fit(
    model: DecoderModel,
    bank: ControllerBank | None,
    train_examples: Sequence[Example],
    val_examples: Sequence[Example],
    cfg: TrainConfig,
    data_rng: np.random.Generator,
    batch_hook: Callable[[], SequenceStep],
    groups: Sequence[tuple[dict[str, np.ndarray], float]],
) -> TrainResult:
    """The one training loop. Each epoch shuffles the training examples with
    `data_rng`; each batch calls `batch_hook` once for the per-sequence step
    that gives (loss, grads, cost), sums the gradients in sequence order and
    scales them by 1/len(batch). A nan cost (a sequence without label rows)
    is left out of the logged train cost, as `mean_cost` leaves it out. Every
    (params, base lr) group has its own AdamW, stepped at lr times the
    schedule factor. Validation ROUGE-L runs every eval interval; the
    parameters are snapshotted on a strictly better score, training stops
    after `patience` evals without one, and the best snapshot is restored
    into each group's dict."""
    if len(train_examples) == 0:
        raise ValueError("empty training corpus")
    steps_per_epoch = math.ceil(len(train_examples) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.max_epochs
    eval_interval = max(1, round(cfg.eval_every * steps_per_epoch))
    optimizers = [(params, lr, AdamW(sorted(params), cfg)) for params, lr in groups]

    log: list[LogRow] = []
    best_metric = -np.inf
    best = [{k: v.copy() for k, v in params.items()} for params, _ in groups]
    evals_since_best = 0
    step = 0
    running_loss: list[float] = []
    running_cost: list[float] = []

    # One shuffle per epoch, drawn lazily: an early stop draws no more.
    batches = (
        [train_examples[i] for i in order[start : start + cfg.batch_size]]
        for order in (data_rng.permutation(len(train_examples)) for _ in range(cfg.max_epochs))
        for start in range(0, len(order), cfg.batch_size)
    )
    for batch in batches:
        sequence_step = batch_hook()
        acc: dict[str, np.ndarray] = {}
        batch_loss = 0.0
        batch_cost, costed = 0.0, 0
        for ex in batch:
            loss, grads, cost = sequence_step(ex)
            if not math.isfinite(loss):
                raise TrainingDiverged(step, loss)
            batch_loss += loss
            if not math.isnan(cost):
                batch_cost += cost
                costed += 1
            for name, grad in grads.items():
                acc[name] = acc[name] + grad if name in acc else grad
        scale = 1.0 / len(batch)
        grads_avg = {name: grad * scale for name, grad in acc.items()}
        factor = _schedule_factor(cfg, step, total_steps)
        for params, lr, optimizer in optimizers:
            optimizer.step(params, grads_avg, lr * factor)
        running_loss.append(batch_loss * scale)
        if costed:
            running_cost.append(batch_cost * (1.0 / costed))
        step += 1

        if step % eval_interval == 0 or step == total_steps:
            scores, bits = rouge_eval(model, val_examples, cfg, (cfg.seed, 7, step), bank=bank)
            val_rouge = float(np.mean(scores))
            # the full model runs every layer, also on generations that took no step
            val_cost = float(model.cfg.num_layers) if bank is None else mean_cost(bits)
            train_cost = float(np.mean(running_cost)) if running_cost else math.nan
            log.append(LogRow(step, "train", float(np.mean(running_loss)), 0.0, train_cost))
            log.append(LogRow(step, "val", 0.0, val_rouge, val_cost))
            running_loss, running_cost = [], []
            if val_rouge > best_metric:
                best_metric = val_rouge
                best = [{k: v.copy() for k, v in params.items()} for params, _ in groups]
                evals_since_best = 0
            else:
                evals_since_best += 1
                if evals_since_best > cfg.patience:
                    break

    for (params, _), snapshot in zip(groups, best):
        params.update(snapshot)
    return TrainResult(best_metric=best_metric, log=log)


def finetune(
    model: DecoderModel,
    train_examples: Sequence[Example],
    val_examples: Sequence[Example],
    cfg: TrainConfig,
) -> TrainResult:
    """Standard fine-tuning: AdamW on prompt-masked next-token cross-entropy,
    with ROUGE-L early stopping on the validation split. When
    cfg.layerdrop_prob > 0, each non-first/non-last layer is dropped
    independently per batch. `model.params` ends holding the best weights."""
    drop_rng = np.random.default_rng((cfg.seed, 1))
    droppable = list(range(2, model.cfg.num_layers))
    full_cost = float(model.cfg.num_layers)

    def batch_hook() -> SequenceStep:
        skip = draw_layerdrop(drop_rng, droppable, cfg.layerdrop_prob) if cfg.layerdrop_prob > 0 else None
        return lambda ex: (*sequence_loss_and_grads(model, ex, skip_layers=skip), full_cost)

    data_rng = np.random.default_rng((cfg.seed, 0))
    groups = [(model.params, cfg.learning_rate)]
    return _fit(model, None, train_examples, val_examples, cfg, data_rng, batch_hook, groups)


def draw_layerdrop(rng: np.random.Generator, droppable: Sequence[int], prob: float) -> set[int]:
    """One batch's dropped-layer draw: each droppable layer independently
    with probability `prob`."""
    return {l for l in droppable if rng.random() < prob}


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

    return loss.item(), grads, mean_cost([realized[prompt_len:]])


def train_controllers(
    model: DecoderModel,
    bank: ControllerBank,
    train_examples: Sequence[Example],
    val_examples: Sequence[Example],
    cfg: TrainConfig,
    alpha: float,
) -> TrainResult:
    """Optimize the gate controllers (and, unless frozen, the backbone) under
    the cost-regularized distillation loss at one alpha. The distillation
    target is the backbone snapshot taken before training starts.
    `bank.params` and `model.params` end holding the best weights."""
    teacher = DecoderModel(model.cfg, {k: v.copy() for k, v in model.params.items()})
    gumbel_rng = np.random.default_rng((cfg.seed, 3))

    def sequence_step(ex: Example) -> tuple[float, dict[str, np.ndarray], float]:
        return controller_sequence_loss(model, bank, teacher, ex, alpha, gumbel_rng, cfg.freeze_backbone)

    data_rng = np.random.default_rng((cfg.seed, 2))
    groups = [(bank.params, cfg.controller_lr)]
    if not cfg.freeze_backbone:
        groups.append((model.params, cfg.learning_rate))
    return _fit(model, bank, train_examples, val_examples, cfg, data_rng, lambda: sequence_step, groups)
