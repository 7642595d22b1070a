"""Per-layer skip controllers: a single linear map from either the incoming
hidden state or a constant all-ones vector to two logits (skip / execute),
sampled through a Gumbel-Softmax with a straight-through forward."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .autodiff import Graph, Tensor, _softmax_forward
from .model import DecoderModel, GateFn, ModelConfig

SKIP, EXECUTE = 0, 1


class InputMode(Enum):
    HIDDEN_STATE = "hidden"
    FIXED_ONES = "fixed"


@dataclass(frozen=True)
class GumbelConfig:
    temperature: float = 1.0
    # False: training tapes forward the relaxed surrogate instead of the
    # sampled bits, a differentiable forward for gradient checks.
    hard_forward: bool = True

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def controlled_layers(cfg: ModelConfig, exclude_first: bool = True, exclude_last: bool = True) -> list[int]:
    lo = 2 if exclude_first else 1
    hi = cfg.num_layers - 1 if exclude_last else cfg.num_layers
    return list(range(lo, hi + 1))


def init_controller_params(
    cfg: ModelConfig,
    layers: Sequence[int],
    seed: int = 0,
    execute_bias: float = 2.0,
) -> dict[str, np.ndarray]:
    """One (hidden_dim x 2) linear map per controlled layer. The execute logit
    starts at +execute_bias so untrained gates do not collapse the network."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for l in layers:
        params[f"controller.layer{l}.w"] = rng.normal(0.0, 0.02, size=(cfg.hidden_dim, 2))
        params[f"controller.layer{l}.b"] = np.array([0.0, execute_bias])
    return params


def gumbel_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    u = rng.random(shape)
    return -np.log(-np.log(u + 1e-20) + 1e-20)


def gate_sample(
    logits: np.ndarray, cfg: GumbelConfig, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Sample one gate: returns the discrete execute bit and the continuous
    Gumbel-Softmax surrogate probabilities used for backpropagation."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (2,):
        raise ValueError(f"gate logits must be a 2-vector, got {logits.shape}")
    noisy = (logits + gumbel_noise(rng, (2,))) / cfg.temperature
    surrogate = _softmax_forward(noisy)
    return int(np.argmax(surrogate)), surrogate


class ControllerBank:
    """Holds the gate parameters for every controlled layer plus the sampling
    configuration, and adapts them to the model's per-layer gate interface."""

    def __init__(
        self,
        model_cfg: ModelConfig,
        params: dict[str, np.ndarray],
        input_mode: InputMode = InputMode.HIDDEN_STATE,
        gumbel: GumbelConfig = GumbelConfig(),
    ):
        self.model_cfg = model_cfg
        self.params = params
        self.input_mode = input_mode
        self.gumbel = gumbel
        self.layers = sorted(
            int(name.split("layer")[1].split(".")[0])
            for name in params
            if name.endswith(".w")
        )

    def logits_for(self, layer: int, h_prev: np.ndarray) -> np.ndarray:
        w = self.params[f"controller.layer{layer}.w"]
        b = self.params[f"controller.layer{layer}.b"]
        if self.input_mode is InputMode.FIXED_ONES:
            x = np.ones(self.model_cfg.hidden_dim)
        else:
            x = h_prev
        return x @ w + b

    def gate_fn(self, rng: np.random.Generator) -> GateFn:
        """Per-step gate callable for generation: controlled layers sample a
        Gumbel gate from the incoming hidden state, all others execute."""
        layer_set = set(self.layers)

        def fn(layer: int, h_prev: np.ndarray) -> int:
            if layer not in layer_set:
                return 1
            bit, _ = gate_sample(self.logits_for(layer, h_prev), self.gumbel, rng)
            return bit

        return fn


def build_controller_loss(
    g: Graph,
    logits: Tensor,
    target_logprobs: np.ndarray,
    gate_nodes: Sequence[Tensor],
    alpha: float,
    token_weights: np.ndarray,
) -> Tensor:
    """Cost-regularized distillation loss on the tape, averaged over tokens
    with `token_weights` (zero on prompt positions, 1/n_label on label
    positions): per token, KL(p_hat || p_target) between the model's softmax
    over `logits` and the constant teacher log-probabilities, plus alpha
    times the sum of the per-layer gate tensors.
    """
    logp_hat = g.log_softmax(logits)
    target_lp = g.leaf(target_logprobs)
    p_hat = g.softmax(logits)
    diff = g.add(logp_hat, g.scale(target_lp, -1.0))
    kl_rows = g.reduce_sum(g.multiply(p_hat, diff), axis=1)
    kl_mean = g.reduce_sum(g.multiply(kl_rows, g.leaf(token_weights)))
    if gate_nodes:
        acc = gate_nodes[0]
        for gate in gate_nodes[1:]:
            acc = g.add(acc, gate)
        cost_mean = g.reduce_sum(g.multiply(acc, g.leaf(token_weights)))
        return g.add(kl_mean, g.scale(cost_mean, alpha))
    return kl_mean


@dataclass
class SkipRatioRow:
    alpha: float
    input_mode: str
    skip_fraction: dict[int, float]
    steps: int


def skip_ratio_report(
    model: DecoderModel,
    bank: ControllerBank,
    prompts: Sequence[Sequence[int]],
    alpha: float,
    max_new: int = 32,
    seed: int = 0,
) -> SkipRatioRow:
    """Fraction of generated-token steps where each controlled layer's gate
    chose skip, measured by running controller-routed generation without an
    EOS stop: every prompt contributes exactly max_new steps, which keeps the
    measurement well-defined even when generations end immediately."""
    if len(prompts) == 0:
        raise ValueError("empty corpus")
    counts = {l: 0 for l in bank.layers}
    steps = 0
    for i, prompt in enumerate(prompts):
        res = model.generate(
            prompt,
            gate_fn_factory=bank.gate_fn,
            max_new=max_new,
            rng_seed=int(np.random.default_rng((seed, i)).integers(2**31)),
            eos_id=None,
        )
        for bits in res.step_masks:
            steps += 1
            for l in bank.layers:
                if bits[l - 1] == 0:
                    counts[l] += 1
    if steps == 0:
        raise ValueError("no generated steps to measure")
    return SkipRatioRow(
        alpha=alpha,
        input_mode=bank.input_mode.value,
        skip_fraction={l: counts[l] / steps for l in bank.layers},
        steps=steps,
    )
