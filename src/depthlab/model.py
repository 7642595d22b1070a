"""Toy decoder-only transformer with a routed (gated) forward pass, KV cache
with fill-in for skipped layers, and autoregressive generation.

Blocks are pre-norm multi-head causal attention plus a GELU MLP, both with
residual connections. Layer l is gated by a bit G^l: when 0 the hidden state
passes through unchanged and the layer's KV entry for that position is
deferred, to be filled later by projecting the position's incoming hidden
state through this layer's own attention input path.

Where things live:
- the block is `autodiff._block_forward`, written once: LN1, q/k/v, causal
  attention in query row blocks of `autodiff._ROW_BLOCK` rows (each block
  against the keys up to its last row, so no (H, T, T) array is built), wo,
  LN2 and the GELU MLP. `DecoderModel._block` calls it for every numpy
  forward: the whole-sequence `forward_hidden` attends over the rows' own
  k/v, while the cached `step` (one row) and `routed_forward` (the uncached
  suffix, T rows in one pass) append their k/v to the cache first and attend
  over the cache's rows. The tape forward `build_graph_forward` records each
  executed layer as one `Graph.block` node on the same function, which keeps
  the intermediates and the (H, T, T) weights its VJP reads;
- the scores and the causal softmax are `autodiff._attention_weights`, one
  in-place score buffer per query row block;
- the fill rule is `DecoderModel._kv_for_state`: K/V of a layer always derive
  from the position's incoming hidden state, so `forward_hidden` under gate
  bits reproduces what `step` writes and later fills.

The cache (`KVCache`) holds keys and values in preallocated
(L, max_context, d) arrays, each on its own memory mapping so that only the
pages of cached positions become resident, and a provenance code per slot in
an int8 (L, max_context) array. Each layer keeps an ordered list of its pending
(absent) positions: an executed layer fills that list from its head before it
attends, so a read checks only the head, returns views and never restacks the
history. A skipped layer appends absent slots to the list.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import (
    BLOCK_PARAMS,
    Graph,
    Tensor,
    _block_forward,
    _layer_norm_forward,
    _softmax_forward,
    block_param_shapes,
)
from .routing import RouteMask, RoutePlan, full_mask
from . import tokenizer

PROV_ABSENT = 0
PROV_COMPUTED = 1
PROV_FILLED = 2

# gate_fn(layer, incoming_hidden_row) -> execute bit
GateFn = Callable[[int, np.ndarray], int]


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 8
    hidden_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 256
    vocab_size: int = tokenizer.VOCAB_SIZE
    max_context: int = 256
    layer_norm_eps: float = 1e-5

    def __post_init__(self) -> None:
        if min(self.num_layers, self.hidden_dim, self.num_heads, self.ffn_dim, self.vocab_size) < 1:
            raise ValueError("all model dimensions must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.max_context < 2:
            raise ValueError("max_context must be >= 2")


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (cfg.vocab_size, cfg.hidden_dim),
        "pos_emb": (cfg.max_context, cfg.hidden_dim),
        "final_ln.gain": (cfg.hidden_dim,),
        "final_ln.bias": (cfg.hidden_dim,),
        "head.w": (cfg.hidden_dim, cfg.vocab_size),
        "head.b": (cfg.vocab_size,),
    }
    block = block_param_shapes(cfg.hidden_dim, cfg.ffn_dim)
    for l in range(1, cfg.num_layers + 1):
        shapes.update((f"layer{l}.{name}", shape) for name, shape in block.items())
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(("ln1.gain", "ln2.gain", "final_ln.gain")):
            params[name] = np.ones(shape)
        elif name.endswith((".bias", "b1", "b2", "bq", "bk", "bv", "bo", "head.b")):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, 0.02, size=shape)
    return params


def _mapped_array(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array on its own anonymous memory mapping: a page becomes
    resident when first written and goes back to the system when the array is
    freed. A cache is sized for max_context but usually holds fewer
    positions; allocated from the heap, its unwritten pages may be ones that
    are already resident, and they stay pinned while the cache lives."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


class KVCache:
    """Per-layer, per-position key/value rows with provenance tracking.

    Every processed position occupies one slot at every layer: `computed`
    when the layer executed, `absent` (a deferred fill) when it was skipped.
    Slots are immutable once written with a non-absent value. `keys` and
    `values` are (num_layers, max_context, d) arrays; `pending[l - 1]` lists
    layer l's absent positions in increasing order.
    """

    def __init__(self, num_layers: int, max_context: int, hidden_dim: int):
        self.num_layers = num_layers
        self.max_context = max_context
        self.keys = _mapped_array((num_layers, max_context, hidden_dim))
        self.values = _mapped_array((num_layers, max_context, hidden_dim))
        self.prov = np.zeros((num_layers, max_context), dtype=np.int8)
        self.lengths = [0] * num_layers
        self.pending: list[list[int]] = [[] for _ in range(num_layers)]

    @property
    def num_positions(self) -> int:
        return self.lengths[0]

    def _extend(self, layer: int, t: int) -> int:
        """Claim the next t slots of a layer; returns the first."""
        n = self.lengths[layer - 1]
        if n + t > self.max_context:
            raise ValueError(f"context overflow: {n + t} > max_context {self.max_context}")
        self.lengths[layer - 1] = n + t
        return n

    def append_computed(self, layer: int, k: np.ndarray, v: np.ndarray) -> int:
        """Append the rows k, v (t, d); returns the last position written."""
        n = self._extend(layer, k.shape[0])
        end = n + k.shape[0]
        self.keys[layer - 1, n:end] = k
        self.values[layer - 1, n:end] = v
        self.prov[layer - 1, n:end] = PROV_COMPUTED
        return end - 1

    def append_absent(self, layer: int, t: int) -> None:
        n = self._extend(layer, t)
        self.pending[layer - 1].extend(range(n, n + t))

    def fill(self, layer: int, position: int, k: np.ndarray, v: np.ndarray) -> None:
        if position >= self.lengths[layer - 1] or self.prov[layer - 1, position] != PROV_ABSENT:
            raise ValueError(f"layer {layer} position {position} already written or not yet cached")
        self.keys[layer - 1, position] = k
        self.values[layer - 1, position] = v
        self.prov[layer - 1, position] = PROV_FILLED
        self.pending[layer - 1].remove(position)

    def kv_matrices(self, layer: int, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """K and V views for positions 0..upto; every slot must be readable."""
        if upto >= self.lengths[layer - 1]:
            raise ValueError(f"layer {layer} holds {self.lengths[layer - 1]} positions, read up to {upto}")
        pending = self.pending[layer - 1]
        if pending and pending[0] <= upto:
            raise ValueError(f"layer {layer} position {pending[0]} is absent at read time")
        return self.keys[layer - 1, : upto + 1], self.values[layer - 1, : upto + 1]

    def provenance(self) -> np.ndarray:
        """(num_layers, num_positions) provenance codes, a copy."""
        return self.prov[:, : self.num_positions].astype(np.int64)


class HiddenTrace:
    """Per position, the hidden states h^0..h^L (h^0 = embedding output)."""

    def __init__(self, num_layers: int, hidden_dim: int):
        self.num_layers = num_layers
        self.hidden_dim = hidden_dim
        self.rows: list[np.ndarray] = []  # each (L+1, d)

    def append(self, states: np.ndarray) -> None:
        """Append the states (t, L+1, d) of t consecutive positions."""
        if states.shape[1:] != (self.num_layers + 1, self.hidden_dim):
            raise ValueError(f"trace rows shape {states.shape}")
        self.rows.extend(states)

    def h(self, position: int, layer: int) -> np.ndarray:
        return self.rows[position][layer]

    @property
    def num_positions(self) -> int:
        return len(self.rows)


@dataclass
class StepResult:
    probs: np.ndarray
    logits: np.ndarray
    bits: tuple[int, ...]


@dataclass
class GenerationResult:
    prompt_ids: list[int]
    generated_ids: list[int]
    trace: HiddenTrace
    cache: KVCache
    step_masks: list[tuple[int, ...]]

    @property
    def step_costs(self) -> list[int]:
        return [sum(m) for m in self.step_masks]


def _mask_gate(bits: Sequence[int]) -> GateFn:
    return lambda layer, _h: bits[layer - 1]


class DecoderModel:
    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray] | None = None, seed: int = 0):
        self.cfg = cfg
        self.params = params if params is not None else init_params(cfg, seed)
        for name, shape in param_shapes(cfg).items():
            if self.params[name].shape != shape:
                raise ValueError(f"parameter {name} has shape {self.params[name].shape}, expected {shape}")
        # Each layer's parameter names in `BLOCK_PARAMS` order. Only names are
        # kept: `AdamW` replaces the arrays in `params`.
        self._block_names = [
            tuple(f"layer{l}.{name}" for name in BLOCK_PARAMS) for l in range(1, cfg.num_layers + 1)
        ]

    # -- basic pieces -------------------------------------------------------

    def embed(self, token_ids: Sequence[int], start_pos: int = 0) -> np.ndarray:
        """Token + position embedding for a run of consecutive positions."""
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.cfg.vocab_size):
            raise ValueError("token id out of range")
        if start_pos + ids.size > self.cfg.max_context:
            raise ValueError(
                f"context overflow: {start_pos + ids.size} > max_context {self.cfg.max_context}"
            )
        return self.params["tok_emb"][ids] + self.params["pos_emb"][start_pos : start_pos + ids.size]

    def _ln(self, x: np.ndarray, prefix: str) -> np.ndarray:
        return _layer_norm_forward(
            x, self.params[prefix + ".gain"], self.params[prefix + ".bias"], self.cfg.layer_norm_eps
        )

    def _kv_for_state(self, layer: int, h_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Key/value rows this layer derives from an incoming hidden state:
        the fill of a skipped position, the same LN1 and projections that
        `_block` applies to an executed one."""
        g1, c1, _wq, wk, wv, _wo, _bq, bk, bv, *_ = self._layer_params(layer)
        x = _layer_norm_forward(h_in, g1, c1, self.cfg.layer_norm_eps)
        return x @ wk + bk, x @ wv + bv

    def _layer_params(self, layer: int) -> list[np.ndarray]:
        """Layer `layer`'s parameter arrays in `BLOCK_PARAMS` order."""
        return [self.params[name] for name in self._block_names[layer - 1]]

    def _fill_absent(self, layer: int, cache: KVCache, trace: HiddenTrace, upto: int) -> None:
        """Fill the layer's pending slots at positions 0..upto, in order, one
        row at a time from each position's incoming hidden state."""
        pending = cache.pending[layer - 1]
        while pending and pending[0] <= upto:
            j = pending[0]
            k, v = self._kv_for_state(layer, trace.h(j, layer - 1))
            cache.fill(layer, j, k, v)

    def _block(self, layer: int, h: np.ndarray, cache: KVCache | None = None) -> np.ndarray:
        """One transformer block on the rows `h` (t, d). Without a cache the
        rows attend causally among themselves; with one they are the next t
        positions: their k/v are appended to the cache and they attend over
        every cached row of the layer, which must all be readable."""
        kv = None
        if cache is not None:
            kv = lambda k, v: cache.kv_matrices(layer, cache.append_computed(layer, k, v))
        return _block_forward(h, self._layer_params(layer), self.cfg.num_heads, self.cfg.layer_norm_eps, kv)

    # -- cached routed forward ------------------------------------------------

    def _cached_pass(
        self, h: np.ndarray, start: int, gate: GateFn, cache: KVCache, trace: HiddenTrace
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Run the embedded rows h (t, d) at positions start.. through every
        layer, appending to cache and trace. `gate(l, h)` gives layer l's bit
        for all t rows. Returns (final hidden rows, bits)."""
        cfg = self.cfg
        if cache.num_positions != start or trace.num_positions != start:
            raise ValueError(
                f"cache/position inconsistency: cache holds {cache.num_positions} positions, stepping {start}"
            )
        states = np.empty((h.shape[0], cfg.num_layers + 1, cfg.hidden_dim))
        states[:, 0] = h
        bits = []
        for l in range(1, cfg.num_layers + 1):
            bit = int(gate(l, h))
            bits.append(bit)
            if bit:
                self._fill_absent(l, cache, trace, start - 1)
                h = self._block(l, h, cache)
            else:
                cache.append_absent(l, h.shape[0])
            states[:, l] = h
        trace.append(states)
        return h, tuple(bits)

    def _head(self, h_row: np.ndarray, bits: tuple[int, ...]) -> StepResult:
        logits = self._ln(h_row, "final_ln") @ self.params["head.w"] + self.params["head.b"]
        return StepResult(probs=_softmax_forward(logits), logits=logits, bits=bits)

    def step(self, token_id: int, pos: int, gate_fn: GateFn, cache: KVCache, trace: HiddenTrace) -> StepResult:
        """Process one position with per-layer gating, updating cache+trace."""
        h = self.embed([token_id], start_pos=pos)
        h, bits = self._cached_pass(h, pos, lambda l, rows: gate_fn(l, rows[0]), cache, trace)
        return self._head(h[0], bits)

    def routed_forward(
        self,
        token_ids: Sequence[int],
        mask: RouteMask,
        cache: KVCache,
        trace: HiddenTrace,
    ) -> StepResult:
        """Run the not-yet-cached suffix of the sequence under one mask, all
        of its positions in one pass. Returns the result at the final
        position."""
        if len(mask.bits) != self.cfg.num_layers:
            raise ValueError(f"mask has {len(mask.bits)} bits for {self.cfg.num_layers} layers")
        start = cache.num_positions
        if start >= len(token_ids):
            raise ValueError("no new positions to process")
        h = self.embed(token_ids[start:], start_pos=start)
        h, bits = self._cached_pass(h, start, _mask_gate(mask.bits), cache, trace)
        return self._head(h[-1], bits)

    def new_state(self) -> tuple[KVCache, HiddenTrace]:
        cfg = self.cfg
        return KVCache(cfg.num_layers, cfg.max_context, cfg.hidden_dim), HiddenTrace(cfg.num_layers, cfg.hidden_dim)

    # -- generation -----------------------------------------------------------

    def generate(
        self,
        prompt_ids: Sequence[int],
        plan: RoutePlan | None = None,
        max_new: int = 64,
        rng_seed: int = 0,
        gate_fn_factory: Callable[[np.random.Generator], GateFn] | None = None,
        eos_id: int | None = tokenizer.EOS,
    ) -> GenerationResult:
        """Autoregressive decoding. The prompt always runs under the full mask;
        routing applies to generated positions only. Decoding is greedy;
        `rng_seed` seeds the gates and random-skip masks."""
        if len(prompt_ids) == 0:
            raise ValueError("empty prompt")
        if plan is None and gate_fn_factory is None:
            plan = RoutePlan.full(self.cfg.num_layers)
        cache, trace = self.new_state()
        rng = np.random.default_rng(rng_seed)

        prompt = list(prompt_ids)
        fm = full_mask(self.cfg.num_layers)
        result = self.routed_forward(prompt, fm, cache, trace)

        generated: list[int] = []
        step_masks: list[tuple[int, ...]] = []
        previous_mask: RouteMask | None = None
        tokens = prompt
        for _ in range(max_new):
            next_id = int(np.argmax(result.probs))
            generated.append(next_id)
            if eos_id is not None and next_id == eos_id:
                break
            if len(tokens) >= self.cfg.max_context:
                break
            pos = len(tokens)
            tokens = tokens + [next_id]
            if gate_fn_factory is not None:
                gate = gate_fn_factory(rng)
            else:
                assert plan is not None
                previous_mask = plan.realize(rng, previous=previous_mask)
                gate = _mask_gate(previous_mask.bits)
            result = self.step(next_id, pos, gate, cache, trace)
            step_masks.append(result.bits)
        return GenerationResult(
            prompt_ids=prompt,
            generated_ids=generated,
            trace=trace,
            cache=cache,
            step_masks=step_masks,
        )

    def replay_tokens(
        self,
        token_ids: Sequence[int],
        prompt_len: int,
        plan: RoutePlan,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """Teacher-forced pass over a fixed token sequence: prompt under the
        full mask, each later position under the plan's per-step mask.
        Returns (hidden states (T, L+1, d), the realized per-step masks)."""
        if not 1 <= prompt_len <= len(token_ids):
            raise ValueError("prompt_len out of range")
        masks: list[tuple[int, ...]] = []
        previous: RouteMask | None = None
        for _ in range(prompt_len, len(token_ids)):
            previous = plan.realize(rng, previous=previous)
            masks.append(previous.bits)
        gate_bits = np.ones((len(token_ids), self.cfg.num_layers))
        gate_bits[prompt_len:] = np.asarray(masks).reshape(-1, self.cfg.num_layers)
        states, _ = self.forward_hidden(token_ids, gate_bits=gate_bits)
        return states, masks

    # -- parallel (whole-sequence) forward ------------------------------------

    def forward_hidden(
        self, token_ids: Sequence[int], gate_bits: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full-sequence causal forward without a cache.

        `gate_bits` is an optional (T, L) 0/1 matrix of per-token gates. K/V
        at each layer always derive from the incoming hidden state, which
        reproduces the cache-fill approximation for skipped tokens. Returns
        (hidden states (T, L+1, d), logits (T, V)).
        """
        ids = list(token_ids)
        h = self.embed(ids)
        states = np.empty((len(ids), self.cfg.num_layers + 1, self.cfg.hidden_dim))
        states[:, 0] = h
        for l in range(1, self.cfg.num_layers + 1):
            out = self._block(l, h)
            if gate_bits is not None:
                gates = gate_bits[:, l - 1 : l]
                h = gates * out + (1.0 - gates) * h
            else:
                h = out
            states[:, l] = h
        logits = self._ln(h, "final_ln") @ self.params["head.w"] + self.params["head.b"]
        return states, logits


def fill_missing_kv(model: DecoderModel, cache: KVCache, trace: HiddenTrace) -> KVCache:
    """Fill every remaining absent cache slot from the nearest executed hidden
    state (the position's incoming state at that layer), using the skipped
    layer's own key/value projection path."""
    upto = cache.num_positions - 1
    for l in range(1, model.cfg.num_layers + 1):
        model._fill_absent(l, cache, trace, upto)
    return cache


# ---------------------------------------------------------------------------
# Tape (differentiable) forward for training
# ---------------------------------------------------------------------------


def graph_leaves(g: Graph, params: dict[str, np.ndarray], trainable: bool = True) -> dict[str, Tensor]:
    return {name: g.leaf(value, requires_grad=trainable) for name, value in params.items()}


def build_graph_forward(
    g: Graph,
    leaves: dict[str, Tensor],
    cfg: ModelConfig,
    token_ids: Sequence[int],
    layer_gates: Callable[[int, Tensor], Tensor | None] | None = None,
    skip_layers: set[int] | None = None,
) -> Tensor:
    """Differentiable full-sequence forward on a tape.

    `layer_gates(l, h_prev)` may return a (T,) tensor of per-token execute
    gates for layer l (or None to run it ungated). Layers in `skip_layers`
    are left off the graph entirely. Returns the (T, vocab) logits tensor.
    """
    ids = list(token_ids)
    T = len(ids)
    eps = cfg.layer_norm_eps
    tok = g.embedding(leaves["tok_emb"], ids)
    pos = g.slice(leaves["pos_emb"], (np.s_[0:T], np.s_[0 : cfg.hidden_dim]))
    h = g.add(tok, pos)

    for l in range(1, cfg.num_layers + 1):
        if skip_layers and l in skip_layers:
            continue
        p = f"layer{l}."
        out = g.block(h, [leaves[p + name] for name in BLOCK_PARAMS], cfg.num_heads, eps)
        gate = layer_gates(l, h) if layer_gates is not None else None
        if gate is None:
            h = out
        else:
            ones = g.leaf(np.ones(T))
            h = g.add(g.scale_rows(out, gate), g.scale_rows(h, g.add(ones, g.scale(gate, -1.0))))

    hf = g.layer_norm(h, leaves["final_ln.gain"], leaves["final_ln.bias"], eps)
    return g.add_bias(g.matmul(hf, leaves["head.w"]), leaves["head.b"])
