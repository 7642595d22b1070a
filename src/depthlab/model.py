"""Toy decoder-only transformer with a routed (gated) forward pass, KV cache
with fill-in for skipped layers, and autoregressive generation.

Blocks are pre-norm multi-head causal attention plus an MLP with the
sigmoid-form GELU u * sigmoid(1.702 u), both with residual connections. Layer
l is gated by a bit G^l: when 0 the hidden state passes through unchanged and
the layer's KV entry for that position is deferred, to be filled later by
projecting the position's incoming hidden state through this layer's own
attention input path.

Where things live:
- the block is `autodiff._block_forward`, written once: LN1, q/k/v, causal
  attention in query row blocks of `autodiff._ROW_BLOCK` rows (each block
  against the keys up to its last row, so no (H, T, T) array is built), wo,
  LN2 and the MLP. It can run the query side for a selection of its
  rows only. `DecoderModel._block` calls it for every numpy forward: the
  cached `step` (one row) and `routed_forward` (the uncached suffix, T rows
  in one pass) append their k/v to the cache first and attend over the
  cache's rows. The whole-sequence `forward_hidden` and the teacher-forced
  `replay_tokens` share one loop (`_gated_states`), which attends over the
  rows' own k/v; a replay takes the prompt's states and k/v from its
  reference generation and attends over those first. Under gate bits a
  layer computes k/v for every row up to its last executed one but the
  query side only for the executed rows, so a replay costs what its
  realized depth costs. The tape forward `build_graph_forward` records each
  executed layer as one `Graph.block` node on the same function, which
  keeps the intermediates and the (H, T, T) weights its VJP reads;
- the scores and the causal softmax are `autodiff._attention_weights`, one
  in-place score buffer per query row block;
- the fill rule is `DecoderModel._kv_for_state`: K/V of a layer always derive
  from the position's incoming hidden state, so `forward_hidden` and
  `replay_tokens` under gate bits reproduce what `step` writes and later
  fills.

The cache (`KVCache`) holds keys and values in preallocated
(L, max_context, d) arrays, each on its own memory mapping so that only the
pages of cached positions become resident, and a provenance code per slot in
an int8 (L, max_context) array. A skipped layer does not touch the cache. An
executed layer first fills every absent slot below the current pass, in one
projection of those positions' incoming states, then appends its own rows. So
a layer's absent slots are always the positions since it last executed, and
one count per layer, `ready`, records them: positions below it hold K/V, and
a read up to a position below it returns views without restacking the
history. The trace (`HiddenTrace`) is one (max_context, L+1, d) array on a
mapping of its own for the same reason: a pass writes its states in place,
and a layer's fill, a replay's prompt and the probe read slices of it.
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
    when the layer executed, `absent` (a deferred fill) when it was skipped,
    `filled` once filled. `keys` and `values` are (num_layers, max_context, d)
    arrays. A layer's absent slots are filled before it appends, so they are
    always positions ready..num_positions-1, where `ready[l - 1]` counts layer
    l's leading positions that hold K/V. A pass advances `num_positions` once
    all its layers have run.
    """

    def __init__(self, num_layers: int, max_context: int, hidden_dim: int):
        self.max_context = max_context
        self.keys = _mapped_array((num_layers, max_context, hidden_dim))
        self.values = _mapped_array((num_layers, max_context, hidden_dim))
        self.prov = np.zeros((num_layers, max_context), dtype=np.int8)
        self.num_positions = 0
        self.ready = [0] * num_layers

    def _write(self, layer: int, k: np.ndarray, v: np.ndarray, code: int) -> int:
        """Write the rows k, v (t, d) from the layer's ready count on; returns the last position."""
        n = self.ready[layer - 1]
        end = n + k.shape[0]
        self.keys[layer - 1, n:end] = k
        self.values[layer - 1, n:end] = v
        self.prov[layer - 1, n:end] = code
        self.ready[layer - 1] = end
        return end - 1

    def append_computed(self, layer: int, k: np.ndarray, v: np.ndarray) -> int:
        """Append the rows k, v (t, d) of the pass at num_positions..; returns
        the last position written."""
        if self.ready[layer - 1] != self.num_positions:
            raise ValueError(f"layer {layer} holds K/V for {self.ready[layer - 1]} of {self.num_positions} positions")
        if self.num_positions + k.shape[0] > self.max_context:
            raise ValueError(f"context overflow: {self.num_positions + k.shape[0]} > max_context {self.max_context}")
        return self._write(layer, k, v, PROV_COMPUTED)

    def fill(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Fill the layer's next absent slots with the rows k, v (m, d)."""
        absent = self.num_positions - self.ready[layer - 1]
        if k.shape[0] > absent:
            raise ValueError(f"layer {layer} has {absent} absent slots, filling {k.shape[0]}")
        self._write(layer, k, v, PROV_FILLED)

    def kv_matrices(self, layer: int, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """K and V views for positions 0..upto; every slot must be readable."""
        if upto >= self.ready[layer - 1]:
            raise ValueError(f"layer {layer} holds K/V for {self.ready[layer - 1]} positions, read up to {upto}")
        return self.keys[layer - 1, : upto + 1], self.values[layer - 1, : upto + 1]

    def provenance(self) -> np.ndarray:
        """(num_layers, num_positions) provenance codes, a copy."""
        return self.prov[:, : self.num_positions].astype(np.int64)


class HiddenTrace:
    """Per position, the hidden states h^0..h^L (h^0 = embedding output).

    `states` is one (max_context, L+1, d) array on its own mapping, as the
    cache's arrays are: only the pages of processed positions become
    resident, and they go back to the system with the trace. A pass writes
    its positions' rows in place, from num_positions on, so a `rows` view
    taken earlier never changes.
    """

    def __init__(self, num_layers: int, max_context: int, hidden_dim: int):
        self.states = _mapped_array((max_context, num_layers + 1, hidden_dim))
        self.num_positions = 0

    @property
    def rows(self) -> np.ndarray:
        """The (num_positions, L+1, d) view of the processed positions."""
        return self.states[: self.num_positions]


@dataclass
class StepResult:
    logits: np.ndarray
    bits: tuple[int, ...]


@dataclass
class GenerationResult:
    prompt_ids: list[int]
    generated_ids: list[int]
    trace: HiddenTrace
    cache: KVCache
    step_masks: list[tuple[int, ...]]


def _mask_gate(bits: Sequence[int]) -> GateFn:
    return lambda layer, _h: bits[layer - 1]


class DecoderModel:
    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params
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

    def _fill_absent(self, layer: int, cache: KVCache, trace: HiddenTrace) -> None:
        """Fill the layer's absent slots, positions ready..num_positions-1,
        in one projection of their incoming hidden states."""
        ready = cache.ready[layer - 1]
        if ready < cache.num_positions:
            cache.fill(layer, *self._kv_for_state(layer, trace.states[ready : cache.num_positions, layer - 1]))

    def _block(
        self,
        layer: int,
        h: np.ndarray,
        kv: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Layer `layer`'s block on the rows `h` (t, d), `kv` and `rows` as in
        `autodiff._block_forward`."""
        return _block_forward(
            h, self._layer_params(layer), self.cfg.num_heads, self.cfg.layer_norm_eps, kv, rows=rows
        )

    # -- cached routed forward ------------------------------------------------

    def _cached_pass(
        self, h: np.ndarray, start: int, gate: GateFn, cache: KVCache, trace: HiddenTrace
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Run the embedded rows h (t, d) at positions start.. through every
        layer, appending to cache and writing the trace's rows in place.
        `gate(l, h)` gives layer l's bit for all t rows; only executed layers
        touch the cache. Returns (final hidden rows, bits)."""
        cfg = self.cfg
        if cache.num_positions != start or trace.num_positions != start:
            raise ValueError(
                f"cache/position inconsistency: cache holds {cache.num_positions} positions, stepping {start}"
            )
        states = trace.states[start : start + h.shape[0]]
        states[:, 0] = h
        bits = []
        for l in range(1, cfg.num_layers + 1):
            bit = int(gate(l, h))
            bits.append(bit)
            if bit:
                self._fill_absent(l, cache, trace)
                h = self._block(l, h, lambda k, v: cache.kv_matrices(l, cache.append_computed(l, k, v)))
            states[:, l] = h
        cache.num_positions = trace.num_positions = start + h.shape[0]
        return h, tuple(bits)

    def _logits(self, h: np.ndarray) -> np.ndarray:
        """The head's logits of the final hidden rows h: final LN, then the projection."""
        p = self.params
        x = _layer_norm_forward(h, p["final_ln.gain"], p["final_ln.bias"], self.cfg.layer_norm_eps)
        return x @ p["head.w"] + p["head.b"]

    def step(self, token_id: int, pos: int, gate_fn: GateFn, cache: KVCache, trace: HiddenTrace) -> StepResult:
        """Process one position with per-layer gating, updating cache+trace."""
        h = self.embed([token_id], start_pos=pos)
        h, bits = self._cached_pass(h, pos, lambda l, rows: gate_fn(l, rows[0]), cache, trace)
        return StepResult(self._logits(h[0]), bits)

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
        return StepResult(self._logits(h[-1]), bits)

    def new_state(self) -> tuple[KVCache, HiddenTrace]:
        cfg = self.cfg
        shape = (cfg.num_layers, cfg.max_context, cfg.hidden_dim)
        return KVCache(*shape), HiddenTrace(*shape)

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
        gate = None if gate_fn_factory is None else gate_fn_factory(rng)  # the gates draw from rng as they run
        tokens = prompt
        for _ in range(max_new):
            next_id = int(np.argmax(result.logits))
            generated.append(next_id)
            if eos_id is not None and next_id == eos_id:
                break
            if len(tokens) >= self.cfg.max_context:
                break
            pos = len(tokens)
            tokens = tokens + [next_id]
            if gate_fn_factory is None:
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
        self, reference: GenerationResult, plan: RoutePlan, rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """Teacher-forced pass over the trajectory of `reference`, a
        generation: its prompt, then every generated token it took a step on,
        each under the plan's per-step mask. Returns (hidden states
        (T, L+1, d), the realized per-step masks).

        `generate` runs the prompt under the full mask, so the prompt's states
        and K/V are read from the reference's trace and cache, not computed.
        Each generated row runs only the layers its mask executes; a layer
        still derives K/V for every generated row up to its last executed one
        (the fill rule), and a layer no row executes computes nothing."""
        prompt_len = len(reference.prompt_ids)
        ids = (reference.prompt_ids + reference.generated_ids)[: reference.trace.num_positions]
        masks: list[tuple[int, ...]] = []
        previous: RouteMask | None = None
        for _ in range(prompt_len, len(ids)):
            previous = plan.realize(rng, previous=previous)
            masks.append(previous.bits)
        gate_bits = np.asarray(masks, dtype=np.float64).reshape(-1, self.cfg.num_layers)
        return self._gated_states(ids, gate_bits, reference)[0], masks

    # -- parallel (whole-sequence) forward ------------------------------------

    def forward_hidden(
        self, token_ids: Sequence[int], gate_bits: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full-sequence causal forward without a cache.

        `gate_bits` is an optional (T, L) 0/1 matrix of per-token gates: a
        row passes a layer whose bit is 0 unchanged, and only the executed
        (row, layer) pairs run the block's query side. K/V at each layer
        always derive from the incoming hidden state, which reproduces the
        cache-fill approximation for skipped tokens. Returns (hidden states
        (T, L+1, d), logits (T, V)).
        """
        ids = list(token_ids)
        if gate_bits is not None:
            gate_bits = np.asarray(gate_bits)
            if gate_bits.shape != (len(ids), self.cfg.num_layers):
                raise ValueError(f"gate_bits has shape {gate_bits.shape}, expected {(len(ids), self.cfg.num_layers)}")
            if not ((gate_bits == 0) | (gate_bits == 1)).all():
                raise ValueError("gate_bits must be 0 or 1")
        states, h = self._gated_states(ids, gate_bits)
        return states, self._logits(h)

    def _gated_states(
        self, ids: list[int], gate_bits: np.ndarray | None, reference: GenerationResult | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hidden states (T, L+1, d) of the sequence `ids`, and the final
        rows computed here. Positions 0..P-1 are taken from `reference`,
        which computed them at every layer (P = its prompt length, 0 without
        one); `gate_bits` (T - P, L), or None for every layer, gives the
        later rows' layers. A layer derives K/V for the rows up to its last
        executed one, runs the query side for the executed rows and passes
        the others through."""
        cfg = self.cfg
        start = 0 if reference is None else len(reference.prompt_ids)
        h = self.embed(ids[start:], start_pos=start)
        states = np.empty((len(ids), cfg.num_layers + 1, cfg.hidden_dim))
        if start:
            states[:start] = reference.trace.rows[:start]
        states[start:, 0] = h
        for l in range(1, cfg.num_layers + 1):
            rows = None if gate_bits is None else np.flatnonzero(gate_bits[:, l - 1])
            if rows is None or len(rows):  # a layer that no row executes needs no K/V either
                kv = None
                if reference is not None:  # the rows follow the reference's prompt K/V
                    pk, pv = reference.cache.kv_matrices(l, start - 1)
                    kv = lambda k, v: (np.concatenate([pk, k]), np.concatenate([pv, v]))
                if rows is None or len(rows) == len(h):  # every row executes
                    h = self._block(l, h, kv)
                else:
                    h[rows] = self._block(l, h[: rows[-1] + 1], kv, rows)
            states[start:, l] = h
        return states, h


def fill_missing_kv(model: DecoderModel, cache: KVCache, trace: HiddenTrace) -> KVCache:
    """Fill every remaining absent cache slot from the nearest executed hidden
    state (the position's incoming state at that layer), using the skipped
    layer's own key/value projection path."""
    for l in range(1, model.cfg.num_layers + 1):
        model._fill_absent(l, cache, trace)
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
    h = g.add(tok, g.embedding(leaves["pos_emb"], range(T)))
    ones = None if layer_gates is None else g.leaf(np.ones(T))

    for l in range(1, cfg.num_layers + 1):
        if skip_layers and l in skip_layers:
            continue
        p = f"layer{l}."
        out = g.block(h, [leaves[p + name] for name in BLOCK_PARAMS], cfg.num_heads, eps)
        gate = layer_gates(l, h) if layer_gates is not None else None
        if gate is None:
            h = out
        else:
            h = g.add(g.scale_rows(out, gate), g.scale_rows(h, g.add(ones, g.scale(gate, -1.0))))

    hf = g.layer_norm(h, leaves["final_ln.gain"], leaves["final_ln.bias"], eps)
    return g.add_bias(g.matmul(hf, leaves["head.w"]), leaves["head.b"])
