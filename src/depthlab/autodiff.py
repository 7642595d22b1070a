"""Dense float64 tensors on a replayable operation tape with reverse-mode
differentiation. Just enough machinery for a toy decoder transformer and
linear gate controllers: strict shapes, no implicit broadcasting, explicit
ops for the few structured patterns (bias add, per-row scaling)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op


class NonDifferentiableError(RuntimeError):
    pass


class NonFiniteError(RuntimeError):
    pass


@dataclass
class Tensor:
    """Row-major float64 array plus gradient bookkeeping. `node_id` indexes
    the owning graph's tape."""

    data: np.ndarray
    requires_grad: bool = False
    grad: np.ndarray | None = None
    node_id: int = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


@dataclass
class Node:
    op: str
    input_ids: tuple[int, ...]
    tensor: Tensor
    attrs: dict = field(default_factory=dict)


def _f64(value) -> np.ndarray:
    return np.array(value, dtype=np.float64, order="C")


# Ops whose outputs carry no usable gradient.
NON_DIFFERENTIABLE = {"argmax"}


class Graph:
    """Topologically ordered tape of operations.

    Built eagerly: each op method computes its output immediately and records
    a node. The tape can then be replayed with fresh leaf bindings
    (`evaluate`) or swept in reverse for gradients (`backpropagate`). Graphs
    are append-only; a finished graph is safe to share read-only, but a single
    evaluation or backward pass is single-threaded.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.input_names: dict[str, int] = {}
        self.output_names: dict[str, int] = {}

    # -- construction -------------------------------------------------------

    def _record(self, op: str, inputs: Sequence[Tensor], data: np.ndarray, attrs: dict | None = None) -> Tensor:
        requires = any(t.requires_grad for t in inputs)
        out = Tensor(data=data, requires_grad=requires, node_id=len(self.nodes))
        self.nodes.append(Node(op, tuple(t.node_id for t in inputs), out, attrs or {}))
        return out

    def leaf(self, value, requires_grad: bool = False, name: str | None = None) -> Tensor:
        out = Tensor(_f64(value), requires_grad=requires_grad, node_id=len(self.nodes))
        self.nodes.append(Node("leaf", (), out, {"name": name}))
        return out

    def input(self, name: str, value, requires_grad: bool = False) -> Tensor:
        """A named leaf that `evaluate` requires a binding for."""
        if name in self.input_names:
            raise ValueError(f"duplicate input name {name!r}")
        out = self.leaf(value, requires_grad=requires_grad, name=name)
        self.input_names[name] = out.node_id
        return out

    def mark_output(self, name: str, tensor: Tensor) -> Tensor:
        if name in self.output_names:
            raise ValueError(f"duplicate output name {name!r}")
        self.output_names[name] = tensor.node_id
        return tensor

    # -- ops ----------------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ShapeError("matmul", f"needs 2-d operands, got {a.shape} and {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ShapeError("matmul", f"inner dims differ: {a.shape} @ {b.shape}")
        return self._record("matmul", (a, b), a.data @ b.data)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError("add", f"shapes differ: {a.shape} vs {b.shape}")
        return self._record("add", (a, b), a.data + b.data)

    def multiply(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError("multiply", f"shapes differ: {a.shape} vs {b.shape}")
        return self._record("multiply", (a, b), a.data * b.data)

    def scale(self, a: Tensor, factor: float) -> Tensor:
        return self._record("scale", (a,), a.data * factor, {"factor": float(factor)})

    def add_bias(self, x: Tensor, bias: Tensor) -> Tensor:
        if x.data.ndim != 2 or bias.data.ndim != 1 or x.shape[1] != bias.shape[0]:
            raise ShapeError("add_bias", f"needs (t,d)+(d,), got {x.shape} and {bias.shape}")
        return self._record("add_bias", (x, bias), x.data + bias.data)

    def scale_rows(self, x: Tensor, scales: Tensor) -> Tensor:
        if x.data.ndim != 2 or scales.data.ndim != 1 or x.shape[0] != scales.shape[0]:
            raise ShapeError("scale_rows", f"needs (t,d)*(t,), got {x.shape} and {scales.shape}")
        return self._record("scale_rows", (x, scales), x.data * scales.data[:, None])

    def layer_norm(self, x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
        if x.data.ndim != 2:
            raise ShapeError("layer_norm", f"needs (t,d) input, got {x.shape}")
        if gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
            raise ShapeError(
                "layer_norm", f"gain/bias must be ({x.shape[1]},), got {gain.shape}/{bias.shape}"
            )
        out = _layer_norm_forward(x.data, gain.data, bias.data, eps)
        return self._record("layer_norm", (x, gain, bias), out, {"eps": float(eps)})

    def softmax(self, x: Tensor) -> Tensor:
        return self._record("softmax", (x,), _softmax_forward(x.data))

    def log_softmax(self, x: Tensor) -> Tensor:
        return self._record("log_softmax", (x,), _log_softmax_forward(x.data))

    def gelu(self, x: Tensor) -> Tensor:
        cdf_term = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
        return self._record("gelu", (x,), x.data * cdf_term, {"cdf": cdf_term})

    def embedding(self, table: Tensor, ids: Sequence[int]) -> Tensor:
        if table.data.ndim != 2:
            raise ShapeError("embedding", f"table must be 2-d, got {table.shape}")
        idx = np.asarray(ids, dtype=np.int64)
        if idx.ndim != 1:
            raise ShapeError("embedding", f"ids must be 1-d, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
            raise ShapeError("embedding", f"id out of range for table with {table.shape[0]} rows")
        return self._record("embedding", (table,), table.data[idx], {"ids": idx})

    def concatenate(self, parts: Sequence[Tensor], axis: int = 0) -> Tensor:
        if not parts:
            raise ShapeError("concatenate", "needs at least one input")
        data = np.concatenate([p.data for p in parts], axis=axis)
        sizes = [p.shape[axis] for p in parts]
        return self._record("concatenate", tuple(parts), data, {"axis": axis, "sizes": sizes})

    def slice(self, x: Tensor, key: tuple[slice, ...]) -> Tensor:
        spans = tuple((s.start, s.stop) for s in key)
        return self._record("slice", (x,), x.data[key].copy(), {"spans": spans})

    def transpose(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2:
            raise ShapeError("transpose", f"needs 2-d input, got {x.shape}")
        return self._record("transpose", (x,), x.data.T.copy())

    def reshape(self, x: Tensor, shape: tuple[int, ...]) -> Tensor:
        if int(np.prod(shape)) != x.data.size:
            raise ShapeError("reshape", f"cannot reshape {x.shape} to {shape}")
        return self._record("reshape", (x,), x.data.reshape(shape).copy(), {"shape": tuple(shape)})

    def reduce_sum(self, x: Tensor, axis: int | None = None) -> Tensor:
        return self._record("reduce_sum", (x,), np.asarray(x.data.sum(axis=axis)), {"axis": axis})

    def reduce_mean(self, x: Tensor, axis: int | None = None) -> Tensor:
        return self._record("reduce_mean", (x,), np.asarray(x.data.mean(axis=axis)), {"axis": axis})

    def log(self, x: Tensor) -> Tensor:
        return self._record("log", (x,), np.log(x.data))

    def exponential(self, x: Tensor) -> Tensor:
        return self._record("exponential", (x,), np.exp(x.data))

    def take_per_row(self, x: Tensor, ids: Sequence[int]) -> Tensor:
        if x.data.ndim != 2:
            raise ShapeError("take_per_row", f"needs (t,d) input, got {x.shape}")
        idx = np.asarray(ids, dtype=np.int64)
        if idx.shape != (x.shape[0],):
            raise ShapeError("take_per_row", f"ids shape {idx.shape} != ({x.shape[0]},)")
        out = x.data[np.arange(x.shape[0]), idx].copy()
        return self._record("take_per_row", (x,), out, {"ids": idx})

    def straight_through(self, soft: Tensor, hard_values) -> Tensor:
        """Forward the (constant) hard values, route the gradient to `soft`."""
        hard = _f64(hard_values)
        if hard.shape != soft.shape:
            raise ShapeError("straight_through", f"hard {hard.shape} vs soft {soft.shape}")
        return self._record("straight_through", (soft,), hard.copy(), {"hard": hard})

    def causal_attention(self, q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
        """Fused multi-head causal attention over a full sequence: one node
        instead of a per-head op chain. q/k/v are (T, d) with d divisible by
        num_heads."""
        if q.shape != k.shape or q.shape != v.shape or q.data.ndim != 2:
            raise ShapeError("causal_attention", f"q/k/v must share a (t,d) shape, got {q.shape}/{k.shape}/{v.shape}")
        if q.shape[1] % num_heads != 0:
            raise ShapeError("causal_attention", f"dim {q.shape[1]} not divisible by {num_heads} heads")
        weights = _attention_weights(q.data, k.data, num_heads)
        out = _attention_apply(weights, v.data)
        return self._record(
            "causal_attention", (q, k, v), out, {"num_heads": num_heads, "weights": weights}
        )

    def argmax(self, x: Tensor, axis: int = -1) -> Tensor:
        """Index of the row maximum; carries no gradient."""
        return self._record(
            "argmax", (x,), x.data.argmax(axis=axis).astype(np.float64), {"axis": axis}
        )


# ---------------------------------------------------------------------------
# Forward kernels shared by eager construction and replay
# ---------------------------------------------------------------------------


def _softmax_forward(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_forward(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _gelu_forward(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def _layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float) -> np.ndarray:
    # sum / d is bit-identical to mean and skips numpy's Python-level mean
    # wrapper, which dominates on the single rows of a decode step.
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    return xc / np.sqrt(var + eps) * gain + bias


def _heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(T, d) rows as (H, T, d / H) head-leading blocks."""
    return x.reshape(x.shape[0], num_heads, -1).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of `_heads`: (H, T, d / H) back to (T, d)."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _attention_weights(q: np.ndarray, k: np.ndarray, num_heads: int) -> np.ndarray:
    """(H, Tq, Tk) causal softmax weights for q (Tq, d) against k (Tk, d),
    Tq <= Tk: query row i sits at position Tk - Tq + i and attends to keys
    0..Tk - Tq + i. The one attention kernel of the package: the tape op, the
    whole-sequence forward and the incremental decode step all use it.

    Works in one score buffer: scale, mask, shift, exp and normalise in
    place, with `exp` only over the attended keys (exp of the masked -inf
    half takes numpy's slow underflow path)."""
    tq, tk = q.shape[0], k.shape[0]
    w = _heads(q, num_heads) @ _heads(k, num_heads).transpose(0, 2, 1)
    w /= math.sqrt(q.shape[1] // num_heads)
    past = np.tri(tq, tk, tk - tq, dtype=bool)
    future = ~past
    np.copyto(w, -np.inf, where=future)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w, where=past)
    np.copyto(w, 0.0, where=future)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _attention_apply(weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(Tq, d) attention output from (H, Tq, Tk) weights and v (Tk, d)."""
    return _merge_heads(weights @ _heads(v, weights.shape[0]))


def _vjp_causal_attention(g, ins, out, at):
    q, k, v = ins
    num_heads = at["num_heads"]
    qh, kh, vh, gh = (_heads(x, num_heads) for x in (q, k, v, g))
    weights = at.get("weights")
    if weights is None:
        weights = _attention_weights(q, k, num_heads)
    # The score gradient w * (g_w - sum_j w_ij g_w_ij) is built in place in
    # the g_w buffer. The row sum equals g_i . out_i (out = w v), which costs
    # (H, T, d_h) instead of another (H, T, T) product.
    g_scores = gh @ vh.transpose(0, 2, 1)
    g_scores -= (gh * _heads(out, num_heads)).sum(axis=-1, keepdims=True)
    g_scores *= weights
    g_scores /= math.sqrt(q.shape[1] // num_heads)
    gq = g_scores @ kh
    gk = g_scores.transpose(0, 2, 1) @ qh
    gv = weights.transpose(0, 2, 1) @ gh
    return [_merge_heads(gq), _merge_heads(gk), _merge_heads(gv)]


_FORWARD: dict[str, Callable] = {
    "matmul": lambda ins, at: ins[0] @ ins[1],
    "add": lambda ins, at: ins[0] + ins[1],
    "multiply": lambda ins, at: ins[0] * ins[1],
    "scale": lambda ins, at: ins[0] * at["factor"],
    "add_bias": lambda ins, at: ins[0] + ins[1],
    "scale_rows": lambda ins, at: ins[0] * ins[1][:, None],
    "layer_norm": lambda ins, at: _layer_norm_forward(ins[0], ins[1], ins[2], at["eps"]),
    "softmax": lambda ins, at: _softmax_forward(ins[0]),
    "log_softmax": lambda ins, at: _log_softmax_forward(ins[0]),
    "gelu": lambda ins, at: _gelu_forward(ins[0]),
    "embedding": lambda ins, at: ins[0][at["ids"]],
    "causal_attention": lambda ins, at: _attention_apply(
        _attention_weights(ins[0], ins[1], at["num_heads"]), ins[2]
    ),
    "concatenate": lambda ins, at: np.concatenate(list(ins), axis=at["axis"]),
    "slice": lambda ins, at: ins[0][tuple(np.s_[a:b] for a, b in at["spans"])].copy(),
    "transpose": lambda ins, at: ins[0].T.copy(),
    "reshape": lambda ins, at: ins[0].reshape(at["shape"]).copy(),
    "reduce_sum": lambda ins, at: np.asarray(ins[0].sum(axis=at["axis"])),
    "reduce_mean": lambda ins, at: np.asarray(ins[0].mean(axis=at["axis"])),
    "log": lambda ins, at: np.log(ins[0]),
    "exponential": lambda ins, at: np.exp(ins[0]),
    "take_per_row": lambda ins, at: ins[0][np.arange(ins[0].shape[0]), at["ids"]].copy(),
    "straight_through": lambda ins, at: at["hard"].copy(),
    "argmax": lambda ins, at: ins[0].argmax(axis=at["axis"]).astype(np.float64),
}


# ---------------------------------------------------------------------------
# Backward kernels: (grad_out, input_datas, output_data, attrs) -> input grads
# ---------------------------------------------------------------------------


def _vjp_layer_norm(g, ins, out, at):
    x, gain, _bias = ins
    eps = at["eps"]
    # sum / d: bit-identical to mean, as in `_layer_norm_forward`.
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gxhat = g * gain
    mean_g = gxhat.sum(axis=-1, keepdims=True) / d
    mean_gx = (gxhat * xhat).sum(axis=-1, keepdims=True) / d
    gx = inv * (gxhat - mean_g - xhat * mean_gx)
    return [gx, (g * xhat).sum(axis=0), g.sum(axis=0)]


def _vjp_softmax(g, ins, out, at):
    return [out * (g - (out * g).sum(axis=-1, keepdims=True))]


def _vjp_log_softmax(g, ins, out, at):
    return [g - np.exp(out) * g.sum(axis=-1, keepdims=True)]


def _vjp_gelu(g, ins, out, at):
    x = ins[0]
    phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    cdf = at.get("cdf")
    if cdf is None:
        cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return [g * (cdf + x * phi)]


def _vjp_embedding(g, ins, out, at):
    gt = np.zeros_like(ins[0])
    np.add.at(gt, at["ids"], g)
    return [gt]


def _vjp_concatenate(g, ins, out, at):
    grads = []
    offset = 0
    for size, x in zip(at["sizes"], ins):
        sl = [np.s_[:]] * g.ndim
        sl[at["axis"]] = np.s_[offset : offset + size]
        grads.append(g[tuple(sl)].copy())
        offset += size
    return grads


def _vjp_slice(g, ins, out, at):
    gx = np.zeros_like(ins[0])
    gx[tuple(np.s_[a:b] for a, b in at["spans"])] = g
    return [gx]


def _vjp_reduce_sum(g, ins, out, at):
    axis = at["axis"]
    if axis is None:
        return [np.broadcast_to(g, ins[0].shape).copy()]
    return [np.broadcast_to(np.expand_dims(g, axis), ins[0].shape).copy()]


def _vjp_reduce_mean(g, ins, out, at):
    axis = at["axis"]
    if axis is None:
        scale = 1.0 / ins[0].size
        return [np.broadcast_to(g * scale, ins[0].shape).copy()]
    scale = 1.0 / ins[0].shape[axis]
    return [np.broadcast_to(np.expand_dims(g * scale, axis), ins[0].shape).copy()]


def _vjp_take_per_row(g, ins, out, at):
    gx = np.zeros_like(ins[0])
    gx[np.arange(ins[0].shape[0]), at["ids"]] = g
    return [gx]


_VJP: dict[str, Callable] = {
    "matmul": lambda g, ins, out, at: [g @ ins[1].T, ins[0].T @ g],
    "add": lambda g, ins, out, at: [g, g],
    "multiply": lambda g, ins, out, at: [g * ins[1], g * ins[0]],
    "scale": lambda g, ins, out, at: [g * at["factor"]],
    "add_bias": lambda g, ins, out, at: [g, g.sum(axis=0)],
    "scale_rows": lambda g, ins, out, at: [g * ins[1][:, None], (g * ins[0]).sum(axis=1)],
    "layer_norm": _vjp_layer_norm,
    "causal_attention": _vjp_causal_attention,
    "softmax": _vjp_softmax,
    "log_softmax": _vjp_log_softmax,
    "gelu": _vjp_gelu,
    "embedding": _vjp_embedding,
    "concatenate": _vjp_concatenate,
    "slice": _vjp_slice,
    "transpose": lambda g, ins, out, at: [g.T.copy()],
    "reshape": lambda g, ins, out, at: [g.reshape(ins[0].shape).copy()],
    "reduce_sum": _vjp_reduce_sum,
    "reduce_mean": _vjp_reduce_mean,
    "log": lambda g, ins, out, at: [g / ins[0]],
    "exponential": lambda g, ins, out, at: [g * out],
    "take_per_row": _vjp_take_per_row,
    "straight_through": lambda g, ins, out, at: [g],
}


# ---------------------------------------------------------------------------
# Graph-level operations
# ---------------------------------------------------------------------------


def _replay(graph: Graph, bindings: Mapping[int, np.ndarray]) -> list[np.ndarray]:
    values: list[np.ndarray] = [None] * len(graph.nodes)  # type: ignore[list-item]
    for i, node in enumerate(graph.nodes):
        if node.op == "leaf":
            values[i] = bindings.get(i, node.tensor.data)
        else:
            ins = [values[j] for j in node.input_ids]
            values[i] = _FORWARD[node.op](ins, node.attrs)
    return values


def evaluate(graph: Graph, inputs: Mapping[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Replay the tape with fresh bindings for the named inputs. Deterministic:
    identical bindings produce bit-identical outputs."""
    inputs = dict(inputs or {})
    bindings: dict[int, np.ndarray] = {}
    for name, node_id in graph.input_names.items():
        if name not in inputs:
            raise ValueError(f"evaluate: input {name!r} not bound")
        value = _f64(inputs.pop(name))
        expected = graph.nodes[node_id].tensor.shape
        if value.shape != expected:
            raise ShapeError("evaluate", f"input {name!r} has shape {value.shape}, expected {expected}")
        bindings[node_id] = value
    if inputs:
        raise ValueError(f"evaluate: unknown inputs {sorted(inputs)}")
    values = _replay(graph, bindings)
    if not graph.output_names:
        raise ValueError("evaluate: graph has no marked outputs")
    return {name: values[node_id] for name, node_id in graph.output_names.items()}


def backpropagate(graph: Graph, loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar loss. Returns and installs gradients for
    every requires_grad leaf; fan-out accumulates additively.

    No VJP writes into a gradient and accumulation is out of place, so a
    first gradient is kept as the VJP returned it, not copied. Some VJPs
    pass their incoming gradient through (`add` returns it twice), so a leaf
    gradient that is a view or the same array as another leaf's is copied
    before it is installed."""
    if loss.data.size != 1:
        raise ValueError(f"backpropagate: loss must be scalar, got shape {loss.shape}")
    grads: list[np.ndarray | None] = [None] * len(graph.nodes)
    grads[loss.node_id] = np.ones_like(loss.data)
    for i in range(loss.node_id, -1, -1):
        g = grads[i]
        if g is None:
            continue
        node = graph.nodes[i]
        if node.op == "leaf":
            continue
        if node.op in NON_DIFFERENTIABLE:
            raise NonDifferentiableError(
                f"op {node.op!r} (node {i}) is on the gradient path but has no gradient"
            )
        ins = [graph.nodes[j].tensor.data for j in node.input_ids]
        input_grads = _VJP[node.op](g, ins, node.tensor.data, node.attrs)
        for j, gi in zip(node.input_ids, input_grads):
            if not graph.nodes[j].tensor.requires_grad:
                continue
            grads[j] = gi if grads[j] is None else grads[j] + gi
    leaf_grads: dict[int, np.ndarray] = {}
    installed: set[int] = set()
    for i, node in enumerate(graph.nodes):
        if node.op == "leaf" and node.tensor.requires_grad:
            g = grads[i]
            if g is None:
                g = np.zeros_like(node.tensor.data)
            elif not isinstance(g, np.ndarray) or g.base is not None or id(g) in installed:
                g = np.array(g, dtype=np.float64)
            installed.add(id(g))
            node.tensor.grad = g
            leaf_grads[i] = g
    return leaf_grads


@dataclass
class LeafCheck:
    node_id: int
    name: str | None
    max_rel_error: float


@dataclass
class GradientCheckReport:
    leaves: list[LeafCheck]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max((l.max_rel_error for l in self.leaves), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def gradient_check(
    graph: Graph,
    tolerance: float,
    loss: Tensor | None = None,
    step: float = 1e-6,
) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences for every
    requires_grad leaf.

    Relative error per element is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8). The loss defaults to the graph's single
    scalar marked output.
    """
    if loss is None:
        scalars = [
            nid for nid in graph.output_names.values() if graph.nodes[nid].tensor.data.size == 1
        ]
        if len(scalars) != 1:
            raise ValueError("gradient_check: pass loss= or mark exactly one scalar output")
        loss = graph.nodes[scalars[0]].tensor

    baseline = _replay(graph, {})
    for i, value in enumerate(baseline):
        if not np.all(np.isfinite(value)):
            raise NonFiniteError(f"non-finite value at node {i} ({graph.nodes[i].op})")

    analytic = backpropagate(graph, loss)
    loss_id = loss.node_id

    checks = []
    for node_id, grad in analytic.items():
        node = graph.nodes[node_id]
        base = node.tensor.data
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        for k in range(flat.size):
            for sign in (+1.0, -1.0):
                probe = base.copy()
                probe.reshape(-1)[k] = flat[k] + sign * step
                values = _replay(graph, {node_id: probe})
                num_flat[k] += sign * float(values[loss_id].reshape(-1)[0])
            num_flat[k] /= 2.0 * step
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-8)
        rel = float((np.abs(grad - numeric) / denom).max()) if base.size else 0.0
        checks.append(LeafCheck(node_id=node_id, name=node.attrs.get("name"), max_rel_error=rel))
    return GradientCheckReport(leaves=checks, tolerance=tolerance)
