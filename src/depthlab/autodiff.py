"""Dense float64 tensors on an operation tape with reverse-mode
differentiation. Just enough machinery for a toy decoder transformer and
linear gate controllers: strict shapes, no implicit broadcasting, explicit
ops for the few structured patterns (bias add, per-row scaling), and one
fused op for a whole transformer block, whose forward kernel the numpy model
shares."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op


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


class Graph:
    """Topologically ordered tape of operations.

    Built eagerly: each op method computes its output immediately and records
    a node with the attrs its VJP needs. The tape is then swept in reverse for
    gradients (`backpropagate`); it is not re-run. Graphs are append-only; a
    finished graph is safe to share read-only, but a backward pass is
    single-threaded.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []

    # -- construction -------------------------------------------------------

    def _record(self, op: str, inputs: Sequence[Tensor], data: np.ndarray, attrs: dict | None = None) -> Tensor:
        requires = any(t.requires_grad for t in inputs)
        out = Tensor(data=data, requires_grad=requires, node_id=len(self.nodes))
        self.nodes.append(Node(op, tuple(t.node_id for t in inputs), out, attrs or {}))
        return out

    def leaf(self, value, requires_grad: bool = False) -> Tensor:
        """A constant or parameter node. A C-ordered float64 array is held
        as it is, not copied, so it must not be mutated while the graph is
        in use (`AdamW` replaces parameter arrays and never writes into
        them)."""
        data = np.asarray(value, dtype=np.float64, order="C")
        out = Tensor(data, requires_grad=requires_grad, node_id=len(self.nodes))
        self.nodes.append(Node("leaf", (), out))
        return out

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

    def embedding(self, table: Tensor, ids: Sequence[int]) -> Tensor:
        if table.data.ndim != 2:
            raise ShapeError("embedding", f"table must be 2-d, got {table.shape}")
        idx = np.asarray(ids, dtype=np.int64)
        if idx.ndim != 1:
            raise ShapeError("embedding", f"ids must be 1-d, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
            raise ShapeError("embedding", f"id out of range for table with {table.shape[0]} rows")
        return self._record("embedding", (table,), table.data[idx], {"ids": idx})

    def slice(self, x: Tensor, key: tuple[slice, ...]) -> Tensor:
        spans = tuple((s.start, s.stop) for s in key)
        return self._record("slice", (x,), x.data[key].copy(), {"spans": spans})

    def reshape(self, x: Tensor, shape: tuple[int, ...]) -> Tensor:
        if int(np.prod(shape)) != x.data.size:
            raise ShapeError("reshape", f"cannot reshape {x.shape} to {shape}")
        return self._record("reshape", (x,), x.data.reshape(shape).copy(), {"shape": tuple(shape)})

    def reduce_sum(self, x: Tensor, axis: int | None = None) -> Tensor:
        return self._record("reduce_sum", (x,), np.asarray(x.data.sum(axis=axis)), {"axis": axis})

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
        hard = np.array(hard_values, dtype=np.float64)
        if hard.shape != soft.shape:
            raise ShapeError("straight_through", f"hard {hard.shape} vs soft {soft.shape}")
        return self._record("straight_through", (soft,), hard.copy(), {"hard": hard})

    def block(self, h: Tensor, layer_params: Sequence[Tensor], num_heads: int, eps: float) -> Tensor:
        """One transformer block (`_block_forward`) on the rows h (T, d) as
        one node. `layer_params` are the layer's tensors in `BLOCK_PARAMS`
        order; the node keeps the intermediates its VJP reads."""
        if h.data.ndim != 2 or h.shape[1] % num_heads != 0:
            raise ShapeError("block", f"needs a (t,d) input with d divisible by {num_heads} heads, got {h.shape}")
        if len(layer_params) != len(BLOCK_PARAMS):
            raise ShapeError("block", f"needs {len(BLOCK_PARAMS)} parameters, got {len(layer_params)}")
        shapes = block_param_shapes(h.shape[1], layer_params[BLOCK_PARAMS.index("w1")].shape[-1])
        for name, param in zip(BLOCK_PARAMS, layer_params):
            if param.shape != shapes[name]:
                raise ShapeError("block", f"{name} must be {shapes[name]}, got {param.shape}")
        keep = {"num_heads": num_heads, "eps": float(eps)}
        out = _block_forward(h.data, [p.data for p in layer_params], num_heads, eps, keep=keep)
        return self._record("block", (h, *layer_params), out, keep)


# ---------------------------------------------------------------------------
# Forward kernels, shared by the tape ops and the numpy model
# ---------------------------------------------------------------------------


def _softmax_forward(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_forward(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _layer_norm_stats(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalised rows of x and their inverse standard deviations, (T, 1).
    sum / d is bit-identical to mean and skips numpy's Python-level mean
    wrapper, which dominates on the single rows of a decode step."""
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv, inv


def _layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float) -> np.ndarray:
    return _layer_norm_stats(x, eps)[0] * gain + bias


def _heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(T, d) rows as (H, T, d / H) head-leading blocks."""
    return x.reshape(x.shape[0], num_heads, -1).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of `_heads`: (H, T, d / H) back to (T, d)."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _attention_weights(q: np.ndarray, k: np.ndarray, num_heads: int, pos: np.ndarray) -> np.ndarray:
    """(H, Tq, Tk) causal softmax weights for q (Tq, d) against k (Tk, d):
    query row i sits at position pos[i] and attends to keys 0..pos[i]. The one
    attention kernel of the package, called by `_block_forward` once per
    query row block.

    Works in one score buffer: scale, shift, exp and normalise in place. A
    single row (a decode step) is handed only the keys it sees and takes no
    mask. Otherwise the future keys are masked and `exp` runs only over the
    attended keys (exp of the masked -inf part takes numpy's slow underflow
    path)."""
    tq, tk = q.shape[0], k.shape[0]
    w = _heads(q, num_heads) @ _heads(k, num_heads).transpose(0, 2, 1)
    w /= math.sqrt(q.shape[1] // num_heads)
    if tq == 1:
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
    else:
        past = np.arange(tk) <= pos[:, None]
        future = ~past
        np.copyto(w, -np.inf, where=future)
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w, where=past)
        np.copyto(w, 0.0, where=future)
    w /= w.sum(axis=-1, keepdims=True)
    return w


# One block's parameters, in the order `_block_forward` and `Graph.block`
# take them and `model.param_shapes` lists them.
BLOCK_PARAMS = (
    "ln1.gain", "ln1.bias", "wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo",
    "ln2.gain", "ln2.bias", "w1", "b1", "w2", "b2",
)

# `_block_forward` attends in query row blocks of _ROW_BLOCK rows, so a
# forward without the tape builds no (H, T, T) array and never computes the
# upper triangle. Measured on the default model's one-pass prefill, one BLAS
# thread, 2 vCPUs: blocks of 24 to 64 rows time alike, and one whole block is
# 20-25% slower at T = 200-240.
_ROW_BLOCK = 32


def block_param_shapes(dim: int, ffn_dim: int) -> dict[str, tuple[int, ...]]:
    """Shape of each block parameter, in `BLOCK_PARAMS` order."""
    shapes = {name: (dim,) for name in BLOCK_PARAMS}
    shapes.update(wq=(dim, dim), wk=(dim, dim), wv=(dim, dim), wo=(dim, dim))
    shapes.update(w1=(dim, ffn_dim), b1=(ffn_dim,), w2=(ffn_dim, dim))
    return shapes


def _block_forward(
    h: np.ndarray,
    params: Sequence[np.ndarray],
    num_heads: int,
    eps: float,
    kv: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
    keep: dict | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """One pre-norm transformer block on the rows h (T, d): LN1, q/k/v,
    causal multi-head attention, wo, then LN2 and a GELU MLP, both with
    residuals. `params` are the layer's arrays in `BLOCK_PARAMS` order. The
    only copy of the block: the model's decode, prefill, replay and
    whole-sequence forward and the tape's `block` node all call it.

    Without `kv` the rows attend causally among themselves. With it they are
    the last T of Tk positions: `kv(k, v)` receives the rows' keys and values
    and returns the (Tk, d) keys and values to attend over (a cache appends
    them and returns its rows). `rows`, an increasing index array into h,
    selects the query rows: every row of h gives its keys and values, but
    only the selected ones run q, attention, wo, LN2 and the MLP, each
    attending to the keys up to its own position, and the result holds their
    outputs (len(rows), d). Queries attend in blocks of `_ROW_BLOCK` rows,
    each against the keys up to its last row. `keep`, when given, receives
    the intermediates the tape's VJP reads, the (H, T, Tk) weights among
    them."""
    g1, c1, wq, wk, wv, wo, bq, bk, bv, bo, g2, c2, w1, b1, w2, b2 = params
    xhat, inv = _layer_norm_stats(h, eps)
    x = xhat * g1 + c1
    k = x @ wk + bk
    v = x @ wv + bv
    keys, values = (k, v) if kv is None else kv(k, v)
    off = keys.shape[0] - h.shape[0]
    # Query row i sits at position pos[i] and sees keys up to there; each
    # block's weights go straight into its rows of the (T, H, d_h) output.
    pos = off + (np.arange(h.shape[0]) if rows is None else rows)
    xq = x
    if rows is not None:
        h, xq = h[rows], x[rows]
    q = xq @ wq + bq
    t = h.shape[0]
    vh = _heads(values, num_heads)
    attn = np.empty((t, num_heads, vh.shape[2]))
    weights = None if keep is None else np.zeros((num_heads, t, keys.shape[0]))
    for a in range(0, t, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, t)
        end = pos[b - 1] + 1
        w = _attention_weights(q[a:b], keys[:end], num_heads, pos[a:b])
        np.matmul(w, vh[:, :end], out=attn[a:b].transpose(1, 0, 2))
        if weights is not None:
            weights[:, a:b, :end] = w
    attn = attn.reshape(t, -1)
    mid = h + attn @ wo + bo
    xhat2, inv2 = _layer_norm_stats(mid, eps)
    x2 = xhat2 * g2 + c2
    u = x2 @ w1 + b1
    cdf = ndtr(u)  # the normal CDF, Phi(u)
    act = u * cdf
    if keep is not None:
        keep.update(xhat=xhat, inv=inv, x=x, q=q, k=k, v=v, weights=weights, attn=attn)
        keep.update(xhat2=xhat2, inv2=inv2, x2=x2, u=u, cdf=cdf, act=act)
    return mid + act @ w2 + b2


def _vjp_causal_attention(g, q, k, v, out, weights, num_heads):
    """Gradients of q, k and v (T, d) of causal attention, given the
    gradient g of its output `out` (T, d) and its (H, T, T) `weights`."""
    qh, kh, vh, gh = (_heads(x, num_heads) for x in (q, k, v, g))
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
    return _merge_heads(gq), _merge_heads(gk), _merge_heads(gv)


# ---------------------------------------------------------------------------
# Backward kernels: (grad_out, input_datas, output_data, attrs) -> input grads
# ---------------------------------------------------------------------------


def _layer_norm_backward(g, xhat, inv, gain):
    """Gradients of x, gain and bias of a layer norm, from the forward's
    `_layer_norm_stats`."""
    d = xhat.shape[-1]
    gxhat = g * gain
    mean_g = gxhat.sum(axis=-1, keepdims=True) / d
    mean_gx = (gxhat * xhat).sum(axis=-1, keepdims=True) / d
    gx = inv * (gxhat - mean_g - xhat * mean_gx)
    return [gx, (g * xhat).sum(axis=0), g.sum(axis=0)]


def _vjp_layer_norm(g, ins, out, at):
    x, gain, _bias = ins
    return _layer_norm_backward(g, *_layer_norm_stats(x, at["eps"]), gain)


def _vjp_softmax(g, ins, out, at):
    return [out * (g - (out * g).sum(axis=-1, keepdims=True))]


def _vjp_log_softmax(g, ins, out, at):
    return [g - np.exp(out) * g.sum(axis=-1, keepdims=True)]


def _vjp_block(g, ins, out, at):
    """`_block_forward` backwards from the kept intermediates: the MLP with
    the GELU derivative, LN2, wo, attention, the q/k/v projections and LN1,
    each residual adding its incoming gradient."""
    g1, _c1, wq, wk, wv, wo, _bq, _bk, _bv, _bo, g2, _c2, w1, _b1, w2, _b2 = ins[1:]
    x, u, x2, attn = at["x"], at["u"], at["x2"], at["attn"]
    gu = g @ w2.T
    gu *= at["cdf"] + u * np.exp(-0.5 * u * u) * _INV_SQRT2PI
    gmid, gg2, gc2 = _layer_norm_backward(gu @ w1.T, at["xhat2"], at["inv2"], g2)
    gmid += g
    gq, gk, gv = _vjp_causal_attention(gmid @ wo.T, at["q"], at["k"], at["v"], attn, at["weights"], at["num_heads"])
    gh, gg1, gc1 = _layer_norm_backward(gq @ wq.T + gk @ wk.T + gv @ wv.T, at["xhat"], at["inv"], g1)
    gh += gmid
    return [
        gh, gg1, gc1, x.T @ gq, x.T @ gk, x.T @ gv, attn.T @ gmid,
        gq.sum(axis=0), gk.sum(axis=0), gv.sum(axis=0), gmid.sum(axis=0),
        gg2, gc2, x2.T @ gu, gu.sum(axis=0), at["act"].T @ g, g.sum(axis=0),
    ]


def _vjp_embedding(g, ins, out, at):
    gt = np.zeros_like(ins[0])
    np.add.at(gt, at["ids"], g)
    return [gt]


def _vjp_slice(g, ins, out, at):
    gx = np.zeros_like(ins[0])
    gx[tuple(np.s_[a:b] for a, b in at["spans"])] = g
    return [gx]


def _vjp_reduce_sum(g, ins, out, at):
    axis = at["axis"]
    if axis is None:
        return [np.broadcast_to(g, ins[0].shape).copy()]
    return [np.broadcast_to(np.expand_dims(g, axis), ins[0].shape).copy()]


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
    "block": _vjp_block,
    "softmax": _vjp_softmax,
    "log_softmax": _vjp_log_softmax,
    "embedding": _vjp_embedding,
    "slice": _vjp_slice,
    "reshape": lambda g, ins, out, at: [g.reshape(ins[0].shape).copy()],
    "reduce_sum": _vjp_reduce_sum,
    "take_per_row": _vjp_take_per_row,
    "straight_through": lambda g, ins, out, at: [g],
}


# ---------------------------------------------------------------------------
# Graph-level operations
# ---------------------------------------------------------------------------


def backpropagate(graph: Graph, loss: Tensor) -> None:
    """Reverse sweep from a scalar loss. Installs `grad` on every
    requires_grad leaf; fan-out accumulates additively.

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
        ins = [graph.nodes[j].tensor.data for j in node.input_ids]
        input_grads = _VJP[node.op](g, ins, node.tensor.data, node.attrs)
        for j, gi in zip(node.input_ids, input_grads):
            if not graph.nodes[j].tensor.requires_grad:
                continue
            grads[j] = gi if grads[j] is None else grads[j] + gi
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


def gradient_check(
    loss_at: Callable[[dict[str, np.ndarray]], float],
    values: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    step: float = 1e-6,
) -> float:
    """Worst error of the analytic `grads` (one per name in `values`)
    against central finite differences of `loss_at` around `values`. Each
    array is measured against an absolute-plus-relative scale:
    max |analytic - numeric| / (max |numeric| + 1e-2 * M), where M is the
    largest numeric entry over all arrays.

    An elementwise relative error would be set by the smallest entries,
    whose differences are mostly roundoff; this bound holds every entry to
    its array's largest, so a wrong VJP term shows in proportion to its share
    of the gradient. The roundoff grows with the loss, as M does, and the
    absolute part judges an array whose gradient is all but zero (a bias the
    loss is invariant to) by that noise floor. `loss_at` is called with a copy
    of `values` in which one element of one array is moved by +-step.
    """
    base = loss_at(values)
    if not math.isfinite(base):
        raise NonFiniteError(f"gradient_check: loss is {base} at the given values")
    numeric: dict[str, np.ndarray] = {}
    for name, value in values.items():
        if grads[name].shape != value.shape:
            raise ShapeError("gradient_check", f"grad {name!r} has shape {grads[name].shape}, value {value.shape}")
        diff = np.zeros(value.size)
        for k in range(value.size):
            for sign in (+1.0, -1.0):
                probe = value.astype(np.float64)
                probe.reshape(-1)[k] += sign * step
                diff[k] += sign * loss_at({**values, name: probe})
        numeric[name] = diff.reshape(value.shape) / (2.0 * step)
    peak = max((float(np.abs(n).max()) for n in numeric.values() if n.size), default=0.0)
    worst = 0.0
    for name, n in numeric.items():
        if n.size:
            scale = max(float(np.abs(n).max()) + 1e-2 * peak, np.finfo(np.float64).tiny)
            worst = max(worst, float(np.abs(grads[name] - n).max()) / scale)
    return worst
