"""Correctness checks for the benchmark's operations.

Each check recomputes a result apart from the code path that produced it
(numpy formulas, the whole-sequence forward, scipy, brute force, an LP bound)
or tests a property the method must have. A failed check raises CheckError.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from depthlab.corpus import Example, tokenize_example
from depthlab.model import PROV_ABSENT, PROV_COMPUTED, DecoderModel, ModelConfig, fill_missing_kv
from depthlab.oracle import ScoreMatrix, solve_exact

# Incremental decode, the tape and the whole-sequence forward differ only in
# summation order, so they agree far below this.
ATOL = 1e-9
_Z_95 = 1.95996


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _label_weights(num_inputs: int, prompt_len: int) -> np.ndarray:
    """1/n on the targets that are label tokens, 0 on prompt targets."""
    weights = np.zeros(num_inputs)
    weights[prompt_len - 1 :] = 1.0 / (num_inputs - prompt_len + 1)
    return weights


# ---------------------------------------------------------------------------
# Tape training
# ---------------------------------------------------------------------------


def numpy_sequence_loss(cfg: ModelConfig, params: dict[str, np.ndarray], example: Example) -> float:
    """Prompt-masked next-token cross-entropy of forward_hidden logits."""
    tok = tokenize_example(example)
    inputs = tok.full_ids[:-1]
    targets = np.asarray(tok.full_ids[1:])
    _, logits = DecoderModel(cfg, params).forward_hidden(inputs)
    picked = _log_softmax(logits)[np.arange(len(inputs)), targets]
    return float(-(picked @ _label_weights(len(inputs), tok.prompt_len)))


def check_sequence_loss(cfg: ModelConfig, params: dict[str, np.ndarray], example: Example, tape_loss: float) -> None:
    expected = numpy_sequence_loss(cfg, params, example)
    _require(
        abs(tape_loss - expected) <= ATOL,
        f"tape loss {tape_loss!r} != numpy cross-entropy {expected!r} on {example.id}",
    )


def gradient_coordinates(
    cfg: ModelConfig, example: Example, rng: np.random.Generator, count: int
) -> list[tuple[str, tuple[int, ...]]]:
    """Parameter coordinates that lie on the sequence's gradient path: rows
    of the embeddings the sequence reads, anything in the dense weights."""
    inputs = tokenize_example(example).full_ids[:-1]
    layer = lambda: f"layer{int(rng.integers(1, cfg.num_layers + 1))}."  # noqa: E731
    d, f, v = cfg.hidden_dim, cfg.ffn_dim, cfg.vocab_size
    coords = []
    for i in range(count):
        kind = i % 6
        if kind == 0:
            coords.append(("tok_emb", (int(rng.choice(inputs)), int(rng.integers(d)))))
        elif kind == 1:
            coords.append(("pos_emb", (int(rng.integers(len(inputs))), int(rng.integers(d)))))
        elif kind == 2:
            coords.append((layer() + str(rng.choice(["wq", "wk", "wv", "wo"])), (int(rng.integers(d)), int(rng.integers(d)))))
        elif kind == 3:
            coords.append((layer() + "w1", (int(rng.integers(d)), int(rng.integers(f)))))
        elif kind == 4:
            coords.append((layer() + "ln1.gain", (int(rng.integers(d)),)))
        else:
            coords.append(("head.w", (int(rng.integers(d)), int(rng.integers(v)))))
    return coords


def check_gradients(
    cfg: ModelConfig,
    params: dict[str, np.ndarray],
    example: Example,
    grads: dict[str, np.ndarray],
    coords: Sequence[tuple[str, tuple[int, ...]]],
    eps: float = 1e-5,
) -> None:
    """Tape gradients against central finite differences of the numpy loss."""
    for name, idx in coords:
        plus = {**params, name: params[name].copy()}
        minus = {**params, name: params[name].copy()}
        plus[name][idx] += eps
        minus[name][idx] -= eps
        fd = (numpy_sequence_loss(cfg, plus, example) - numpy_sequence_loss(cfg, minus, example)) / (2 * eps)
        tape = float(grads[name][idx])
        _require(
            abs(fd - tape) <= 1e-6 + 1e-4 * abs(fd),
            f"gradient of {name}{list(idx)}: tape {tape!r} vs finite difference {fd!r} on {example.id}",
        )


def check_controller_loss(
    cfg: ModelConfig,
    params: dict[str, np.ndarray],
    teacher_params: dict[str, np.ndarray],
    example: Example,
    controlled: Sequence[int],
    alpha: float,
    realized: np.ndarray,
    tape_loss: float,
) -> None:
    """KL(student || teacher) + alpha * gate cost, recomputed with the
    whole-sequence forward under the realized gate matrix. Prompt positions
    execute every layer; the cost term counts the realized bits."""
    tok = tokenize_example(example)
    inputs = tok.full_ids[:-1]
    t = len(inputs)
    label = np.zeros(t)
    label[tok.prompt_len :] = 1.0
    gates = np.ones((t, cfg.num_layers))
    cols = [l - 1 for l in controlled]
    gates[:, cols] = realized[:, cols] * label[:, None] + (1.0 - label[:, None])
    _require(set(np.unique(realized[:, cols])) <= {0.0, 1.0}, "realized gates are not 0/1")
    _, student = DecoderModel(cfg, params).forward_hidden(inputs, gate_bits=gates)
    _, teacher = DecoderModel(cfg, teacher_params).forward_hidden(inputs)
    lp_s, lp_t = _log_softmax(student), _log_softmax(teacher)
    kl = (np.exp(lp_s) * (lp_s - lp_t)).sum(axis=1)
    weights = _label_weights(t, tok.prompt_len)
    expected = float(weights @ kl + alpha * (weights @ realized[:, cols].sum(axis=1)))
    _require(
        abs(tape_loss - expected) <= ATOL,
        f"controller loss {tape_loss!r} != numpy KL + alpha*cost {expected!r} on {example.id}",
    )


# ---------------------------------------------------------------------------
# Routed decode
# ---------------------------------------------------------------------------


def _argmax_agrees(logits_row: np.ndarray, token: int) -> bool:
    """The greedy token must be the row's argmax; within ATOL of the top
    logit counts as a tie, which summation order may break either way."""
    return logits_row[token] >= logits_row.max() - ATOL


def check_generation(
    model: DecoderModel,
    result,
    plan_cost: int | None = None,
    always_on: Sequence[int] = (),
) -> None:
    """Replay a greedy generation through forward_hidden with its realized
    gate bits: every hidden state and every greedy token must agree. Then
    check step costs and the KV cache's provenance."""
    L = model.cfg.num_layers
    P = len(result.prompt_ids)
    T = result.trace.num_positions
    masks = np.asarray(result.step_masks, dtype=np.float64).reshape(-1, L)
    _require(P + len(masks) == T, f"{T} traced positions for a {P}-token prompt and {len(masks)} steps")
    tokens = (list(result.prompt_ids) + list(result.generated_ids))[:T]
    gate_bits = np.vstack([np.ones((P, L)), masks])
    states, logits = model.forward_hidden(tokens, gate_bits=gate_bits)
    stepped = np.stack(result.trace.rows)
    err = float(np.abs(states - stepped).max())
    _require(err <= ATOL, f"incremental hidden states differ from forward_hidden by {err:.3g}")
    for i, token in enumerate(result.generated_ids):
        _require(_argmax_agrees(logits[P - 1 + i], token), f"generated token {i} is not the greedy argmax")
    if plan_cost is not None:
        costs = masks.sum(axis=1)
        _require(bool((costs == plan_cost).all()), f"step costs {sorted(set(costs.tolist()))} != plan cost {plan_cost}")
    for layer in always_on:
        _require(bool((masks[:, layer - 1] == 1).all()), f"ungated layer {layer} was skipped")
    prov = result.cache.provenance()
    computed = int((prov == PROV_COMPUTED).sum())
    _require(computed == int(gate_bits.sum()), f"{computed} computed KV slots for {int(gate_bits.sum())} executed gates")
    fill_missing_kv(model, result.cache, result.trace)
    _require(not (result.cache.provenance() == PROV_ABSENT).any(), "absent KV slots after fill_missing_kv")


def check_prefill(model: DecoderModel, tokens: Sequence[int], trace, step_result) -> None:
    states, logits = model.forward_hidden(tokens)
    err = float(np.abs(states - np.stack(trace.rows)).max())
    _require(err <= ATOL, f"prefill hidden states differ from forward_hidden by {err:.3g}")
    err = float(np.abs(logits[-1] - step_result.logits).max())
    _require(err <= ATOL, f"prefill logits differ from forward_hidden by {err:.3g}")


def _cos(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cosine; 0 where either row has norm below 1e-12."""
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    ok = (nu >= 1e-12) & (nv >= 1e-12)
    return np.where(ok, (u * v).sum(axis=-1) / np.where(ok, nu * nv, 1.0), 0.0)


def _mean_half(samples: list[float]) -> tuple[float, float]:
    arr = np.asarray(samples)
    return float(arr.mean()), _Z_95 * float(arr.std(ddof=1)) / math.sqrt(len(arr))


def check_probe(model: DecoderModel, prompts, strategies, cost: int, seed: int, max_new: int, report) -> None:
    """Recompute the probe's cosine similarities: the reference and each
    variant replayed with forward_hidden under the same masks (drawn the way
    the probe seeds them), cosines and 95% intervals in numpy."""
    L = model.cfg.num_layers
    pooled: dict[str, tuple[list[float], list[float]]] = {}
    for i, prompt in enumerate(prompts):
        ref = model.generate(list(prompt), max_new=max_new, eos_id=None)
        P = len(prompt)
        forced = list(prompt) + ref.generated_ids[:max_new]
        ref_states, _ = model.forward_hidden(forced)
        for s_idx, template in enumerate(strategies):
            plan = template.with_cost(cost)
            rng = np.random.default_rng((seed, s_idx, cost, i))
            masks, previous = [], None
            for _ in range(len(forced) - P):
                previous = plan.realize(rng, previous=previous)
                masks.append(previous.bits)
            gate_bits = np.vstack([np.ones((P, L)), np.asarray(masks, dtype=np.float64)])
            var_states, _ = model.forward_hidden(forced, gate_bits=gate_bits)
            cos = _cos(ref_states[P:], var_states[P:])  # (steps, L+1)
            finals, layerwise = pooled.setdefault(plan.label(), ([], []))
            finals.extend(cos[:, L].tolist())
            layerwise.extend(cos[:, 1:L].mean(axis=1).tolist())
    for label, (finals, layerwise) in pooled.items():
        entry = report.entry(label, cost)
        _require(entry.n == len(finals), f"{label}: probe pooled {entry.n} steps, expected {len(finals)}")
        for what, samples, mean, half in (
            ("final", finals, entry.final_mean, entry.final_half_width),
            ("layerwise", layerwise, entry.layerwise_mean, entry.layerwise_half_width),
        ):
            exp_mean, exp_half = _mean_half(samples)
            _require(
                abs(mean - exp_mean) <= ATOL and abs(half - exp_half) <= ATOL,
                f"{label} {what} similarity {mean!r}±{half!r} != numpy {exp_mean!r}±{exp_half!r}",
            )


# ---------------------------------------------------------------------------
# Budget oracle and chi-square stage
# ---------------------------------------------------------------------------


def mckp_lp_bound(scores: np.ndarray, costs: Sequence[int], budget: int) -> float:
    """Mean score of the LP relaxation of the multiple-choice knapsack: one
    item per row, total cost <= budget. Greedy over the upper convex hull of
    each row (Sinha & Zoltners 1979); an upper bound on the integer optimum."""
    costs_arr = np.asarray(costs, dtype=np.float64)
    order = np.argsort(costs_arr, kind="stable")
    c = costs_arr[order]
    value, spent = 0.0, 0.0
    increments: list[tuple[float, float]] = []  # (slope, cost step)
    for row in np.asarray(scores, dtype=np.float64)[:, order]:
        start = int(np.flatnonzero(c == c[0])[np.argmax(row[c == c[0]])])
        value += row[start]
        spent += c[start]
        hull = [start]
        for j in range(len(c)):
            if c[j] <= c[start] or row[j] <= row[hull[-1]]:
                continue  # dominated by a cheaper item that scores at least as much
            if c[j] == c[hull[-1]]:
                hull.pop()
            # Keep slopes strictly decreasing along the hull.
            while len(hull) >= 2 and (row[hull[-1]] - row[hull[-2]]) * (c[j] - c[hull[-1]]) <= (
                row[j] - row[hull[-1]]
            ) * (c[hull[-1]] - c[hull[-2]]):
                hull.pop()
            hull.append(j)
        for a, b in zip(hull, hull[1:]):
            increments.append(((row[b] - row[a]) / (c[b] - c[a]), c[b] - c[a]))
    if spent > budget:
        raise CheckError(f"budget {budget} below the cheapest assignment {spent}")
    room = budget - spent
    for slope, step in sorted(increments, key=lambda item: -item[0]):
        take = min(step, room)
        value += slope * take
        room -= take
        if room <= 0:
            break
    return value / len(scores)


def check_sweep(
    oracle_dir: Path,
    scores: np.ndarray,
    costs: Sequence[int],
    sufficient: np.ndarray,
    budgets: Sequence[float],
) -> float:
    """Check the oracle stage's outputs against the planted instance and
    return the parity budget."""
    n = len(scores)
    grid = sorted(b for b in budgets if b >= min(costs))
    expected_star = min(b for b in grid if b >= float(np.mean(sufficient)))
    summary = json.loads((oracle_dir / "summary.json").read_text())
    _require(
        summary["star_beta"] == expected_star,
        f"star_beta {summary['star_beta']} != smallest grid budget >= mean d_i ({expected_star})",
    )
    with open(oracle_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require([float(r["beta"]) for r in rows] == grid, "sweep rows do not follow the budget grid")
    tol = 1e-6  # sweep.csv holds six decimals
    previous = -math.inf
    for r in rows:
        beta = float(r["beta"])
        exact, greedy, mean_cost = float(r["exact_score"]), float(r["greedy_score"]), float(r["exact_mean_cost"])
        bound = mckp_lp_bound(scores, costs, math.floor(beta * n))
        _require(greedy <= exact + tol, f"beta={beta}: greedy {greedy} > exact {exact}")
        _require(exact <= bound + tol, f"beta={beta}: exact {exact} > LP upper bound {bound:.6f}")
        _require(mean_cost <= beta + tol, f"beta={beta}: mean cost {mean_cost} over budget")
        _require(exact >= previous, f"beta={beta}: exact score {exact} fell below {previous}")
        previous = exact
    return expected_star


def brute_force_mean(scores: np.ndarray, costs: Sequence[int], beta: float) -> float:
    n = len(scores)
    budget = math.floor(beta * n)
    best = -math.inf
    for choice in itertools.product(range(len(costs)), repeat=n):
        if sum(costs[j] for j in choice) <= budget:
            best = max(best, sum(scores[i, j] for i, j in enumerate(choice)))
    return best / n


def check_exact_small(scores: np.ndarray, costs: Sequence[int], rng: np.random.Generator, count: int = 4) -> None:
    """solve_exact equals brute-force enumeration on small sub-instances."""
    for _ in range(count):
        rows = rng.choice(len(scores), size=5, replace=False)
        cols = np.sort(rng.choice(len(costs), size=4, replace=False))
        sub = scores[np.ix_(rows, cols)]
        sub_costs = [int(costs[j]) for j in cols]
        beta = float(rng.uniform(min(sub_costs), max(sub_costs)))
        matrix = ScoreMatrix(ids=[str(i) for i in rows], label_lengths=[1] * 5, costs=sub_costs, scores=sub)
        got = solve_exact(matrix, beta).mean_score
        want = brute_force_mean(sub, sub_costs, beta)
        _require(abs(got - want) <= 1e-12, f"solve_exact {got!r} != brute force {want!r} at beta={beta}")


def chi2_table(chosen: dict[str, int], label_len: dict[str, int], bin_width: int, num_bins: int) -> np.ndarray:
    """Label-length bin x chosen cost counts, empty rows and columns dropped."""
    model_costs = sorted(set(chosen.values()))
    table = np.zeros((num_bins, len(model_costs)), dtype=np.int64)
    for seq_id, cost in chosen.items():
        b = min((max(label_len[seq_id], 1) - 1) // bin_width, num_bins - 1)
        table[b, model_costs.index(cost)] += 1
    return table[np.ix_(table.sum(axis=1) > 0, table.sum(axis=0) > 0)]


def check_chi2(
    out: Path, star: float, label_len: dict[str, int], bin_width: int, num_bins: int
) -> None:
    """The chi2 stage's statistic and p-value equal scipy's on a table rebuilt
    from the oracle's assignment CSV."""
    with open(out / "oracle" / f"assignment_beta{star:g}.csv", newline="") as fh:
        chosen = {r["id"]: int(r["chosen_cost"]) for r in csv.DictReader(fh)}
    _require(chosen.keys() == label_len.keys(), "assignment CSV does not cover the sequences")
    table = chi2_table(chosen, label_len, bin_width, num_bins)
    result = json.loads((out / "chi2" / f"chi2_beta{star:g}.json").read_text())
    _require(np.array_equal(np.asarray(result["table"]), table), "chi2 table differs from the assignment CSV's")
    _require(min(table.shape) >= 2, f"degenerate {table.shape} contingency table")
    from scipy.stats import chi2_contingency  # slow to import; only the check needs it

    stat, p_value, dof, _ = chi2_contingency(table, correction=False)
    _require(result["dof"] == dof, f"chi2 dof {result['dof']} != scipy {dof}")
    _require(
        math.isclose(result["statistic"], stat, rel_tol=1e-9, abs_tol=1e-12),
        f"chi2 statistic {result['statistic']!r} != scipy {stat!r}",
    )
    _require(
        math.isclose(result["p_value"], p_value, rel_tol=1e-7, abs_tol=1e-12),
        f"chi2 p-value {result['p_value']!r} != scipy {p_value!r}",
    )
