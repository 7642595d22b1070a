"""Sequence-level budget allocation: exact multiple-choice knapsack solver,
per-sequence greedy baseline, budget sweeps, and the chi-square homogeneity
test of model selection against label length."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import chdtrc


class InfeasibleBudget(ValueError):
    pass


@dataclass
class ScoreMatrix:
    """n sequences x k candidate models.

    `costs[j]` is the per-sequence cost (executed layers) of model column j;
    `scores[i, j]` its quality score (ROUGE-L) on sequence i. `texts` is
    optional; no stage fills it.
    """

    ids: list[str]
    label_lengths: list[int]
    costs: list[int]
    scores: np.ndarray
    texts: list[list[str]] | None = None

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        n, k = self.scores.shape
        if k < 1:
            raise ValueError("ScoreMatrix needs at least one model column")
        if not np.isfinite(self.scores).all():
            raise ValueError("scores must be finite (no NaN or inf)")
        if len(self.costs) != k:
            raise ValueError(f"{len(self.costs)} costs for {k} score columns")
        if len(self.ids) != n or len(self.label_lengths) != n:
            raise ValueError("ids/label_lengths must match score rows")
        if any(c <= 0 for c in self.costs):
            raise ValueError(f"model costs must be positive, got {self.costs}")
        if len(set(self.costs)) != k:
            raise ValueError(f"model costs must be distinct, got {self.costs}")

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def k(self) -> int:
        return self.scores.shape[1]


@dataclass
class BudgetAssignment:
    beta: float
    chosen_columns: list[int]
    chosen_costs: list[int]
    mean_score: float
    mean_cost: float
    total_cost: int
    selection_pct: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mean_cost > self.beta + 1e-9:
            raise ValueError(f"mean cost {self.mean_cost} exceeds budget {self.beta}")
        total_pct = sum(self.selection_pct.values())
        if abs(total_pct - 100.0) > 1e-6:
            raise ValueError(f"selection percentages sum to {total_pct}, not 100")


def _column_order(costs: Sequence[int]) -> list[int]:
    # Tie preference: lower cost first.
    return sorted(range(len(costs)), key=lambda j: costs[j])


def _suffix_score(scores: np.ndarray, columns: Sequence[int]) -> float:
    # Right fold, matching the suffix DP's accumulation order exactly.
    acc = 0.0
    for i in range(len(columns) - 1, -1, -1):
        acc = float(scores[i, columns[i]]) + acc
    return acc


def _make_assignment(matrix: ScoreMatrix, beta: float, columns: list[int]) -> BudgetAssignment:
    chosen_costs = [matrix.costs[j] for j in columns]
    total_cost = sum(chosen_costs)
    counts = {c: 0 for c in matrix.costs}
    for c in chosen_costs:
        counts[c] += 1
    pct = {c: 100.0 * counts[c] / matrix.n for c in matrix.costs}
    return BudgetAssignment(
        beta=beta,
        chosen_columns=columns,
        chosen_costs=chosen_costs,
        mean_score=_suffix_score(matrix.scores, columns) / matrix.n,
        mean_cost=total_cost / matrix.n,
        total_cost=total_cost,
        selection_pct=pct,
    )


def _budget(matrix: ScoreMatrix, beta: float) -> int:
    """Total budget floor(beta * n); raises InfeasibleBudget below n times the
    cheapest cost."""
    min_cost = min(matrix.costs)
    budget = math.floor(beta * matrix.n)
    if budget < matrix.n * min_cost:
        raise InfeasibleBudget(
            f"budget beta={beta} infeasible: minimum feasible beta is {min_cost}"
        )
    return budget


# (final value row, choice table, scaled costs, kept pairs) of one DP.
_Table = tuple[np.ndarray, np.ndarray, list[int], int]


def _dp_table(matrix: ScoreMatrix, beta: float) -> _Table:
    """Suffix DP over exact total cost (divided by the gcd of the model
    costs), capped at beta's budget. Returns the final value row (`best[c]`:
    max score of all rows at exactly scaled cost c), the choice table
    (`choice[i, c]`: row i's column on that path), the scaled costs and the
    number of (row, column) pairs kept by the dominance rule.

    Dominance (the MCKP reduction): on row i, a column is kept only if its
    score is strictly above every cheaper column's; the cheapest is always
    kept. This is exact, ties included. Float addition is monotone, so
    swapping a dominated column for a cheaper one that scores at least as
    much never lowers a path's right-fold sum and strictly lowers its cost;
    hence no lowest-cost optimal path uses a dominated column. Along that
    path every cell keeps its value, and each cell's first maximum in cost
    order is a kept column, so `_backtrack` finds the same cost and the same
    columns as without the rule, for every budget. Cells off every optimal
    path may hold lower values; nothing reads them.

    A cell depends only on the rows below it and on its own cost, never on
    the cap, so the table built for the largest budget of a sweep answers
    every smaller budget: `_backtrack` reads its prefix. The value rows and
    the per-column buffers are allocated once and reused across rows; the
    choice table is n x (cap+1) in the smallest unsigned type that holds a
    column index.
    """
    n, k = matrix.n, matrix.k
    g = math.gcd(*matrix.costs)
    weights = [c // g for c in matrix.costs]
    cap = min(_budget(matrix, beta) // g, n * max(weights))
    order = np.array(_column_order(matrix.costs))
    by_cost = matrix.scores[:, order]
    keep = np.ones((n, k), dtype=bool)
    np.greater(by_cost[:, 1:], np.maximum.accumulate(by_cost, axis=1)[:, :-1], out=keep[:, 1:])

    best = np.full(cap + 1, -np.inf)
    best[0] = 0.0
    new_best = np.empty(cap + 1)
    cand = np.empty(cap + 1)
    better = np.empty(cap + 1, dtype=bool)
    choice = np.zeros((n, cap + 1), dtype=np.min_scalar_type(k - 1))
    for i in range(n - 1, -1, -1):
        new_best.fill(-np.inf)
        choice_row = choice[i]
        for j in order[keep[i]].tolist():
            w = weights[j]
            if w > cap:
                break
            # Column j moves suffix cost c - w to c; a strict > keeps the
            # cheaper column on ties, as columns come in cost order.
            span = cap + 1 - w
            np.add(best[:span], matrix.scores[i, j], out=cand[:span])
            np.greater(cand[:span], new_best[w:], out=better[:span])
            np.copyto(new_best[w:], cand[:span], where=better[:span])
            np.copyto(choice_row[w:], j, where=better[:span])
        best, new_best = new_best, best
    return best, choice, weights, int(keep.sum())


def _backtrack(matrix: ScoreMatrix, beta: float, table: _Table) -> BudgetAssignment:
    """Assignment for beta from a table built at a budget >= beta: the lowest
    scaled cost that reaches the best score within beta's cap, then the
    choice path down from it."""
    best, choice, weights, _ = table
    cap = min(_budget(matrix, beta) // math.gcd(*matrix.costs), len(best) - 1)
    prefix = best[: cap + 1]
    feasible = np.flatnonzero(np.isfinite(prefix))
    c = int(feasible[np.argmax(prefix[feasible])])  # argmax takes lowest cost on ties

    columns: list[int] = []
    for i in range(matrix.n):
        j = int(choice[i, c])
        columns.append(j)
        c -= weights[j]
    assert c == 0
    return _make_assignment(matrix, beta, columns)


def solve_exact(matrix: ScoreMatrix, beta: float) -> BudgetAssignment:
    """Optimal assignment of one model per sequence under a total budget of
    floor(beta * n) layers.

    Dynamic program over exact total cost (divided by the gcd of the model
    costs), then a backtrack through its choice table. Ties break toward
    higher score, then lower total cost, then the lexicographically smallest
    per-row cost vector.
    """
    return _backtrack(matrix, beta, _dp_table(matrix, beta))


def solve_greedy(matrix: ScoreMatrix, beta: float) -> BudgetAssignment:
    """Per-sequence argmax over the models whose cost fits the budget
    individually (no reallocation between sequences); the first maximum in
    cost order, so lower cost wins ties."""
    if beta < min(matrix.costs):
        raise InfeasibleBudget(
            f"budget beta={beta} infeasible: minimum feasible beta is {min(matrix.costs)}"
        )
    allowed = np.array([j for j in _column_order(matrix.costs) if matrix.costs[j] <= beta])
    columns = allowed[np.argmax(matrix.scores[:, allowed], axis=1)].tolist()
    return _make_assignment(matrix, beta, columns)


@dataclass
class SweepPoint:
    beta: float
    exact_score: float
    greedy_score: float
    exact_mean_cost: float
    selection_pct: dict[int, float]
    assignment: BudgetAssignment  # the exact solution at beta


@dataclass
class SweepResult:
    points: list[SweepPoint]
    column_means: dict[int, float]
    star_beta: float | None
    columns_kept: int  # (sequence, model) pairs no cheaper model dominates

    def full_model_mean(self) -> float:
        return self.column_means[max(self.column_means)]


def sweep(matrix: ScoreMatrix, beta_grid: Sequence[float]) -> SweepResult:
    """Run exact and greedy solvers across a budget grid.

    One DP table, built at the largest budget, serves every budget by
    backtracking from its own cap. Also locates the smallest grid budget
    whose exact score reaches the highest-cost model's column mean (the
    parity point).
    """
    if len(beta_grid) == 0:
        raise ValueError("empty budget grid")
    column_means = {
        matrix.costs[j]: float(matrix.scores[:, j].mean()) for j in range(matrix.k)
    }
    full_mean = column_means[max(column_means)]
    betas = sorted(beta_grid)
    _budget(matrix, betas[0])  # refuse an infeasible grid before the DP runs
    table = _dp_table(matrix, betas[-1])
    points = []
    star: float | None = None
    for beta in betas:
        exact = _backtrack(matrix, beta, table)
        greedy = solve_greedy(matrix, beta)
        points.append(
            SweepPoint(
                beta=beta,
                exact_score=exact.mean_score,
                greedy_score=greedy.mean_score,
                exact_mean_cost=exact.mean_cost,
                selection_pct=exact.selection_pct,
                assignment=exact,
            )
        )
        if star is None and exact.mean_score >= full_mean:
            star = beta
    return SweepResult(
        points=points, column_means=column_means, star_beta=star, columns_kept=table[3]
    )


@dataclass
class Chi2Result:
    statistic: float
    dof: int
    p_value: float
    table: np.ndarray
    bin_labels: list[str]
    model_costs: list[int]
    dropped_bins: list[str]
    dropped_models: list[int]


def chi_square_homogeneity(
    assignment: BudgetAssignment,
    label_lengths: Sequence[int],
    bin_width: int = 15,
    num_bins: int = 11,
) -> Chi2Result:
    """Chi-square test that model selection is homogeneous across label-length
    bins.

    Lengths fall in bins [bin_width*(i-1)+1, bin_width*i] for i < num_bins and
    the last bin collects everything longer. Empty bins and never-selected
    models are dropped from the contingency table and recorded.
    """
    if len(label_lengths) != len(assignment.chosen_costs):
        raise ValueError("assignment and label lengths must align")
    model_costs = sorted(set(assignment.chosen_costs) | set(assignment.selection_pct))
    col_of = {c: j for j, c in enumerate(model_costs)}
    table = np.zeros((num_bins, len(model_costs)), dtype=np.int64)
    for length, cost in zip(label_lengths, assignment.chosen_costs):
        b = min((max(int(length), 1) - 1) // bin_width, num_bins - 1)
        table[b, col_of[cost]] += 1

    bin_labels = [
        f"{bin_width * i + 1}-{bin_width * (i + 1)}" for i in range(num_bins - 1)
    ] + [f">{bin_width * (num_bins - 1)}"]

    row_keep = table.sum(axis=1) > 0
    col_keep = table.sum(axis=0) > 0
    dropped_bins = [bin_labels[i] for i in range(num_bins) if not row_keep[i]]
    dropped_models = [model_costs[j] for j in range(len(model_costs)) if not col_keep[j]]
    kept = table[np.ix_(row_keep, col_keep)]
    kept_bins = [bin_labels[i] for i in range(num_bins) if row_keep[i]]
    kept_models = [model_costs[j] for j in range(len(model_costs)) if col_keep[j]]

    rows, cols = kept.shape
    dof = (rows - 1) * (cols - 1)
    if dof == 0:
        return Chi2Result(0.0, 0, 1.0, kept, kept_bins, kept_models, dropped_bins, dropped_models)

    total = kept.sum()
    expected = np.outer(kept.sum(axis=1), kept.sum(axis=0)) / total
    mask = expected > 0
    stat = float((((kept - expected) ** 2)[mask] / expected[mask]).sum())
    return Chi2Result(
        statistic=stat,
        dof=dof,
        p_value=float(chdtrc(dof, stat)),
        table=kept,
        bin_labels=kept_bins,
        model_costs=kept_models,
        dropped_bins=dropped_bins,
        dropped_models=dropped_models,
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def score_matrix_to_csv(matrix: ScoreMatrix, path: str | Path) -> None:
    header = ["id", "label_len"]
    for c in matrix.costs:
        header += [f"cost_{c}", f"score_{c}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(matrix.n):
            row: list = [matrix.ids[i], matrix.label_lengths[i]]
            for j, c in enumerate(matrix.costs):
                row += [c, f"{matrix.scores[i, j]:.6f}"]
            writer.writerow(row)


def score_matrix_from_csv(path: str | Path) -> ScoreMatrix:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        costs = [int(name.split("_", 1)[1]) for name in header[2::2]]
        ids, lengths, rows = [], [], []
        for row in reader:
            ids.append(row[0])
            lengths.append(int(row[1]))
            rows.append([float(v) for v in row[3::2]])
    return ScoreMatrix(ids=ids, label_lengths=lengths, costs=costs, scores=np.array(rows))


def score_matrix_from_prediction_sets(paths: Sequence[str | Path]) -> ScoreMatrix:
    """Join per-model prediction sets (JSONL of id/cost/text/rouge_l/label_len)
    into one matrix, keyed by sequence id. Each file is decoded in one call,
    as a JSON array of its lines."""
    sets = []
    for path in paths:
        with open(path) as fh:
            lines = fh.readlines()
        recs = json.loads("[" + ",".join(lines) + "]")
        if len(recs) != len(lines):
            raise ValueError(f"{path}: expected one JSON record per line")
        if not recs:
            raise ValueError(f"{path}: empty prediction set")
        cost = int(recs[0]["cost"])
        records = {}
        for rec in recs:
            if int(rec["cost"]) != cost:
                raise ValueError(f"{path}: mixed costs in one prediction set")
            if rec["id"] in records:
                raise ValueError(f"{path}: duplicate id {rec['id']}")
            records[rec["id"]] = rec
        sets.append((cost, records))
    sets.sort(key=lambda item: item[0])
    ids = sorted(sets[0][1])
    for cost, records in sets[1:]:
        if sorted(records) != ids:
            raise ValueError(f"prediction sets disagree on sequence ids (cost {cost})")
    costs = [cost for cost, _ in sets]
    scores = np.array([[sets_j[1][i]["rouge_l"] for sets_j in sets] for i in ids])
    lengths = [int(sets[0][1][i]["label_len"]) for i in ids]
    return ScoreMatrix(ids=ids, label_lengths=lengths, costs=costs, scores=scores)


def assignment_to_csv(matrix: ScoreMatrix, assignment: BudgetAssignment, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "chosen_cost"])
        for i in range(matrix.n):
            writer.writerow([matrix.ids[i], assignment.chosen_costs[i]])


def sweep_to_csv(result: SweepResult, path: str | Path) -> None:
    costs = sorted(result.column_means)
    header = ["beta", "exact_score", "greedy_score", "exact_mean_cost"]
    header += [f"pct_{c}" for c in costs]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for pt in result.points:
            row = [
                f"{pt.beta:.6g}",
                f"{pt.exact_score:.6f}",
                f"{pt.greedy_score:.6f}",
                f"{pt.exact_mean_cost:.6f}",
            ]
            row += [f"{pt.selection_pct.get(c, 0.0):.4f}" for c in costs]
            writer.writerow(row)


def chi2_to_json(result: Chi2Result, path: str | Path) -> None:
    payload = {
        "statistic": result.statistic,
        "dof": result.dof,
        "p_value": result.p_value,
        "bin_labels": result.bin_labels,
        "model_costs": result.model_costs,
        "table": result.table.tolist(),
        "dropped_bins": result.dropped_bins,
        "dropped_models": result.dropped_models,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
