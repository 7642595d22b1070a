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

from .special import chi2_sf


class InfeasibleBudget(ValueError):
    pass


@dataclass
class ScoreMatrix:
    """n sequences x k candidate models.

    `costs[j]` is the per-sequence cost (executed layers) of model column j;
    `scores[i, j]` its quality score (ROUGE-L) on sequence i. Text references
    are optional and carried only for report output.
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


def solve_exact(matrix: ScoreMatrix, beta: float) -> BudgetAssignment:
    """Optimal assignment of one model per sequence under a total budget of
    floor(beta * n) layers.

    Dynamic program over exact total cost (divided by the gcd of the model
    costs), one rolling value row plus a per-row choice table for
    backtracking, in the smallest unsigned type that holds a column index.
    Ties break toward higher score, then lower total cost, then the
    lexicographically smallest per-row cost vector.
    """
    n, k = matrix.n, matrix.k
    min_cost = min(matrix.costs)
    budget = math.floor(beta * n)
    if budget < n * min_cost:
        raise InfeasibleBudget(
            f"budget beta={beta} infeasible: minimum feasible beta is {min_cost}"
        )

    g = math.gcd(*matrix.costs) if k > 1 else matrix.costs[0]
    weights = [c // g for c in matrix.costs]
    cap = min(budget // g, n * max(weights))
    order = _column_order(matrix.costs)

    # best[c]: max suffix score of rows i..n-1 using exactly c scaled cost.
    best = np.full(cap + 1, -np.inf)
    best[0] = 0.0
    choice = np.zeros((n, cap + 1), dtype=np.min_scalar_type(k - 1))
    for i in range(n - 1, -1, -1):
        new_best = np.full(cap + 1, -np.inf)
        choice_row = choice[i]
        for j in order:
            w = weights[j]
            if w > cap:
                continue
            cand = np.full(cap + 1, -np.inf)
            cand[w:] = best[: cap + 1 - w] + matrix.scores[i, j]
            better = cand > new_best
            new_best[better] = cand[better]
            choice_row[better] = j
        best = new_best

    feasible = np.flatnonzero(np.isfinite(best))
    target = int(feasible[np.argmax(best[feasible])])  # argmax takes lowest cost on ties

    columns: list[int] = []
    c = target
    for i in range(n):
        j = int(choice[i, c])
        columns.append(j)
        c -= weights[j]
    assert c == 0
    return _make_assignment(matrix, beta, columns)


def solve_greedy(matrix: ScoreMatrix, beta: float) -> BudgetAssignment:
    """Per-sequence argmax over the models whose cost fits the budget
    individually (no reallocation between sequences)."""
    if beta < min(matrix.costs):
        raise InfeasibleBudget(
            f"budget beta={beta} infeasible: minimum feasible beta is {min(matrix.costs)}"
        )
    order = _column_order(matrix.costs)
    allowed = [j for j in order if matrix.costs[j] <= beta]
    columns = []
    for i in range(matrix.n):
        best_j = allowed[0]
        for j in allowed[1:]:
            if matrix.scores[i, j] > matrix.scores[i, best_j]:
                best_j = j
        columns.append(best_j)
    return _make_assignment(matrix, beta, columns)


@dataclass
class SweepPoint:
    beta: float
    exact_score: float
    greedy_score: float
    exact_mean_cost: float
    selection_pct: dict[int, float]


@dataclass
class SweepResult:
    points: list[SweepPoint]
    column_means: dict[int, float]
    star_beta: float | None

    def full_model_mean(self) -> float:
        return self.column_means[max(self.column_means)]


def sweep(matrix: ScoreMatrix, beta_grid: Sequence[float]) -> SweepResult:
    """Run exact and greedy solvers across a budget grid.

    Also locates the smallest grid budget whose exact score reaches the
    highest-cost model's column mean (the parity point).
    """
    if len(beta_grid) == 0:
        raise ValueError("empty budget grid")
    column_means = {
        matrix.costs[j]: float(matrix.scores[:, j].mean()) for j in range(matrix.k)
    }
    full_mean = column_means[max(column_means)]
    points = []
    star: float | None = None
    for beta in sorted(beta_grid):
        exact = solve_exact(matrix, beta)
        greedy = solve_greedy(matrix, beta)
        points.append(
            SweepPoint(
                beta=beta,
                exact_score=exact.mean_score,
                greedy_score=greedy.mean_score,
                exact_mean_cost=exact.mean_cost,
                selection_pct=exact.selection_pct,
            )
        )
        if star is None and exact.mean_score >= full_mean:
            star = beta
    return SweepResult(points=points, column_means=column_means, star_beta=star)


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
        p_value=chi2_sf(stat, dof),
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
    into one matrix, keyed by sequence id."""
    sets = []
    for path in paths:
        records = {}
        cost = None
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if cost is None:
                    cost = int(rec["cost"])
                elif int(rec["cost"]) != cost:
                    raise ValueError(f"{path}: mixed costs in one prediction set")
                if rec["id"] in records:
                    raise ValueError(f"{path}: duplicate id {rec['id']}")
                records[rec["id"]] = rec
        if cost is None:
            raise ValueError(f"{path}: empty prediction set")
        sets.append((cost, records))
    sets.sort(key=lambda item: item[0])
    ids = sorted(sets[0][1])
    for cost, records in sets[1:]:
        if sorted(records) != ids:
            raise ValueError(f"prediction sets disagree on sequence ids (cost {cost})")
    costs = [cost for cost, _ in sets]
    scores = np.array([[sets_j[1][i]["rouge_l"] for sets_j in sets] for i in ids])
    lengths = [int(sets[0][1][i]["label_len"]) for i in ids]
    texts = [[sets_j[1][i]["text"] for sets_j in sets] for i in ids]
    return ScoreMatrix(ids=ids, label_lengths=lengths, costs=costs, scores=scores, texts=texts)


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
