import itertools
import math

import numpy as np
import pytest

from depthlab.oracle import (
    BudgetAssignment,
    InfeasibleBudget,
    ScoreMatrix,
    chi_square_homogeneity,
    score_matrix_from_csv,
    score_matrix_to_csv,
    solve_exact,
    solve_greedy,
    sweep,
)


def make_matrix(scores, costs, label_lengths=None):
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    return ScoreMatrix(
        ids=[f"s{i}" for i in range(n)],
        label_lengths=label_lengths or [10] * n,
        costs=list(costs),
        scores=scores,
    )


def suffix_fold(scores, columns):
    acc = 0.0
    for i in range(len(columns) - 1, -1, -1):
        acc = float(scores[i, columns[i]]) + acc
    return acc


def enumerate_exact(matrix, beta):
    """Brute-force oracle with the stated tie-break: max score, then min
    total cost, then lexicographically smallest per-row cost vector. Score
    sums use the same right-fold order as the solver."""
    budget = math.floor(beta * matrix.n)
    best_key, best_cols = None, None
    for combo in itertools.product(range(matrix.k), repeat=matrix.n):
        total = sum(matrix.costs[j] for j in combo)
        if total > budget:
            continue
        score = suffix_fold(matrix.scores, combo)
        key = (-score, total, tuple(matrix.costs[j] for j in combo))
        if best_key is None or key < best_key:
            best_key, best_cols = key, list(combo)
    if best_key is None:
        raise InfeasibleBudget(beta)
    return -best_key[0], best_cols


def test_exact_fixture_two_rows():
    matrix = make_matrix([[0.2, 0.9], [0.8, 0.85]], costs=[1, 2])
    result = solve_exact(matrix, beta=1.5)
    assert result.chosen_costs == [2, 1]
    assert result.mean_score == pytest.approx(0.85)
    assert result.total_cost == 3


def test_exact_unconstrained_picks_row_argmax():
    rng = np.random.default_rng(0)
    matrix = make_matrix(rng.uniform(size=(6, 4)), costs=[4, 8, 12, 24])
    result = solve_exact(matrix, beta=24)
    expected = [int(np.argmax(matrix.scores[i])) for i in range(matrix.n)]
    assert result.chosen_columns == expected


def test_exact_at_min_budget_all_cheapest():
    rng = np.random.default_rng(1)
    matrix = make_matrix(rng.uniform(size=(5, 3)), costs=[4, 8, 12])
    result = solve_exact(matrix, beta=4)
    assert result.chosen_costs == [4] * 5


def test_exact_infeasible_budget_names_minimum():
    matrix = make_matrix([[0.5, 0.6]], costs=[4, 8])
    with pytest.raises(InfeasibleBudget, match="minimum feasible beta is 4"):
        solve_exact(matrix, beta=3.9)


def test_exact_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(7)
    all_costs = [4, 8, 12, 24]
    for _ in range(60):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 5))
        costs = sorted(rng.choice(all_costs, size=k, replace=False).tolist())
        matrix = make_matrix(rng.uniform(size=(n, k)), costs=costs)
        beta = float(rng.uniform(min(costs), max(costs) + 2))
        got = solve_exact(matrix, beta)
        want_score, want_cols = enumerate_exact(matrix, beta)
        assert got.mean_score == want_score / matrix.n
        assert got.chosen_columns == want_cols


def test_exact_tie_break_prefers_lower_cost_then_lex():
    # Same score everywhere: the optimum is all-cheapest.
    matrix = make_matrix(np.full((3, 2), 0.5), costs=[4, 8])
    result = solve_exact(matrix, beta=8)
    assert result.chosen_costs == [4, 4, 4]

    # Row 0 gains by paying more, rows 1-2 are ties: extra budget goes to
    # row 0, ties stay at the cheap model.
    scores = np.array([[0.1, 0.9], [0.5, 0.5], [0.5, 0.5]])
    result = solve_exact(make_matrix(scores, costs=[4, 8]), beta=16 / 3)
    assert result.chosen_costs == [8, 4, 4]


def test_exact_tie_break_matches_enumeration_with_constructed_ties():
    rng = np.random.default_rng(3)
    levels = np.array([0.25, 0.5, 0.75])
    for _ in range(40):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        costs = sorted(rng.choice([4, 8, 12], size=k, replace=False).tolist())
        scores = levels[rng.integers(0, 3, size=(n, k))]
        matrix = make_matrix(scores, costs=costs)
        beta = float(rng.uniform(min(costs), max(costs) + 1))
        got = solve_exact(matrix, beta)
        want_score, want_cols = enumerate_exact(matrix, beta)
        assert got.mean_score == want_score / matrix.n
        assert got.chosen_columns == want_cols


def test_exact_row_order_independence():
    rng = np.random.default_rng(9)
    scores = rng.uniform(size=(6, 3))
    matrix = make_matrix(scores, costs=[4, 8, 12])
    perm = rng.permutation(6)
    permuted = make_matrix(scores[perm], costs=[4, 8, 12])
    a = solve_exact(matrix, beta=7.0)
    b = solve_exact(permuted, beta=7.0)
    assert a.mean_score == pytest.approx(b.mean_score, abs=1e-12)


def test_exact_with_more_than_256_columns():
    scores = np.zeros((2, 300))
    scores[:, 299] = 1.0
    matrix = make_matrix(scores, costs=range(1, 301))
    result = solve_exact(matrix, beta=300)
    assert result.chosen_columns == [299, 299]


def test_duplicate_costs_rejected():
    with pytest.raises(ValueError, match="distinct"):
        make_matrix([[0.15, 0.6, 0.75], [0.15, 0.6, 0.75]], costs=[2, 2, 4])


def test_greedy_per_row_constraint():
    matrix = make_matrix([[0.2, 0.9, 0.5], [0.8, 0.1, 0.9]], costs=[4, 8, 12])
    result = solve_greedy(matrix, beta=8)
    assert result.chosen_costs == [8, 4]  # cost 12 not allowed per row


def test_greedy_below_second_cheapest_is_cheapest_column():
    rng = np.random.default_rng(4)
    matrix = make_matrix(rng.uniform(size=(7, 3)), costs=[4, 8, 12])
    result = solve_greedy(matrix, beta=7.9)
    assert result.chosen_costs == [4] * 7
    assert result.mean_score == pytest.approx(float(matrix.scores[:, 0].mean()))


def test_greedy_equals_exact_at_max_cost():
    rng = np.random.default_rng(5)
    matrix = make_matrix(rng.uniform(size=(8, 4)), costs=[4, 8, 12, 24])
    exact = solve_exact(matrix, beta=24)
    greedy = solve_greedy(matrix, beta=24)
    assert exact.chosen_columns == greedy.chosen_columns


def test_dominance_chain_and_monotonicity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 5))
        costs = sorted(rng.choice([4, 8, 12, 24], size=k, replace=False).tolist())
        matrix = make_matrix(rng.uniform(size=(n, k)), costs=costs)
        betas = sorted(rng.uniform(min(costs), max(costs), size=4).tolist()) + [max(costs)]
        prev_exact = -np.inf
        for beta in betas:
            exact = solve_exact(matrix, beta).mean_score
            greedy = solve_greedy(matrix, beta).mean_score
            best_col = max(
                float(matrix.scores[:, j].mean()) for j in range(k) if matrix.costs[j] <= beta
            )
            assert exact >= greedy - 1e-12
            assert greedy >= best_col - 1e-12
            assert exact >= prev_exact - 1e-12
            prev_exact = exact


def test_budget_feasibility_invariant():
    rng = np.random.default_rng(8)
    for _ in range(20):
        matrix = make_matrix(rng.uniform(size=(6, 3)), costs=[4, 8, 12])
        beta = float(rng.uniform(4, 14))
        result = solve_exact(matrix, beta)
        assert sum(result.chosen_costs) <= math.floor(beta * matrix.n)
        assert result.mean_cost <= beta + 1e-9
        assert sum(result.selection_pct.values()) == pytest.approx(100.0)


def test_sweep_flat_for_single_model():
    matrix = make_matrix([[0.4], [0.6], [0.8]], costs=[4])
    result = sweep(matrix, [4, 6, 8])
    assert all(pt.exact_score == pytest.approx(0.6) for pt in result.points)


def test_sweep_duplicated_rows_do_not_change_scores():
    rng = np.random.default_rng(10)
    scores = rng.uniform(size=(4, 3))
    m1 = make_matrix(scores, costs=[4, 8, 12])
    m2 = make_matrix(np.vstack([scores, scores]), costs=[4, 8, 12])
    s1 = sweep(m1, [5, 8, 12])
    s2 = sweep(m2, [5, 8, 12])
    for p1, p2 in zip(s1.points, s2.points):
        assert p1.exact_score == pytest.approx(p2.exact_score, abs=1e-12)


def test_sweep_star_beta_detection():
    # Row structure where a mid budget already matches the expensive column.
    scores = np.array([[0.85, 0.5], [0.85, 0.5], [0.1, 0.95]])
    matrix = make_matrix(scores, costs=[4, 8])
    result = sweep(matrix, [4, 16 / 3, 8])
    full_mean = result.full_model_mean()
    assert full_mean == pytest.approx(scores[:, 1].mean())
    star = result.star_beta
    assert star == pytest.approx(16 / 3)
    exact_at_star = solve_exact(matrix, star).mean_score
    assert exact_at_star >= full_mean


def test_score_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    matrix = make_matrix(rng.uniform(size=(5, 2)).round(6), costs=[4, 8], label_lengths=[3, 7, 20, 40, 9])
    path = tmp_path / "matrix.csv"
    score_matrix_to_csv(matrix, path)
    loaded = score_matrix_from_csv(path)
    assert loaded.costs == matrix.costs
    assert loaded.ids == matrix.ids
    assert loaded.label_lengths == matrix.label_lengths
    np.testing.assert_allclose(loaded.scores, matrix.scores, atol=1e-6)


def _assignment(chosen_costs, all_costs):
    n = len(chosen_costs)
    counts = {c: chosen_costs.count(c) for c in all_costs}
    return BudgetAssignment(
        beta=float(max(all_costs)),
        chosen_columns=[all_costs.index(c) for c in chosen_costs],
        chosen_costs=list(chosen_costs),
        mean_score=0.5,
        mean_cost=sum(chosen_costs) / n,
        total_cost=sum(chosen_costs),
        selection_pct={c: 100.0 * counts[c] / n for c in all_costs},
    )


def test_chi2_identical_proportions_gives_zero():
    # Two bins, both with 5 of each model.
    chosen = [4] * 5 + [8] * 5 + [4] * 5 + [8] * 5
    lengths = [5] * 10 + [20] * 10
    result = chi_square_homogeneity(_assignment(chosen, [4, 8]), lengths)
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0)


def test_chi2_fixture_2x2():
    # Contingency table [[10, 20], [20, 10]].
    chosen = [4] * 10 + [8] * 20 + [4] * 20 + [8] * 10
    lengths = [5] * 30 + [20] * 30
    result = chi_square_homogeneity(_assignment(chosen, [4, 8]), lengths)
    assert result.statistic == pytest.approx(6.6667, abs=1e-3)
    assert result.dof == 1
    assert result.p_value == pytest.approx(0.00982, abs=1e-4)


def test_chi2_drops_empty_bins_and_unused_models():
    chosen = [4] * 10 + [8] * 10
    lengths = [5] * 10 + [170] * 10  # bins 1 and 11 only
    assignment = _assignment(chosen, [4, 8, 12])  # model 12 never selected
    result = chi_square_homogeneity(assignment, lengths)
    assert 12 in result.dropped_models
    assert len(result.dropped_bins) == 9
    assert result.table.shape == (2, 2)


def test_chi2_binning_rule():
    # Length 15 falls in bin 1, 16 in bin 2, 151 in the open-ended last bin.
    chosen = [4, 8, 4, 8, 4, 8]
    lengths = [1, 15, 16, 30, 151, 400]
    result = chi_square_homogeneity(_assignment(chosen, [4, 8]), lengths)
    assert result.bin_labels == ["1-15", "16-30", ">150"]
    assert result.table.sum() == 6


def test_chi2_degenerate_single_model():
    chosen = [4] * 12
    lengths = [5] * 6 + [20] * 6
    result = chi_square_homogeneity(_assignment(chosen, [4]), lengths)
    assert result.dof == 0
    assert result.p_value == 1.0
