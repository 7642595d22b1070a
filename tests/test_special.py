"""The chi-square tail function behind chi_square_homogeneity's p-value.

The oracle computes the upper tail in closed form with the standard
library (`depthlab.oracle.chdtrc`); these tests compare it with
scipy.special.chdtrc, a test-only dependency, and pin the values the
length-bin analysis depends on.
"""

import numpy as np
import pytest
from scipy import special

from depthlab.oracle import BudgetAssignment, chdtrc, chi_square_homogeneity


def _assignment(chosen_costs, all_costs):
    n = len(chosen_costs)
    return BudgetAssignment(
        beta=float(max(all_costs)),
        chosen_costs=list(chosen_costs),
        mean_score=0.5,
        mean_cost=sum(chosen_costs) / n,
        total_cost=sum(chosen_costs),
        selection_pct={c: 100.0 * chosen_costs.count(c) / n for c in all_costs},
    )


@pytest.mark.parametrize("dof", [*range(1, 13), 59, 60, 229, 230])
def test_chdtrc_matches_scipy(dof):
    # Relative error 1e-12 where the tail exceeds 1e-12, absolute 1e-15 below.
    xs = np.concatenate([np.geomspace(0.01, 1200.0, 400), np.arange(1.0, 1201.0)])
    ours = np.array([chdtrc(dof, float(x)) for x in xs])
    theirs = special.chdtrc(dof, xs)
    big = theirs > 1e-12
    assert (np.abs(ours[big] - theirs[big]) / theirs[big]).max() <= 1e-12
    assert np.abs(ours[~big] - theirs[~big]).max(initial=0.0) <= 1e-15


def test_chi2_quantile_95_dof1():
    assert chdtrc(1, 3.8415) == pytest.approx(0.05, abs=1e-4)
    assert 1.0 - chdtrc(1, 3.8415) == pytest.approx(0.95, abs=1e-4)


def test_chi2_sf_edge_cases():
    for dof in (1, 2, 3, 10):
        assert chdtrc(dof, 0.0) == 1.0
    # Three models in equal shares in both bins: statistic 0 on 2 dof.
    chosen = [4, 8, 12] * 4 + [4, 8, 12] * 4
    lengths = [5] * 12 + [20] * 12
    result = chi_square_homogeneity(_assignment(chosen, [4, 8, 12]), lengths, bin_width=15, num_bins=11)
    assert result.dof == 2
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == 1.0
    # chdtrc gives 0 on 0 dof; a table with one model reports p = 1 instead.
    single = chi_square_homogeneity(_assignment([4] * 12, [4]), lengths[:12], bin_width=15, num_bins=11)
    assert single.dof == 0
    assert single.p_value == 1.0
