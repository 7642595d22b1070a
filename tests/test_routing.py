import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from depthlab.routing import PlanKind, RouteMask, RoutePlan, ee_mask, full_mask, rls_mask, uls_mask

FIXTURES = Path(__file__).parent / "fixtures"


def uls_fraction_oracle(num_layers, cost):
    """Direct evaluation of the uniform-skip recursion in exact rationals."""
    bits = [1]
    for layer in range(2, num_layers + 1):
        threshold = Fraction((layer - 1) * cost, num_layers)
        bits.append(1 if sum(bits) <= threshold else 0)
    return tuple(bits)


def test_uls_full_budget_all_ones():
    assert uls_mask(24, 24).bits == tuple([1] * 24)


def test_uls_hand_evaluated_small_cases():
    assert uls_mask(4, 2).bits == (1, 0, 1, 0)
    assert uls_mask(6, 2).bits == (1, 0, 0, 1, 0, 0)


def test_uls_matches_committed_l24_fixture():
    table = json.loads((FIXTURES / "uls_L24.json").read_text())
    for c_str, bits in table.items():
        assert uls_mask(24, int(c_str)).bits == tuple(bits)


def test_uls_matches_fraction_oracle_exhaustive():
    for L in range(1, 49):
        for c in range(1, L + 1):
            mask = uls_mask(L, c)
            assert mask.bits == uls_fraction_oracle(L, c), (L, c)
            assert sum(mask.bits) == c
            assert mask.bits[0] == 1


def test_uls_spacing_property():
    for L in range(1, 49):
        for c in range(1, L + 1):
            bits = uls_mask(L, c).bits
            executed = [i for i, b in enumerate(bits) if b]
            gaps = [b - a for a, b in zip(executed, executed[1:])]
            lo, hi = L // c, -(-L // c)
            for gap in gaps:
                assert min(abs(gap - lo), abs(gap - hi)) <= 1, (L, c, gaps)


def test_uls_cost_out_of_range():
    with pytest.raises(ValueError):
        uls_mask(8, 0)
    with pytest.raises(ValueError):
        uls_mask(8, 9)


def test_ee_masks():
    assert ee_mask(4, 4).bits == (1, 1, 1, 1)
    assert ee_mask(4, 2).bits == (1, 1, 0, 0)
    assert ee_mask(4, 1).bits == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        ee_mask(4, 5)


def test_ee_and_uls_cost_parity():
    for L in (4, 8, 24):
        for c in range(1, L + 1):
            assert sum(ee_mask(L, c).bits) == sum(uls_mask(L, c).bits) == c


def test_rls_full_budget():
    rng = np.random.default_rng(0)
    assert rls_mask(6, 6, False, rng).bits == tuple([1] * 6)


def test_rls_enforce_first_bit():
    rng = np.random.default_rng(1)
    for _ in range(200):
        mask = rls_mask(8, 3, True, rng)
        assert mask.bits[0] == 1
        assert sum(mask.bits) == 3


def test_rls_exact_cost_without_enforcement():
    rng = np.random.default_rng(2)
    for _ in range(200):
        assert sum(rls_mask(8, 5, False, rng).bits) == 5


def test_rls_uniform_frequency():
    rng = np.random.default_rng(3)
    draws = 100_000
    counts = np.zeros(6)
    for _ in range(draws):
        counts += rls_mask(6, 3, False, rng).bits
    freq = counts / draws
    assert np.all(np.abs(freq - 0.5) < 0.01), freq


def test_rls_reproducible_under_seed():
    a = [rls_mask(8, 4, True, np.random.default_rng(7)).bits for _ in range(3)]
    b = [rls_mask(8, 4, True, np.random.default_rng(7)).bits for _ in range(3)]
    assert a == b


def test_route_mask_validation():
    with pytest.raises(ValueError):
        RouteMask((0, 0, 0))
    with pytest.raises(ValueError):
        RouteMask((1, 2))


def test_plan_realize_kinds():
    assert RoutePlan.full(4).realize().bits == (1, 1, 1, 1)
    assert RoutePlan.early_exit(4, 2).realize().bits == (1, 1, 0, 0)
    assert RoutePlan.uniform_skip(4, 2).realize().bits == (1, 0, 1, 0)
    rng = np.random.default_rng(0)
    assert sum(RoutePlan.random_skip(4, 2).realize(rng).bits) == 2


def test_plan_redraw_flag():
    plan = RoutePlan.random_skip(8, 3, redraw_per_step=False)
    rng = np.random.default_rng(5)
    first = plan.realize(rng)
    second = plan.realize(rng, previous=first)
    assert second is first
    redraw = RoutePlan.random_skip(8, 3, redraw_per_step=True)
    draws = {redraw.realize(rng, previous=first).bits for _ in range(20)}
    assert len(draws) > 1


@pytest.mark.parametrize(
    "name,kind,enforce_first,label",
    [
        ("ee", PlanKind.EARLY_EXIT, True, "ee_{c}"),
        ("uls", PlanKind.UNIFORM_SKIP, True, "uls_{c}"),
        ("rls", PlanKind.RANDOM_SKIP, True, "rls_{c}"),
        ("rls_no1", PlanKind.RANDOM_SKIP, False, "rls_{c}_no1"),
        ("full", PlanKind.FULL, True, "full"),
    ],
)
def test_strategy_names_parse_to_plans_that_realize_their_cost(name, kind, enforce_first, label):
    L = 6
    (template,) = RoutePlan.parse(f" {name} ,", L)
    for c in [L] if kind is PlanKind.FULL else range(1, L + 1):
        plan = template.with_cost(c)
        assert plan.kind is kind and plan.enforce_first is enforce_first
        assert plan.label() == label.format(c=c)
        assert sum(plan.realize(np.random.default_rng(c)).bits) == c


def test_strategy_grammar_refuses_unknown_names_and_out_of_range_costs():
    for text in ("ee,rsl", "ee_no1", "uls_4"):
        name = text.split(",")[-1]
        with pytest.raises(ValueError, match=f"unknown strategy '{name}'"):
            RoutePlan.parse(text, 8)
    with pytest.raises(ValueError, match="repeated strategy 'ee'"):
        RoutePlan.parse("ee,uls, ee", 8)
    (full,) = RoutePlan.parse("full", 8)
    assert full.with_cost(8) == full
    with pytest.raises(ValueError, match="cost L only"):
        full.with_cost(7)
    for template in RoutePlan.parse("ee,uls,rls,rls_no1", 8):
        for cost in (0, 9):
            with pytest.raises(ValueError, match=f"cost {cost} outside"):
                template.with_cost(cost)
