import numpy as np
import pytest

from depthlab.metrics import cosine, mean_ci
from depthlab.model import DecoderModel, ModelConfig, init_params
from depthlab.probe import compare_strategies, probe, ranking_to_csv, similarity_to_csv
from depthlab.routing import RoutePlan

CFG = ModelConfig(num_layers=4, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=32, max_context=48)


@pytest.fixture(scope="module")
def model():
    return DecoderModel(CFG, init_params(CFG, seed=0))


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(1)
    return [[int(t) for t in rng.integers(0, CFG.vocab_size, size=4)] for _ in range(3)]


def test_full_strategy_similarity_is_one(model, prompts):
    report = probe(model, prompts, [RoutePlan.full(CFG.num_layers)], [CFG.num_layers], max_new=5)
    entry = report.entries[0]
    assert entry.final_mean == pytest.approx(1.0, abs=1e-12)
    assert entry.layerwise_mean == pytest.approx(1.0, abs=1e-12)
    assert entry.final_half_width == pytest.approx(0.0, abs=1e-12)


def test_early_exit_at_full_depth_similarity_is_one(model, prompts):
    report = probe(model, prompts, [RoutePlan.early_exit(CFG.num_layers, CFG.num_layers)], [CFG.num_layers], max_new=5)
    entry = report.entries[0]
    assert entry.final_mean == pytest.approx(1.0, abs=1e-12)
    assert entry.layerwise_mean == pytest.approx(1.0, abs=1e-12)


def test_early_exit_shared_prefix_layers_identical(model, prompts):
    # Layers l <= L_E compute exactly the same states as the full model on a
    # forced trajectory.
    prompt = prompts[0]
    ref = model.generate(prompt, plan=RoutePlan.full(CFG.num_layers), max_new=5, rng_seed=0, eos_id=None)
    n_steps = ref.trace.num_positions - len(prompt)
    forced = prompt + ref.generated_ids[:n_steps]
    exit_layer = 2
    states, _ = model.replay_tokens(forced, len(prompt), RoutePlan.early_exit(CFG.num_layers, exit_layer))
    for t in range(len(prompt), len(forced)):
        for l in range(1, exit_layer + 1):
            assert cosine(ref.trace.h(t, l), states[t, l]) == pytest.approx(1.0, abs=1e-12)


def test_probe_deterministic_given_seed(model, prompts):
    strategies = [RoutePlan.random_skip(CFG.num_layers, CFG.num_layers)]
    a = probe(model, prompts, strategies, [2, 3], seed=9, max_new=4)
    b = probe(model, prompts, strategies, [2, 3], seed=9, max_new=4)
    assert [(e.strategy, e.cost, e.final_mean, e.layerwise_mean) for e in a.entries] == [
        (e.strategy, e.cost, e.final_mean, e.layerwise_mean) for e in b.entries
    ]


def test_probe_rejects_out_of_range_cost(model, prompts):
    with pytest.raises(ValueError, match="outside"):
        probe(model, prompts, [RoutePlan.full(CFG.num_layers)], [CFG.num_layers + 1])


def test_compare_strategies_singleton_and_duplicates(model, prompts):
    single = probe(model, prompts, [RoutePlan.uniform_skip(CFG.num_layers, CFG.num_layers)], [2], max_new=4)
    rows = compare_strategies(single)
    assert len(rows) == 1 and rows[0].rank == 1

    dup = probe(
        model,
        prompts,
        [RoutePlan.uniform_skip(CFG.num_layers, CFG.num_layers)] * 2,
        [2],
        max_new=4,
    )
    assert len(dup.entries) == 2
    assert dup.entries[0].final_mean == dup.entries[1].final_mean
    rows = compare_strategies(dup)
    assert [r.rank for r in rows] == [1, 2]
    assert rows[0].final_mean == rows[1].final_mean


def test_rls_variants_have_distinct_labels(model, prompts):
    strategies = [
        RoutePlan.random_skip(CFG.num_layers, CFG.num_layers, enforce_first=True),
        RoutePlan.random_skip(CFG.num_layers, CFG.num_layers, enforce_first=False),
    ]
    report = probe(model, prompts, strategies, [2], seed=4, max_new=4)
    labels = {e.strategy for e in report.entries}
    assert labels == {"rls_2", "rls_2_no1"}


def test_csv_outputs(model, prompts, tmp_path):
    report = probe(
        model,
        prompts,
        [RoutePlan.early_exit(CFG.num_layers, CFG.num_layers), RoutePlan.uniform_skip(CFG.num_layers, CFG.num_layers)],
        [2, 4],
        max_new=4,
    )
    sim_path = tmp_path / "similarity.csv"
    similarity_to_csv(report, sim_path)
    lines = sim_path.read_text().strip().splitlines()
    assert lines[0] == "strategy,cost,metric,mean,ci_low,ci_high,n"
    assert len(lines) == 1 + 2 * len(report.entries)

    rank_path = tmp_path / "ranking.csv"
    ranking_to_csv(compare_strategies(report), rank_path)
    assert rank_path.read_text().startswith("cost,rank,strategy,final_mean")


def _per_step_probe(model, prompts, strategies, cost_grid, seed, max_new):
    """The probe as a loop over steps and layers with one cosine per pair:
    {(strategy index, label, cost): (final mean, half, layerwise mean, half, n)}."""
    L = model.cfg.num_layers
    pooled = {}
    for i, prompt in enumerate(prompts):
        ref = model.generate(list(prompt), plan=RoutePlan.full(L), max_new=max_new)
        p = len(prompt)
        n_steps = ref.trace.num_positions - p
        if n_steps <= 0:
            continue
        forced = list(prompt) + ref.generated_ids[:n_steps]
        for s_idx, template in enumerate(strategies):
            for cost in cost_grid:
                plan = template.with_cost(cost)
                states, _ = model.replay_tokens(forced, p, plan, np.random.default_rng((seed, s_idx, cost, i)))
                finals, layerwise = pooled.setdefault((s_idx, plan.label(), cost), ([], []))
                for t in range(p, len(forced)):
                    finals.append(cosine(ref.trace.h(t, L), states[t, L]))
                    layerwise.append(float(np.mean([cosine(ref.trace.h(t, l), states[t, l]) for l in range(1, L)])))
    return {key: (*mean_ci(f), *mean_ci(lw), len(f)) for key, (f, lw) in pooled.items()}


def test_probe_matches_the_per_step_loop(model, prompts):
    L = CFG.num_layers
    strategies = [
        RoutePlan.early_exit(L, L),
        RoutePlan.uniform_skip(L, L),
        RoutePlan.random_skip(L, L, enforce_first=True),
        RoutePlan.random_skip(L, L, enforce_first=False),
    ]
    prompts = prompts + [prompts[0][:1]]
    report = probe(model, prompts, strategies, [1, 2, 3], seed=5, max_new=7)
    expected = _per_step_probe(model, prompts, strategies, [1, 2, 3], seed=5, max_new=7)
    assert len(report.entries) == len(expected) == 12
    for e, (_key, want) in zip(report.entries, sorted(expected.items())):
        got = (e.final_mean, e.final_half_width, e.layerwise_mean, e.layerwise_half_width)
        assert np.abs(np.subtract(got, want[:4])).max() <= 1e-15
        assert e.n == want[4] == 7 * len(prompts)
