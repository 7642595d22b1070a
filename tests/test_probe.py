import numpy as np
import pytest

from depthlab import autodiff, tokenizer
from depthlab.metrics import cosine, mean_ci
from depthlab.model import DecoderModel, ModelConfig, init_params
from depthlab.probe import compare_strategies, probe, ranking_to_csv, similarity_to_csv
from depthlab.routing import RoutePlan

CFG = ModelConfig(num_layers=4, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=32, max_context=48)
# The byte vocabulary, so that BOS prompts and EOS stops occur.
BYTE_CFG = ModelConfig(num_layers=4, hidden_dim=16, num_heads=2, ffn_dim=32, max_context=48)


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
    states, _ = model.replay_tokens(ref, RoutePlan.early_exit(CFG.num_layers, exit_layer))
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
                states, _ = model.replay_tokens(ref, plan, np.random.default_rng((seed, s_idx, cost, i)))
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


def _strategies(L):
    return {
        "ee": RoutePlan.early_exit(L, L),
        "uls": RoutePlan.uniform_skip(L, L),
        "rls": RoutePlan.random_skip(L, L, enforce_first=True),
        "rls_no1": RoutePlan.random_skip(L, L, enforce_first=False),
    }


def _every_block_over_every_row(model, tokens, prompt_len, masks):
    """The reference formula of a replay: every block over all rows, the
    prompt included, then gates * out + (1 - gates) * h."""
    L = model.cfg.num_layers
    gates = np.vstack([np.ones((prompt_len, L)), np.asarray(masks, dtype=np.float64).reshape(-1, L)])
    h = model.embed(tokens)
    states = [h]
    for l in range(1, L + 1):
        g = gates[:, l - 1 : l]
        h = g * model._block(l, h) + (1.0 - g) * h
        states.append(h)
    return np.stack(states, axis=1)


def _reference(model, prompt, max_new=7):
    ref = model.generate(list(prompt), max_new=max_new, eos_id=None)
    return ref, list(prompt) + ref.generated_ids[: ref.trace.num_positions - len(prompt)]


@pytest.mark.parametrize("name", ["ee", "uls", "rls", "rls_no1"])
def test_replay_from_the_reference_matches_every_block_over_every_row(model, prompts, name):
    L = CFG.num_layers
    for i, prompt in enumerate(prompts + [prompts[0][:1]]):
        ref, forced = _reference(model, prompt)
        p = len(prompt)
        for cost in range(1, L + 1):
            plan = _strategies(L)[name].with_cost(cost)
            states, masks = model.replay_tokens(ref, plan, np.random.default_rng((i, cost)))
            assert len(states) == len(forced) and len(masks) == len(forced) - p
            assert np.abs(states - _every_block_over_every_row(model, forced, p, masks)).max() <= 1e-12
            assert np.array_equal(states[:p], np.stack(ref.trace.rows[:p]))


def test_replay_runs_the_query_side_only_for_executed_generated_rows(model, prompts, monkeypatch):
    L = CFG.num_layers
    ref, forced = _reference(model, prompts[1])
    p = len(prompts[1])
    query_rows = []
    real = autodiff._attention_weights
    monkeypatch.setattr(autodiff, "_attention_weights", lambda q, k, *rest: query_rows.append(q.shape[0]) or real(q, k, *rest))
    plans = [(RoutePlan.full(L), L)] + [(t.with_cost(c), c) for t in _strategies(L).values() for c in (1, 2, 3)]
    for j, (plan, cost) in enumerate(plans):
        query_rows.clear()
        _, masks = model.replay_tokens(ref, plan, np.random.default_rng(j))
        assert sum(query_rows) == int(np.sum(masks)) == cost * (len(forced) - p)


def test_a_layer_no_generated_row_executes_passes_every_row_through(model, prompts):
    L = CFG.num_layers
    ref, forced = _reference(model, prompts[2])
    p = len(prompts[2])
    states, masks = model.replay_tokens(ref, RoutePlan.early_exit(L, 1))
    assert masks == [(1,) + (0,) * (L - 1)] * (len(forced) - p)
    for l in range(2, L + 1):
        assert np.array_equal(states[p:, l], states[p:, 1])
    assert np.abs(states - _every_block_over_every_row(model, forced, p, masks)).max() <= 1e-12


def test_replay_of_a_reference_without_steps_returns_its_prompt(model, prompts):
    ref, forced = _reference(model, prompts[0], max_new=0)
    assert forced == prompts[0]
    states, masks = model.replay_tokens(ref, RoutePlan.uniform_skip(CFG.num_layers, 2))
    assert masks == []
    assert np.array_equal(states, np.stack(ref.trace.rows))


def test_forward_hidden_rejects_gates_other_than_zero_or_one(model):
    tokens = [1, 2, 3]
    with pytest.raises(ValueError, match="0 or 1"):
        model.forward_hidden(tokens, gate_bits=np.full((3, CFG.num_layers), 0.5))
    with pytest.raises(ValueError, match="shape"):
        model.forward_hidden(tokens, gate_bits=np.ones((2, CFG.num_layers)))


def _eos_first_on(model, prompts, count):
    """A copy of `model` whose EOS bias is raised so that EOS is the first
    token after the `count` prompts with the smallest margin of the best
    other token over EOS, and not after the rest. Returns the copy and, per
    prompt, whether it starts with EOS."""
    margins = []
    for prompt in prompts:
        logits = model.forward_hidden(prompt)[1][-1]
        margins.append(np.delete(logits, tokenizer.EOS).max() - logits[tokenizer.EOS])
    ordered = sorted(margins) + [np.inf]
    threshold = (ordered[count - 1] + min(ordered[count], ordered[count - 1] + 1.0)) / 2
    params = dict(model.params)
    params["head.b"] = params["head.b"].copy()
    params["head.b"][tokenizer.EOS] += threshold
    return DecoderModel(model.cfg, params), [m < threshold for m in margins]


@pytest.fixture(scope="module")
def byte_prompts():
    rng = np.random.default_rng(3)
    return [[tokenizer.BOS] + [int(t) for t in rng.integers(97, 123, size=n)] for n in (2, 3, 4, 5, 6)]


def test_references_that_start_with_eos_are_skipped(byte_prompts):
    base = DecoderModel(BYTE_CFG, init_params(BYTE_CFG, seed=2))
    L = BYTE_CFG.num_layers
    strategies = [RoutePlan.uniform_skip(L, L), RoutePlan.random_skip(L, L)]
    model, eos_first = _eos_first_on(base, byte_prompts, 2)
    assert sum(eos_first) == 2
    for prompt, empty in zip(byte_prompts, eos_first):
        assert (model.generate(prompt, max_new=1).generated_ids == [tokenizer.EOS]) == empty
    report = probe(model, byte_prompts, strategies, [1, 2], seed=3, max_new=6)
    expected = _per_step_probe(model, byte_prompts, strategies, [1, 2], seed=3, max_new=6)
    assert len(report.entries) == len(expected) == 4
    for e, (_key, want) in zip(report.entries, sorted(expected.items())):
        got = (e.final_mean, e.final_half_width, e.layerwise_mean, e.layerwise_half_width, e.n)
        assert np.abs(np.subtract(got[:4], want[:4])).max() <= 1e-15
        assert e.n == want[4] > 0

    all_eos, _ = _eos_first_on(base, byte_prompts, len(byte_prompts))
    with pytest.raises(ValueError, match="every reference generation was empty"):
        probe(all_eos, byte_prompts, strategies, [1], max_new=6)


def test_a_bos_only_prompt_is_probed(byte_prompts):
    model = DecoderModel(BYTE_CFG, init_params(BYTE_CFG, seed=4))
    L = BYTE_CFG.num_layers
    strategies = list(_strategies(L).values())
    prompts = [[tokenizer.BOS]]
    report = probe(model, prompts, strategies, [1, 3], seed=1, max_new=5, stop_at_eos=False)
    expected = _per_step_probe(model, prompts, strategies, [1, 3], seed=1, max_new=5)
    assert [e.n for e in report.entries] == [5] * 8
    for e, (_key, want) in zip(report.entries, sorted(expected.items())):
        got = (e.final_mean, e.final_half_width, e.layerwise_mean, e.layerwise_half_width)
        assert np.abs(np.subtract(got, want[:4])).max() <= 1e-15


def test_duplicate_strategies_share_one_reference_per_prompt(model, prompts, monkeypatch):
    references = []
    real = DecoderModel.generate
    monkeypatch.setattr(DecoderModel, "generate", lambda self, *a, **k: references.append(1) or real(self, *a, **k))
    uls = RoutePlan.uniform_skip(CFG.num_layers, CFG.num_layers)
    report = probe(model, prompts, [uls, uls], [1, 2], max_new=4)
    assert len(references) == len(prompts)
    assert len(report.entries) == 4
    for cost in (1, 2):
        a, b = (e for e in report.entries if e.cost == cost)
        assert (a.final_mean, a.layerwise_mean, a.n) == (b.final_mean, b.layerwise_mean, b.n)
