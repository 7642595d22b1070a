import numpy as np
import pytest

from depthlab.autodiff import Graph, backpropagate
from depthlab.model import (
    PROV_ABSENT,
    PROV_COMPUTED,
    PROV_FILLED,
    DecoderModel,
    ModelConfig,
    build_graph_forward,
    fill_missing_kv,
    graph_leaves,
    init_params,
)
from depthlab.routing import RouteMask, RoutePlan, full_mask
from depthlab import tokenizer

CFG = ModelConfig(num_layers=4, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=32, max_context=32)


@pytest.fixture(scope="module")
def model():
    return DecoderModel(CFG, init_params(CFG, seed=0))


def rand_tokens(rng, length, vocab=CFG.vocab_size):
    return [int(t) for t in rng.integers(0, vocab, size=length)]


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_layers=2, hidden_dim=10, num_heads=3, ffn_dim=8, vocab_size=8, max_context=8)
    with pytest.raises(ValueError):
        ModelConfig(max_context=1)


def test_embed_deterministic(model):
    a = model.embed([3, 5], start_pos=0)
    b = model.embed([3, 5], start_pos=0)
    np.testing.assert_array_equal(a, b)


def test_embed_position_term_differs(model):
    two = model.embed([7, 7], start_pos=0)
    assert not np.array_equal(two[0], two[1])


def test_embed_zero_token_table_leaves_positional_term():
    params = init_params(CFG, seed=0)
    params["tok_emb"] = np.zeros_like(params["tok_emb"])
    m = DecoderModel(CFG, params)
    out = m.embed([1, 2], start_pos=3)
    np.testing.assert_array_equal(out, m.params["pos_emb"][3:5])


def test_embed_context_overflow(model):
    with pytest.raises(ValueError, match="max_context"):
        model.embed(list(range(8)), start_pos=CFG.max_context - 4)


def test_early_exit_at_last_layer_equals_full(model):
    rng = np.random.default_rng(1)
    for _ in range(10):
        tokens = rand_tokens(rng, 6)
        cache_a, trace_a = model.new_state()
        plan_mask = RoutePlan.early_exit(CFG.num_layers, CFG.num_layers).realize()
        res_a = model.routed_forward(tokens, plan_mask, cache_a, trace_a)
        cache_b, trace_b = model.new_state()
        res_b = model.routed_forward(tokens, full_mask(CFG.num_layers), cache_b, trace_b)
        assert np.array_equal(res_a.probs, res_b.probs)


def test_only_first_layer_executes_gives_layer1_output(model):
    tokens = [1, 2, 3]
    mask = RouteMask((1, 0, 0, 0))
    cache, trace = model.new_state()
    model.routed_forward(tokens, mask, cache, trace)
    for t in range(3):
        np.testing.assert_array_equal(trace.h(t, CFG.num_layers), trace.h(t, 1))


def test_step_probs_sum_to_one(model):
    rng = np.random.default_rng(2)
    tokens = rand_tokens(rng, 8)
    cache, trace = model.new_state()
    res = model.routed_forward(tokens, RouteMask((1, 0, 1, 0)), cache, trace)
    assert res.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.probs >= 0)


def test_executed_count_equals_mask_cost(model):
    rng = np.random.default_rng(3)
    for _ in range(20):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=CFG.num_layers))
        if sum(bits) == 0:
            bits = (1,) + bits[1:]
        mask = RouteMask(bits)
        cache, trace = model.new_state()
        res = model.routed_forward([1, 2], mask, cache, trace)
        assert sum(res.bits) == mask.cost


def test_cache_position_consistency_error(model):
    cache, trace = model.new_state()
    model.routed_forward([1, 2], full_mask(CFG.num_layers), cache, trace)
    with pytest.raises(ValueError, match="cache/position inconsistency"):
        model.step(3, 5, lambda l, h: 1, cache, trace)


def test_kv_provenance_full_mask_all_computed(model):
    cache, trace = model.new_state()
    model.routed_forward([1, 2, 3], full_mask(CFG.num_layers), cache, trace)
    prov = cache.provenance()
    assert np.all(prov == PROV_COMPUTED)


def test_kv_fill_uses_nearest_executed_state(model):
    # Layers {1, 3} executed of 4: layer-2 fill projects h^1, layer-4 fill
    # projects h^3, each through its own projection path.
    tokens = [4, 5, 6]
    mask = RouteMask((1, 0, 1, 0))
    cache, trace = model.new_state()
    model.routed_forward(tokens, mask, cache, trace)
    fill_missing_kv(model, cache, trace)
    prov = cache.provenance()
    assert np.all(prov[0] == PROV_COMPUTED)
    assert np.all(prov[1] == PROV_FILLED)
    assert np.all(prov[2] == PROV_COMPUTED)
    assert np.all(prov[3] == PROV_FILLED)
    for pos in range(3):
        k2, v2 = model._kv_for_state(2, trace.h(pos, 1))
        np.testing.assert_array_equal(cache.keys[1][pos], k2)
        np.testing.assert_array_equal(cache.values[1][pos], v2)
        k4, v4 = model._kv_for_state(4, trace.h(pos, 3))
        np.testing.assert_array_equal(cache.keys[3][pos], k4)
        np.testing.assert_array_equal(cache.values[3][pos], v4)


def test_kv_fill_noop_when_all_executed(model):
    cache, trace = model.new_state()
    model.routed_forward([1, 2], full_mask(CFG.num_layers), cache, trace)
    before = cache.provenance().copy()
    fill_missing_kv(model, cache, trace)
    np.testing.assert_array_equal(cache.provenance(), before)


def test_kv_fill_degenerate_only_layer1(model):
    cache, trace = model.new_state()
    model.routed_forward([1, 2], RouteMask((1, 0, 0, 0)), cache, trace)
    fill_missing_kv(model, cache, trace)
    prov = cache.provenance()
    assert np.all(prov[0] == PROV_COMPUTED)
    assert np.all(prov[1:] == PROV_FILLED)
    # All fills derive from h^1 == h^2 == h^3 (pass-through).
    for l in (2, 3, 4):
        k, _ = model._kv_for_state(l, trace.h(0, 1))
        np.testing.assert_array_equal(cache.keys[l - 1][0], k)


def test_no_absent_entries_at_attended_positions_during_generation(model):
    rng = np.random.default_rng(4)
    prompt = rand_tokens(rng, 4)
    plan = RoutePlan.random_skip(CFG.num_layers, 2, enforce_first=True)
    res = model.generate(prompt, plan=plan, max_new=8, rng_seed=5, eos_id=None)
    prov = res.cache.provenance()
    for l in range(CFG.num_layers):
        executed_at = [t for t in range(prov.shape[1]) if prov[l, t] == PROV_COMPUTED]
        if executed_at:
            attended_upto = max(executed_at)
            assert np.all(prov[l, : attended_upto + 1] != PROV_ABSENT)
    fill_missing_kv(model, res.cache, res.trace)
    assert np.all(res.cache.provenance() != PROV_ABSENT)


def test_prompt_positions_always_computed(model):
    rng = np.random.default_rng(5)
    prompt = rand_tokens(rng, 5)
    plan = RoutePlan.uniform_skip(CFG.num_layers, 2)
    res = model.generate(prompt, plan=plan, max_new=4, rng_seed=0, eos_id=None)
    prov = res.cache.provenance()
    assert np.all(prov[:, : len(prompt)] == PROV_COMPUTED)


def test_generation_rerun_bit_identical(model):
    rng = np.random.default_rng(6)
    prompt = rand_tokens(rng, 4)
    a = model.generate(prompt, plan=RoutePlan.full(CFG.num_layers), max_new=6, rng_seed=3, eos_id=None)
    b = model.generate(prompt, plan=RoutePlan.full(CFG.num_layers), max_new=6, rng_seed=3, eos_id=None)
    assert a.generated_ids == b.generated_ids
    for ra, rb in zip(a.trace.rows, b.trace.rows):
        assert np.array_equal(ra, rb)


def test_generation_ee_last_layer_equals_full(model):
    rng = np.random.default_rng(7)
    prompt = rand_tokens(rng, 4)
    full = model.generate(prompt, plan=RoutePlan.full(CFG.num_layers), max_new=6, rng_seed=0, eos_id=None)
    ee = model.generate(
        prompt, plan=RoutePlan.early_exit(CFG.num_layers, CFG.num_layers), max_new=6, rng_seed=0, eos_id=None
    )
    assert full.generated_ids == ee.generated_ids


def test_random_skip_masks_have_exact_cost_per_step(model):
    rng = np.random.default_rng(8)
    prompt = rand_tokens(rng, 3)
    plan = RoutePlan.random_skip(CFG.num_layers, 2, enforce_first=True)
    res = model.generate(prompt, plan=plan, max_new=10, rng_seed=11, eos_id=None)
    assert len(res.step_masks) > 0
    for bits in res.step_masks:
        assert sum(bits) == 2
        assert bits[0] == 1


def test_empty_prompt_rejected(model):
    with pytest.raises(ValueError, match="empty prompt"):
        model.generate([], plan=RoutePlan.full(CFG.num_layers))


def test_sampled_generation_deterministic_under_seed(model):
    rng = np.random.default_rng(9)
    prompt = rand_tokens(rng, 4)
    a = model.generate(prompt, max_new=8, rng_seed=13, sample=True, temperature=0.9, eos_id=None)
    b = model.generate(prompt, max_new=8, rng_seed=13, sample=True, temperature=0.9, eos_id=None)
    assert a.generated_ids == b.generated_ids


def test_incremental_matches_parallel_forward(model):
    rng = np.random.default_rng(10)
    tokens = rand_tokens(rng, 9)
    cache, trace = model.new_state()
    model.routed_forward(tokens, full_mask(CFG.num_layers), cache, trace)
    states, logits = model.forward_hidden(tokens)
    for t in range(len(tokens)):
        np.testing.assert_allclose(trace.rows[t], states[t], atol=1e-9)


def test_incremental_routed_matches_parallel_gated_forward(model):
    # Per-position masks through the cache path must agree with the
    # whole-sequence gated forward (whose K/V-from-incoming-state convention
    # implements the fill rule).
    rng = np.random.default_rng(11)
    prompt = rand_tokens(rng, 4)
    plan = RoutePlan.random_skip(CFG.num_layers, 2, enforce_first=True)
    res = model.generate(prompt, plan=plan, max_new=6, rng_seed=12, eos_id=None)
    tokens = (prompt + res.generated_ids)[: res.trace.num_positions]
    assert len(res.step_masks) == len(tokens) - len(prompt) > 0

    gate_bits = np.ones((len(tokens), CFG.num_layers))
    gate_bits[len(prompt) :] = res.step_masks
    states, _ = model.forward_hidden(tokens, gate_bits=gate_bits)
    for t in range(len(tokens)):
        np.testing.assert_allclose(res.trace.rows[t], states[t], atol=1e-9)


def test_tape_forward_matches_plain_forward(model):
    rng = np.random.default_rng(13)
    tokens = rand_tokens(rng, 7)
    g = Graph()
    leaves = graph_leaves(g, model.params, trainable=False)
    logits_node = build_graph_forward(g, leaves, CFG, tokens)
    _, logits = model.forward_hidden(tokens)
    np.testing.assert_allclose(logits_node.data, logits, atol=1e-9)


def test_tape_forward_layerdrop_leaves_dropped_params_off_graph(model):
    rng = np.random.default_rng(14)
    tokens = rand_tokens(rng, 5)
    g = Graph()
    leaves = graph_leaves(g, model.params, trainable=True)
    logits = build_graph_forward(g, leaves, CFG, tokens, skip_layers={2, 3})
    loss = g.reduce_sum(g.multiply(logits, logits))
    backpropagate(g, loss)
    assert np.all(leaves["layer2.wq"].grad == 0.0)
    assert np.all(leaves["layer3.w1"].grad == 0.0)
    assert np.any(leaves["layer1.wq"].grad != 0.0)
    assert np.any(leaves["layer4.wq"].grad != 0.0)


def test_tape_forward_with_constant_gates_matches_parallel(model):
    rng = np.random.default_rng(15)
    tokens = rand_tokens(rng, 6)
    bits = (rng.random((6, CFG.num_layers)) < 0.6).astype(np.float64)
    bits[:, 0] = 1.0
    g = Graph()
    leaves = graph_leaves(g, model.params, trainable=False)
    gate_leaves = {l: g.leaf(bits[:, l - 1]) for l in range(1, CFG.num_layers + 1)}
    logits_node = build_graph_forward(
        g, leaves, CFG, tokens, layer_gates=lambda l, h: gate_leaves[l]
    )
    _, logits = model.forward_hidden(tokens, gate_bits=bits)
    np.testing.assert_allclose(logits_node.data, logits, atol=1e-9)


def test_generate_stops_at_eos(model):
    # Bias the head so some token dominates; force it to be EOS-like by
    # passing that token id as eos_id.
    rng = np.random.default_rng(16)
    prompt = rand_tokens(rng, 3)
    res = model.generate(prompt, plan=RoutePlan.full(CFG.num_layers), max_new=20, rng_seed=0, eos_id=None)
    dominant = res.generated_ids[-1]
    res2 = model.generate(prompt, plan=RoutePlan.full(CFG.num_layers), max_new=20, rng_seed=0, eos_id=dominant)
    assert res2.generated_ids[-1] == dominant
    assert len(res2.generated_ids) <= len(res.generated_ids)
