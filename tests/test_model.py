from collections import Counter

import numpy as np
import pytest

from depthlab.autodiff import BLOCK_PARAMS, Graph, backpropagate
from depthlab.corpus import Example
from depthlab import training
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
# Long enough for passes of several attention row blocks.
LONG_CFG = ModelConfig(num_layers=4, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=32, max_context=256)


@pytest.fixture(scope="module")
def model():
    return DecoderModel(CFG, init_params(CFG, seed=0))


@pytest.fixture(scope="module")
def long_model():
    # Query and key weights scaled up so that attention is far from uniform.
    params = init_params(LONG_CFG, seed=3)
    for name in params:
        if name.endswith(("wq", "wk")):
            params[name] = params[name] * 25.0
    return DecoderModel(LONG_CFG, params)


def rand_tokens(rng, length, vocab=CFG.vocab_size):
    return [int(t) for t in rng.integers(0, vocab, size=length)]


def step_through(model, tokens, masks, cache=None, trace=None):
    """Drive `step` one position at a time, position t under masks[t];
    continues an existing cache and trace when given."""
    if cache is None:
        cache, trace = model.new_state()
    start = cache.num_positions
    results = [
        model.step(tokens[pos], pos, lambda l, _h, bits=bits: bits[l - 1], cache, trace)
        for pos, bits in zip(range(start, len(tokens)), masks)
    ]
    return cache, trace, results


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
    ee = RoutePlan.early_exit(CFG.num_layers, CFG.num_layers).realize().bits
    full = full_mask(CFG.num_layers).bits
    for _ in range(10):
        tokens = rand_tokens(rng, 6)
        _, _, res_a = step_through(model, tokens, [ee] * len(tokens))
        _, _, res_b = step_through(model, tokens, [full] * len(tokens))
        for a, b in zip(res_a, res_b):
            assert np.array_equal(a.logits, b.logits)


def test_only_first_layer_executes_gives_layer1_output(model):
    tokens = [1, 2, 3]
    mask = RouteMask((1, 0, 0, 0))
    cache, trace = model.new_state()
    model.routed_forward(tokens, mask, cache, trace)
    for t in range(3):
        np.testing.assert_array_equal(trace.rows[t, CFG.num_layers], trace.rows[t, 1])


def test_trace_rows_are_one_array_that_later_steps_leave_unchanged(model):
    # After the prompt pass and after each step, `rows` is a (positions, L+1, d)
    # array; a pass writes only positions after the ones a view already shows.
    cache, trace = model.new_state()
    model.routed_forward([1, 2, 3], full_mask(CFG.num_layers), cache, trace)
    views = [(trace.rows, trace.rows.copy())]
    for pos, bits in enumerate([(1, 0, 1, 0), (0, 0, 0, 0), (0, 1, 1, 1)], start=3):
        model.step(5, pos, lambda l, _h, bits=bits: bits[l - 1], cache, trace)
        views.append((trace.rows, trace.rows.copy()))
    for n, (view, before) in enumerate(views, start=3):
        assert isinstance(view, np.ndarray) and view.shape == (n, CFG.num_layers + 1, CFG.hidden_dim)
        np.testing.assert_array_equal(view, before)


def test_executed_count_equals_mask_cost(model):
    rng = np.random.default_rng(3)
    for _ in range(20):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=CFG.num_layers))
        if sum(bits) == 0:
            bits = (1,) + bits[1:]
        mask = RouteMask(bits)
        cache, trace = model.new_state()
        res = model.routed_forward([1, 2], mask, cache, trace)
        assert sum(res.bits) == sum(mask.bits)


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
    for layer in (2, 4):
        k, v = model._kv_for_state(layer, np.stack([trace.rows[pos, layer - 1] for pos in range(3)]))
        np.testing.assert_array_equal(cache.keys[layer - 1, :3], k)
        np.testing.assert_array_equal(cache.values[layer - 1, :3], v)


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
        k, _ = model._kv_for_state(l, np.stack([trace.rows[pos, 1] for pos in range(2)]))
        np.testing.assert_array_equal(cache.keys[l - 1, :2], k)


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


def test_incremental_matches_parallel_forward(model):
    rng = np.random.default_rng(10)
    tokens = rand_tokens(rng, 9)
    _, trace, results = step_through(model, tokens, [full_mask(CFG.num_layers).bits] * len(tokens))
    states, logits = model.forward_hidden(tokens)
    for t in range(len(tokens)):
        np.testing.assert_allclose(trace.rows[t], states[t], atol=1e-9)
        np.testing.assert_allclose(results[t].logits, logits[t], atol=1e-9)


def test_one_pass_routed_forward_matches_step_loop(model):
    # Three one-pass calls (full prefix, then (1,0,1,0), then (1,1,1,0),
    # whose layer 2 fills the middle segment's absent slots before it
    # attends) against `step` driven position by position under the same gates.
    rng = np.random.default_rng(17)
    tokens = rand_tokens(rng, 12)
    segments = [(5, (1, 1, 1, 1)), (9, (1, 0, 1, 0)), (12, (1, 1, 1, 0))]
    cache_a, trace_a = model.new_state()
    cache_b, trace_b = model.new_state()
    for end, bits in segments:
        res_a = model.routed_forward(tokens[:end], RouteMask(bits), cache_a, trace_a)
        _, _, res_b = step_through(model, tokens[:end], [bits] * end, cache_b, trace_b)
        assert res_a.bits == res_b[-1].bits == bits
        np.testing.assert_allclose(res_a.logits, res_b[-1].logits, atol=1e-9)
        np.testing.assert_allclose(np.stack(trace_a.rows), np.stack(trace_b.rows), atol=1e-9)
        np.testing.assert_array_equal(cache_a.provenance(), cache_b.provenance())
        assert cache_a.ready == cache_b.ready
    assert cache_a.ready == [12, 12, 12, 5]
    assert np.all(cache_a.provenance()[1, 5:9] == PROV_FILLED)
    for cache, trace in ((cache_a, trace_a), (cache_b, trace_b)):
        fill_missing_kv(model, cache, trace)
    np.testing.assert_array_equal(cache_a.provenance(), cache_b.provenance())
    assert cache_a.ready == cache_b.ready == [12] * 4
    n = len(tokens)
    np.testing.assert_allclose(cache_a.keys[:, :n], cache_b.keys[:, :n], atol=1e-9)
    np.testing.assert_allclose(cache_a.values[:, :n], cache_b.values[:, :n], atol=1e-9)


def test_kv_read_over_a_pending_slot_raises(model):
    cache, trace = model.new_state()
    model.routed_forward([1, 2, 3], RouteMask((1, 0, 1, 0)), cache, trace)
    k, v = cache.kv_matrices(1, 2)
    assert k.shape == v.shape == (3, CFG.hidden_dim)
    with pytest.raises(ValueError, match="layer 2 holds K/V for 0 positions, read up to 0"):
        cache.kv_matrices(2, 0)
    with pytest.raises(ValueError, match="layer 1 holds K/V for 3 positions, read up to 3"):
        cache.kv_matrices(1, 3)


def test_fill_rejects_a_written_slot(model):
    cache, trace = model.new_state()
    model.routed_forward([1, 2, 3], RouteMask((1, 0, 1, 0)), cache, trace)
    row = np.zeros((1, CFG.hidden_dim))
    with pytest.raises(ValueError, match="layer 1 has 0 absent slots, filling 1"):
        cache.fill(1, row, row)
    cache.fill(2, row, row)
    with pytest.raises(ValueError, match="layer 2 has 2 absent slots, filling 3"):
        cache.fill(2, *[np.zeros((3, CFG.hidden_dim))] * 2)
    assert cache.ready[1] == 1
    assert cache.provenance()[1].tolist() == [PROV_FILLED, PROV_ABSENT, PROV_ABSENT]


def test_provenance_is_a_copy(model):
    cache, trace = model.new_state()
    model.routed_forward([1, 2, 3], RouteMask((1, 0, 1, 0)), cache, trace)
    prov = cache.provenance()
    assert prov.dtype == np.int64 and prov.shape == (CFG.num_layers, 3)
    before = prov.copy()
    prov[:] = PROV_FILLED
    np.testing.assert_array_equal(cache.provenance(), before)
    assert cache.ready[1] == 0


def test_absent_slots_are_the_positions_since_a_layer_last_executed(model):
    # Random per-step masks, some skipping layer 1 and some skipping every
    # layer: after each step a layer's absent slots are exactly the positions
    # from its ready count on, and a read stops exactly at that count.
    rng = np.random.default_rng(20)
    cache, trace = model.new_state()
    executed = np.zeros(CFG.num_layers, dtype=np.int64)
    for pos, token in enumerate(rand_tokens(rng, CFG.max_context)):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=CFG.num_layers))
        model.step(token, pos, lambda l, _h: bits[l - 1], cache, trace)
        executed += bits
        prov = cache.provenance()
        assert cache.num_positions == pos + 1
        for l in range(1, CFG.num_layers + 1):
            ready = cache.ready[l - 1]
            assert np.flatnonzero(prov[l - 1] == PROV_ABSENT).tolist() == list(range(ready, pos + 1))
            assert (prov[l - 1] == PROV_COMPUTED).sum() == executed[l - 1]
            if ready:
                assert cache.kv_matrices(l, ready - 1)[0].shape == (ready, CFG.hidden_dim)
            with pytest.raises(ValueError, match="holds K/V"):
                cache.kv_matrices(l, ready)
    fill_missing_kv(model, cache, trace)
    assert not (cache.provenance() == PROV_ABSENT).any()
    assert cache.ready == [CFG.max_context] * CFG.num_layers


def test_step_past_max_context_raises(model):
    rng = np.random.default_rng(18)
    cache, trace = model.new_state()
    model.routed_forward(rand_tokens(rng, CFG.max_context), full_mask(CFG.num_layers), cache, trace)
    with pytest.raises(ValueError, match="context overflow"):
        model.step(1, CFG.max_context, lambda l, h: 1, cache, trace)
    assert cache.num_positions == trace.num_positions == CFG.max_context
    fresh, _ = model.new_state()
    rows = np.zeros((CFG.max_context + 1, CFG.hidden_dim))
    with pytest.raises(ValueError, match="context overflow"):
        fresh.append_computed(1, rows, rows)


def test_step_computes_two_layer_norms_per_executed_layer(model, monkeypatch):
    # LN1 (shared by q, k and v) and LN2 per executed layer, plus the final LN.
    import depthlab.autodiff as autodiff_mod

    calls = []
    real = autodiff_mod._layer_norm_stats
    monkeypatch.setattr(autodiff_mod, "_layer_norm_stats", lambda *a: calls.append(1) or real(*a))
    for bits in ((1, 1, 1, 1), (1, 0, 1, 1), (0, 0, 1, 0)):
        cache, trace = model.new_state()
        model.routed_forward([1, 2, 3], full_mask(CFG.num_layers), cache, trace)
        calls.clear()
        model.step(4, 3, lambda l, _h: bits[l - 1], cache, trace)
        assert len(calls) == 2 * sum(bits) + 1


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


def test_tape_forward_layerdrop_leaves_dropped_params_off_graph(model, monkeypatch):
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

    # The fine-tune tape of a default-config model with two layers dropped:
    # one `block` node per executed layer, fed the layer's parameter leaves,
    # and no per-op chain inside a block. Besides the parameter leaves the
    # tape holds the two embeddings, the final layer norm, the head and the loss.
    tapes = []
    monkeypatch.setattr(training, "backpropagate", lambda g, loss: tapes.append(g) or backpropagate(g, loss))
    default = DecoderModel(ModelConfig(), init_params(ModelConfig(), 0))
    training.sequence_loss_and_grads(default, Example("x", "copy: ab", "ab"), skip_layers={2, 5})
    (g,) = tapes
    ops = Counter(node.op for node in g.nodes)
    assert ops.pop("leaf") == len(default.params) + 1
    assert ops == {
        "embedding": 2, "add": 1, "block": default.cfg.num_layers - 2, "layer_norm": 1,
        "matmul": 1, "add_bias": 1, "log_softmax": 1, "take_per_row": 1, "multiply": 1, "reduce_sum": 1, "scale": 1,
    }
    fed = [[g.nodes[i].tensor.data for i in node.input_ids[1:]] for node in g.nodes if node.op == "block"]
    executed = [l for l in range(1, default.cfg.num_layers + 1) if l not in (2, 5)]
    for layer, params in zip(executed, fed, strict=True):
        for name, array in zip(BLOCK_PARAMS, params, strict=True):
            assert array is default.params[f"layer{layer}.{name}"]


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


def naive_attention(q, keys, values, num_heads):
    """Per head and per query row: softmax of the scaled scores over the keys
    up to the row's position, then the weighted sum of those values."""
    tq, tk = q.shape[0], keys.shape[0]
    dh = q.shape[1] // num_heads
    out = np.zeros_like(q)
    for h in range(num_heads):
        cols = slice(h * dh, (h + 1) * dh)
        for i in range(tq):
            seen = tk - tq + i + 1
            scores = keys[:seen, cols] @ q[i, cols] / np.sqrt(dh)
            e = np.exp(scores - scores.max())
            out[i, cols] = (e / e.sum()) @ values[:seen, cols]
    return out


@pytest.mark.parametrize("tq,tk", [(1, 1), (1, 240), (25, 25), (64, 64), (65, 65), (97, 97), (200, 200), (40, 130)])
def test_block_matches_naive_attention(long_model, tq, tk):
    # `_block` on tq new rows after tk - tq cached positions (no cache when
    # tq == tk) against the block rebuilt around a naive attention loop.
    m, layer = long_model, 2
    rng = np.random.default_rng(tq * 1000 + tk)
    cache = None
    keys = values = np.zeros((0, LONG_CFG.hidden_dim))
    if tk > tq:
        cache, trace = m.new_state()
        m.routed_forward(rand_tokens(rng, tk - tq), full_mask(LONG_CFG.num_layers), cache, trace)
        keys, values = cache.kv_matrices(layer, tk - tq - 1)
        keys, values = keys.copy(), values.copy()
    h = rng.normal(size=(tq, LONG_CFG.hidden_dim))
    p, prm = f"layer{layer}.", m.params

    def ln(x, name):
        z = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + LONG_CFG.layer_norm_eps)
        return z * prm[name + ".gain"] + prm[name + ".bias"]

    x = ln(h, p + "ln1")
    q = x @ prm[p + "wq"] + prm[p + "bq"]
    keys = np.vstack([keys, x @ prm[p + "wk"] + prm[p + "bk"]])
    values = np.vstack([values, x @ prm[p + "wv"] + prm[p + "bv"]])
    attn = naive_attention(q, keys, values, LONG_CFG.num_heads)
    mid = h + attn @ prm[p + "wo"] + prm[p + "bo"]
    u = ln(mid, p + "ln2") @ prm[p + "w1"] + prm[p + "b1"]
    mlp = u / (1.0 + np.exp(-1.702 * u)) @ prm[p + "w2"] + prm[p + "b2"]
    kv = None if cache is None else lambda k, v: cache.kv_matrices(layer, cache.append_computed(layer, k, v))
    np.testing.assert_allclose(m._block(layer, h, kv), mid + mlp, rtol=0, atol=1e-12)


def test_one_pass_over_several_row_blocks_matches_step_loop_and_forward_hidden(long_model, monkeypatch):
    # A cached prefix, then a 100-row pass under (1,0,1,0) and a 70-row pass
    # under (1,1,1,0), whose layer 2 fills the 100 absent slots before it
    # attends: both one-pass calls cross row-block boundaries.
    import depthlab.autodiff as autodiff_mod

    m = long_model
    rng = np.random.default_rng(19)
    tokens = rand_tokens(rng, 200)
    segments = [(30, (1, 1, 1, 1)), (130, (1, 0, 1, 0)), (200, (1, 1, 1, 0))]
    block_rows = []
    real = autodiff_mod._attention_weights
    monkeypatch.setattr(autodiff_mod, "_attention_weights", lambda q, k, *rest: block_rows.append(q.shape[0]) or real(q, k, *rest))
    cache_a, trace_a = m.new_state()
    for end, bits in segments:
        res_a = m.routed_forward(tokens[:end], RouteMask(bits), cache_a, trace_a)
    assert max(block_rows) == autodiff_mod._ROW_BLOCK < 70
    monkeypatch.undo()

    cache_b, trace_b = m.new_state()
    gate_bits = np.ones((len(tokens), LONG_CFG.num_layers))
    start = 0
    for end, bits in segments:
        _, _, res_b = step_through(m, tokens[:end], [bits] * (end - start), cache_b, trace_b)
        gate_bits[start:end] = bits
        start = end
    states, logits = m.forward_hidden(tokens, gate_bits=gate_bits)
    np.testing.assert_allclose(res_a.logits, res_b[-1].logits, atol=1e-9)
    np.testing.assert_allclose(res_a.logits, logits[-1], atol=1e-9)
    np.testing.assert_allclose(np.stack(trace_a.rows), np.stack(trace_b.rows), atol=1e-9)
    np.testing.assert_allclose(np.stack(trace_a.rows), states, atol=1e-9)
    np.testing.assert_array_equal(cache_a.provenance(), cache_b.provenance())
    assert cache_a.ready == cache_b.ready == [200, 200, 200, 30]
    n = len(tokens)
    np.testing.assert_allclose(cache_a.keys[:, :n], cache_b.keys[:, :n], atol=1e-9)
    np.testing.assert_allclose(cache_a.values[:, :n], cache_b.values[:, :n], atol=1e-9)
