"""The benchmark's own tests: every workload runs at a toy size with its
checks passing, and each check fails on a planted error.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workload
from depthlab import experiment
from depthlab.oracle import ScoreMatrix

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
TOY = dict(train_seqs=2, ctrl_seqs=1, decode_len=28, probe_new=4, prefill_len=16, oracle_n=24)


def toy(name: str) -> workload.Sizes:
    sizes = workload.WORKLOADS[name]
    return replace(sizes, **{k: min(getattr(sizes, k), v) for k, v in TOY.items()})


def run_toy(name, tmp_path, trace=False, seed=3):
    sampler = None if trace else run.SetupSampler(ROOT / "src", name, seed, tmp_path / "setup")
    return workload.run(name, seed, 0.0, trace, tmp_path / "work", sampler, sizes=toy(name), setups=2)


@pytest.fixture
def bench(tmp_path):
    return workload.Bench(toy("train_oracle"), 5, tmp_path / "work")


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_workload_runs_with_checks_passing(name, tmp_path):
    result = run_toy(name, tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(workload.END_TO_END) - 2  # one round of every operation
    assert {m: v["unit"] for m, v in result["metrics"].items()} == dict(workload.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly(tmp_path):
    a = run_toy("decode_routed", tmp_path / "a", trace=True)
    b = run_toy("decode_routed", tmp_path / "b", trace=True)
    assert a["correct"] and b["correct"]
    assert list(a["metrics"]) == [m for m, *_ in workload.PER_LAYER]
    for metric, unit, _, stat in workload.PER_LAYER:
        assert a["metrics"][metric]["unit"] == unit
        if unit in ("count", "cells.computed", "MB.computed"):
            assert a["metrics"][metric]["value"] == b["metrics"][metric]["value"] > 0, metric
        elif stat != "overhead":
            assert a["metrics"][metric]["value"] > 0, metric
    trace = json.loads((tmp_path / "a" / "trace-decode_routed-s3.json").read_text())
    assert trace["traced_rounds"] == 1 and trace["spans_first_traced_round"]


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workload.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, u) for m, u, *_ in workload.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- planted errors ------------------------------------------------------------


def test_perturbed_gradient_fails(bench):
    capture = {}
    bench.train(capture)
    ex = bench.train_examples[0]
    coords = checks.gradient_coordinates(workload.MODEL, ex, np.random.default_rng(0), 3)
    checks.check_gradients(workload.MODEL, capture["params"], ex, capture["grads"], coords)
    name, idx = coords[2]
    grads = {**capture["grads"], name: capture["grads"][name].copy()}
    grads[name][idx] += 1e-3
    with pytest.raises(checks.CheckError, match="finite difference"):
        checks.check_gradients(workload.MODEL, capture["params"], ex, grads, coords)


def test_perturbed_losses_fail(bench):
    capture = {}
    bench.train(capture)
    with pytest.raises(checks.CheckError, match="cross-entropy"):
        checks.check_sequence_loss(workload.MODEL, capture["params"], bench.train_examples[0], capture["losses"][0] + 1e-6)
    capture = {}
    bench.ctrl(capture)
    before, ex, loss, realized = capture["records"][0]
    flipped = realized.copy()
    flipped[-1, bench.controlled[0] - 1] = 1.0 - flipped[-1, bench.controlled[0] - 1]
    args = (workload.MODEL, before, bench.teacher.params, ex, bench.controlled, workload.ALPHA)
    checks.check_controller_loss(*args, realized, loss)
    with pytest.raises(checks.CheckError, match="KL"):
        checks.check_controller_loss(*args, flipped, loss)


def test_flipped_gate_bit_fails(bench):
    capture = {}
    bench.decode_skip(capture)
    result, cost = capture["results"][0]  # uniform skip
    masks = [list(m) for m in result.step_masks]
    masks[1][1] = 1 - masks[1][1]
    result.step_masks = [tuple(m) for m in masks]
    with pytest.raises(checks.CheckError):
        checks.check_generation(bench.decode_model, result, plan_cost=cost)


def test_probe_mismatch_fails(bench):
    capture = {}
    bench.probe(capture)
    args = (bench.decode_model, [bench.probe_prompt], bench.strategies, workload.ROUTE_COST, bench.seed, bench.sizes.probe_new)
    checks.check_probe(*args, capture["report"])
    capture["report"].entries[0].final_mean += 1e-6
    with pytest.raises(checks.CheckError, match="similarity"):
        checks.check_probe(*args, capture["report"])


def test_swapped_oracle_column_fails(bench, monkeypatch):
    parse = experiment.score_matrix_from_prediction_sets

    def swapped(paths):
        m = parse(paths)
        scores = m.scores.copy()
        scores[:, [0, -1]] = scores[:, [-1, 0]]
        return ScoreMatrix(m.ids, m.label_lengths, m.costs, scores, m.texts)

    bench.oracle(None)
    checks.check_sweep(bench.out / "oracle", bench.scores, bench.costs, bench.sufficient, workload.BUDGETS)
    monkeypatch.setattr(experiment, "score_matrix_from_prediction_sets", swapped)
    bench.oracle(None)
    with pytest.raises(checks.CheckError):
        checks.check_sweep(bench.out / "oracle", bench.scores, bench.costs, bench.sufficient, workload.BUDGETS)


def test_wrong_chi2_table_fails(bench, monkeypatch):
    test = experiment.chi_square_homogeneity

    def moved_count(assignment, label_lengths, **kwargs):
        costs = list(assignment.chosen_costs)
        i = next(i for i, c in enumerate(costs) if c != costs[0])
        costs[i] = costs[0]
        return test(replace(assignment, chosen_costs=costs), label_lengths, **kwargs)

    bench.oracle(None)
    star = checks.check_sweep(bench.out / "oracle", bench.scores, bench.costs, bench.sufficient, workload.BUDGETS)
    bench.chi2(None)
    checks.check_chi2(bench.out, star, bench.label_len, workload.BIN_WIDTH, workload.NUM_BINS)
    monkeypatch.setattr(experiment, "chi_square_homogeneity", moved_count)
    bench.chi2(None)
    with pytest.raises(checks.CheckError, match="table"):
        checks.check_chi2(bench.out, star, bench.label_len, workload.BIN_WIDTH, workload.NUM_BINS)


def test_lp_bound_brackets_the_integer_optimum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores = rng.integers(0, 64, size=(5, 4)) / 64.0
        costs = sorted(rng.choice(np.arange(1, 9), size=4, replace=False).tolist())
        beta = float(rng.uniform(costs[0], costs[-1]))
        exact = checks.brute_force_mean(scores, costs, beta)
        bound = checks.mckp_lp_bound(scores, costs, int(np.floor(beta * 5)))
        assert exact <= bound + 1e-12 <= scores.max(axis=1).mean() + 1e-12
