import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from depthlab import tokenizer
from depthlab.checkpoint import load_checkpoint, save_checkpoint
from depthlab.cli import main
from depthlab.experiment import ExperimentConfig
from depthlab.oracle import chi2_to_json, chi_square_homogeneity, score_matrix_from_prediction_sets, solve_exact

TINY_CONFIG = """\
[model]
num_layers = 4
hidden_dim = 16
num_heads = 2
ffn_dim = 32
max_context = 96

[corpus]
size = 40
max_words = 2

[train]
learning_rate = 2e-3
batch_size = 4
max_epochs = 1
patience = 5
eval_every = 1.0
max_eval_sequences = 4
eval_max_new = 12

[controllers]
alpha_grid = 4
input_modes = hidden
max_epochs = 1
eval_sequences = 4

[routing]
strategies = ee,uls
cost_grid = 2,4

[generate]
cost_fractions = 0.5,1.0
max_new = 12

[probe]
max_new = 6
max_sequences = 4
stop_at_eos = false

[oracle]
budget_grid = 2,3,4
bin_width = 4
num_bins = 4
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    config = root / "tiny.ini"
    config.write_text(TINY_CONFIG)
    out = root / "out"
    for cmd in (
        ["gen-corpus"],
        ["train"],
        ["train-controllers"],
        ["generate"],
        ["probe"],
        ["oracle"],
        ["chi2"],
        ["report"],
    ):
        code = main(cmd + ["--config", str(config), "--out", str(out), "--seed", "0"])
        assert code == 0, cmd
    return root


def test_all_stage_artifacts_exist(run_dir):
    out = run_dir / "out"
    expected = [
        "corpus/corpus.jsonl",
        "corpus/train.jsonl",
        "corpus/val.jsonl",
        "corpus/test.jsonl",
        "checkpoints/backbone/weights.bin",
        "checkpoints/backbone/manifest.json",
        "checkpoints/backbone/config.json",
        "checkpoints/train_log.csv",
        "controllers/hidden_a4/checkpoint/weights.bin",
        "controllers/sweep_summary.csv",
        "controllers/skip_ratios.csv",
        "predictions/uls_c2.jsonl",
        "predictions/uls_c4.jsonl",
        "probe/similarity.csv",
        "probe/ranking.csv",
        "oracle/score_matrix.csv",
        "oracle/sweep.csv",
        "oracle/summary.json",
        "report/fig1a_similarity.csv",
        "report/fig1b_controller_curves.csv",
        "report/fig2_oracle.csv",
        "report/skip_ratios.csv",
        "report/greedy_comparison.csv",
    ]
    for rel in expected:
        assert (out / rel).exists(), rel


def test_every_stage_writes_manifest_with_hashes(run_dir):
    out = run_dir / "out"
    for stage in ("corpus", "checkpoints", "controllers", "predictions", "probe", "oracle", "chi2", "report"):
        manifest = json.loads((out / stage / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert manifest["model_config_hash"]
        assert manifest["outputs"], stage
        for rel in manifest["outputs"]:
            assert not Path(rel).is_absolute()


def test_prediction_sets_cover_test_split(run_dir):
    out = run_dir / "out"
    test_ids = {json.loads(line)["id"] for line in (out / "corpus" / "test.jsonl").read_text().splitlines()}
    for cost in (2, 4):
        lines = (out / "predictions" / f"uls_c{cost}.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert {r["id"] for r in records} == test_ids
        assert all(r["cost"] == cost for r in records)
        assert all(0.0 <= r["rouge_l"] <= 1.0 for r in records)


def test_probe_csv_has_both_strategies(run_dir):
    lines = (run_dir / "out" / "probe" / "similarity.csv").read_text().strip().splitlines()
    strategies = {line.split(",")[0] for line in lines[1:]}
    assert strategies == {"ee_2", "ee_4", "uls_2", "uls_4"}


def test_chi2_artifact_structure(run_dir):
    chi2_files = list((run_dir / "out" / "chi2").glob("chi2_beta*.json"))
    assert len(chi2_files) == 1
    payload = json.loads(chi2_files[0].read_text())
    assert set(payload) >= {"statistic", "dof", "p_value", "table", "model_costs"}


def test_all_empty_controller_sweep_reports_nan_cost(run_dir, tmp_path):
    # A backbone whose head always picks EOS emits nothing: each generation
    # takes no step, so there is no realized cost to average.
    config = run_dir / "tiny.ini"
    out = tmp_path / "mute"
    shutil.copytree(run_dir / "out" / "corpus", out / "corpus")
    backbone = run_dir / "out" / "checkpoints" / "backbone"
    model_cfg, params, extra = load_checkpoint(backbone)
    params["head.b"][tokenizer.EOS] = 1e3
    save_checkpoint(out / "checkpoints" / "backbone", model_cfg, params, extra=extra)
    assert main(["train-controllers", "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
    rows = list(csv.DictReader((out / "controllers" / "sweep_summary.csv").read_text().splitlines()))
    assert [(r["empty"], r["n"], r["mean_cost"]) for r in rows] == [("4", "4", "nan")]
    log = list(csv.DictReader((out / "controllers" / "hidden_a4" / "train_log.csv").read_text().splitlines()))
    assert [r["mean_cost"] for r in log if r["split"] == "val"] == ["nan"] * 3


def test_rerun_of_corpus_and_train_is_byte_identical(run_dir, tmp_path):
    config = run_dir / "tiny.ini"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        for cmd in ("gen-corpus", "train", "train-controllers"):
            assert main([cmd, "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
    runs = sorted(p.name for p in (out_a / "controllers").iterdir() if p.is_dir())
    assert runs == ["hidden_a4"]
    for rel in (
        "corpus/corpus.jsonl",
        "corpus/manifest.json",
        "checkpoints/backbone/weights.bin",
        "checkpoints/train_log.csv",
        "checkpoints/manifest.json",
        *(f"controllers/{run}/{name}" for run in runs for name in ("checkpoint/weights.bin", "train_log.csv")),
        "controllers/sweep_summary.csv",
        "controllers/skip_ratios.csv",
    ):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_different_seed_changes_corpus(run_dir, tmp_path):
    config = run_dir / "tiny.ini"
    out = tmp_path / "seeded"
    assert main(["gen-corpus", "--config", str(config), "--out", str(out), "--seed", "1"]) == 0
    original = (run_dir / "out" / "corpus" / "corpus.jsonl").read_bytes()
    assert (out / "corpus" / "corpus.jsonl").read_bytes() != original


def test_report_refuses_conflicting_model_hashes(run_dir, tmp_path):
    config = run_dir / "tiny.ini"
    out = tmp_path / "conflicted"
    shutil.copytree(run_dir / "out", out)
    manifest_path = out / "probe" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["model_config_hash"] = "deadbeefdeadbeef"
    manifest_path.write_text(json.dumps(manifest))
    assert main(["report", "--config", str(config), "--out", str(out)]) == 1


def test_missing_inputs_give_nonzero_exit(tmp_path):
    assert main(["train", "--out", str(tmp_path / "nothing")]) == 1
    assert main(["report", "--out", str(tmp_path / "nothing")]) == 1


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    for text in ("[model]\nnum_layers = 4\nwings = 2\n", "[generate]\nworkers = 2\n", "[probe]\nworkers = 2\n"):
        bad.write_text(text)
        assert main(["gen-corpus", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config key" in capsys.readouterr().err


def test_fewer_than_two_controller_eval_sequences_rejected(tmp_path, capsys):
    # the controller sweep's confidence interval needs two samples; the
    # config is refused before any stage trains
    bad = tmp_path / "bad.ini"
    for n in (0, 1):
        bad.write_text(f"[controllers]\neval_sequences = {n}\n")
        with pytest.raises(ValueError, match="eval_sequences must be >= 2"):
            ExperimentConfig.load(bad)
        assert main(["train-controllers", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "eval_sequences must be >= 2" in capsys.readouterr().err
    bad.write_text("[controllers]\neval_sequences = 2\n")
    assert ExperimentConfig.load(bad).controller_train_config().max_eval_sequences == 2


def test_config_defaults_and_cost_fractions():
    cfg = ExperimentConfig.load(None)
    assert cfg.model_config().num_layers == 8
    assert cfg.generate_costs() == [1, 3, 4, 8]
    assert cfg.cost_grid() == [2, 3, 4, 6, 8]
    assert [m.value for m in cfg.input_modes()] == ["hidden", "fixed"]
    assert cfg.alpha_grid() == [2.0, 4.0, 6.0, 10.0]


def test_config_hash_stable_and_seed_sensitive():
    a = ExperimentConfig.load(None, seed=0)
    b = ExperimentConfig.load(None, seed=0)
    c = ExperimentConfig.load(None, seed=1)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert a.model_config_hash() == c.model_config_hash()


def _write_prediction_sets(out, rng, n=30, costs=(2, 4, 8)):
    pred = out / "predictions"
    pred.mkdir(parents=True)
    label_len = rng.integers(1, 41, size=n)
    base = rng.integers(0, 5, size=n)
    for j, cost in enumerate(costs):
        with open(pred / f"uls_c{cost}.jsonl", "w") as fh:
            for i in range(n):
                score = min(base[i] + j + int(rng.integers(0, 2)), 8) / 8  # tied quarter-steps
                rec = {"id": f"s{i:03d}", "cost": cost, "text": "", "label_len": int(label_len[i]), "rouge_l": score}
                fh.write(json.dumps(rec) + "\n")
    return {f"s{i:03d}": int(label_len[i]) for i in range(n)}


def test_chi2_tests_the_assignment_the_oracle_wrote(tmp_path, capsys):
    out = tmp_path / "out"
    label_len = _write_prediction_sets(out, np.random.default_rng(0))
    assert main(["chi2", "--out", str(out)]) == 1
    assert "run `oracle` first" in capsys.readouterr().err

    # A grid outside the config's, so a chi2 that re-derived the budget from
    # the config would test another assignment.
    assert main(["oracle", "--out", str(out), "--budget-grid", "5.25,2.75"]) == 0
    summary = json.loads((out / "oracle" / "summary.json").read_text())
    beta = summary["assignment_beta"]
    assert beta == (summary["star_beta"] if summary["star_beta"] is not None else 5.25)
    assert main(["chi2", "--out", str(out)]) == 0
    assert [p.name for p in (out / "chi2").glob("chi2_beta*.json")] == [f"chi2_beta{beta:g}.json"]
    manifest = json.loads((out / "chi2" / "manifest.json").read_text())
    assert "oracle/summary.json" in manifest["inputs"]

    cfg = ExperimentConfig.load(None)
    bin_width, num_bins = cfg.getint("oracle", "bin_width"), cfg.getint("oracle", "num_bins")
    costs = [2, 4, 8]
    table = np.zeros((num_bins, len(costs)), dtype=np.int64)
    with open(out / "oracle" / f"assignment_beta{beta:g}.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            b = min((label_len[row["id"]] - 1) // bin_width, num_bins - 1)
            table[b, costs.index(int(row["chosen_cost"]))] += 1
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    payload = json.loads((out / "chi2" / f"chi2_beta{beta:g}.json").read_text())
    assert np.array_equal(np.asarray(payload["table"]), table)

    # An explicit budget is tested as given.
    assert main(["chi2", "--out", str(out), "--beta", "4"]) == 0
    assert (out / "chi2" / "chi2_beta4.json").exists()


def test_chi2_reads_the_oracle_score_matrix_not_the_prediction_sets(tmp_path):
    out = tmp_path / "out"
    pred = out / "predictions"
    pred.mkdir(parents=True)
    rng = np.random.default_rng(4)
    n, costs = 40, (2, 4, 8)
    label_len = rng.integers(1, 41, size=n)
    # Columns of a row differ by less than 1e-6, so a score matrix written
    # to six decimals would tie them all and move every row to cost 2.
    scores = rng.integers(0, 1000, size=n)[:, None] / 1000 + rng.uniform(0, 1e-7, size=(n, len(costs)))
    for j, cost in enumerate(costs):
        with open(pred / f"uls_c{cost}.jsonl", "w") as fh:
            for i in range(n):
                rec = {"id": f"s{i:03d}", "cost": cost, "text": "", "label_len": int(label_len[i]),
                       "rouge_l": float(scores[i, j])}
                fh.write(json.dumps(rec) + "\n")
    matrix = score_matrix_from_prediction_sets(sorted(pred.glob("uls_c*.jsonl")))

    assert main(["oracle", "--out", str(out), "--budget-grid", "4"]) == 0
    shutil.rmtree(pred)
    assert main(["chi2", "--out", str(out)]) == 0

    cfg = ExperimentConfig.load(None)
    assignment = solve_exact(matrix, 4.0)
    assert len(set(assignment.chosen_costs)) > 1
    expected = chi_square_homogeneity(
        assignment,
        matrix.label_lengths,
        bin_width=cfg.getint("oracle", "bin_width"),
        num_bins=cfg.getint("oracle", "num_bins"),
    )
    chi2_to_json(expected, tmp_path / "expected.json")
    assert (out / "chi2" / "chi2_beta4.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
    manifest = json.loads((out / "chi2" / "manifest.json").read_text())
    assert sorted(manifest["inputs"]) == ["oracle/score_matrix.csv", "oracle/summary.json"]


def test_oracle_flags_a_degenerate_sweep(tmp_path, capsys):
    n, costs = 12, (2, 4, 8)
    out = tmp_path / "flat"
    pred = out / "predictions"
    pred.mkdir(parents=True)
    for cost in costs:
        with open(pred / f"uls_c{cost}.jsonl", "w") as fh:
            for i in range(n):
                rec = {"id": f"s{i:03d}", "cost": cost, "text": "", "label_len": 5, "rouge_l": 0.0}
                fh.write(json.dumps(rec) + "\n")
    assert main(["oracle", "--out", str(out)]) == 0
    summary = json.loads((out / "oracle" / "summary.json").read_text())
    assert summary["columns_kept"] == n
    assert summary["degenerate"] is True
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("warning: oracle: no model scores above the cheapest")

    out = tmp_path / "graded"
    _write_prediction_sets(out, np.random.default_rng(0), n=n, costs=costs)
    assert main(["oracle", "--out", str(out)]) == 0
    summary = json.loads((out / "oracle" / "summary.json").read_text())
    assert n < summary["columns_kept"] <= n * len(costs)
    assert summary["degenerate"] is False
    assert capsys.readouterr().err == ""
