import json
import shutil
from pathlib import Path

import pytest

from depthlab.cli import main
from depthlab.experiment import ExperimentConfig

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


def test_rerun_of_corpus_and_train_is_byte_identical(run_dir, tmp_path):
    config = run_dir / "tiny.ini"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["gen-corpus", "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
        assert main(["train", "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
    for rel in (
        "corpus/corpus.jsonl",
        "corpus/manifest.json",
        "checkpoints/backbone/weights.bin",
        "checkpoints/train_log.csv",
        "checkpoints/manifest.json",
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
