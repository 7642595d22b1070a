import argparse
import csv
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from depthlab import tokenizer
from depthlab.checkpoint import load_checkpoint, save_checkpoint, split_controller_params
from depthlab.cli import _parser, main
from depthlab.controller import ControllerBank, InputMode
from depthlab.corpus import read_jsonl
from depthlab.experiment import CONFIG_KEYS, STAGES, ExperimentConfig
from depthlab.model import DecoderModel
from depthlab.oracle import chi2_to_json, chi_square_homogeneity, score_matrix_from_prediction_sets, solve_exact
from depthlab.training import mean_cost, rouge_eval

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


@pytest.fixture
def mute_out(run_dir, tmp_path):
    """A run root holding the TINY corpus and a backbone whose head always
    picks EOS."""
    out = tmp_path / "mute"
    shutil.copytree(run_dir / "out" / "corpus", out / "corpus")
    model_cfg, params, extra = load_checkpoint(run_dir / "out" / "checkpoints" / "backbone")
    params["head.b"][tokenizer.EOS] = 1e3
    save_checkpoint(out / "checkpoints" / "backbone", model_cfg, params, extra=extra)
    return out


def test_train_logs_leave_unmeasured_values_empty(run_dir):
    # train rows measure no ROUGE-L and val rows no loss; those cells are empty
    out = run_dir / "out"
    for path in (out / "checkpoints" / "train_log.csv", out / "controllers" / "hidden_a4" / "train_log.csv"):
        log = list(csv.DictReader(path.read_text().splitlines()))
        assert {r["split"] for r in log} == {"train", "val"}
        for r in log:
            empty, measured = ("rouge_l", "loss") if r["split"] == "train" else ("loss", "rouge_l")
            assert r[empty] == "" and float(r[measured]) >= 0.0, (path, r)


def test_all_empty_controller_sweep_reports_nan_cost(run_dir, mute_out):
    # A backbone that emits nothing: each generation takes no step, so there
    # is no realized cost to average.
    config, out = run_dir / "tiny.ini", mute_out
    assert main(["train-controllers", "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
    rows = list(csv.DictReader((out / "controllers" / "sweep_summary.csv").read_text().splitlines()))
    assert [(r["empty"], r["n"], r["mean_cost"]) for r in rows] == [("4", "4", "nan")]
    log = list(csv.DictReader((out / "controllers" / "hidden_a4" / "train_log.csv").read_text().splitlines()))
    assert [r["mean_cost"] for r in log if r["split"] == "val"] == ["nan"] * 3
    ratios = list(csv.DictReader((out / "controllers" / "skip_ratios.csv").read_text().splitlines()))
    assert [(r["layer"], r["skip_fraction"]) for r in ratios] == [("2", "nan"), ("3", "nan")]


def test_a_stage_whose_body_fails_writes_no_records(run_dir, mute_out, tmp_path, capsys):
    # probe stops each reference generation at EOS here, so every one is empty
    config = tmp_path / "eos.ini"
    config.write_text((run_dir / "tiny.ini").read_text().replace("stop_at_eos = false", "stop_at_eos = true"))
    assert main(["probe", "--config", str(config), "--out", str(mute_out)]) == 1
    assert "every reference generation was empty" in capsys.readouterr().err
    assert list((mute_out / "probe").iterdir()) == []


def test_train_refuses_a_sequence_longer_than_max_context_before_the_first_step(run_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out" / "corpus", out / "corpus")
    config = tmp_path / "short.ini"
    config.write_text((run_dir / "tiny.ini").read_text().replace("max_context = 96", "max_context = 20"))
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    match = re.fullmatch(r"error: training example \S+ is (\d+) tokens, more than max_context 20", line)
    assert match and int(match[1]) > 20
    assert list((out / "checkpoints").iterdir()) == []


@pytest.mark.parametrize("stage", ["train-controllers", "generate", "probe"])
def test_a_backbone_of_another_model_config_is_refused(run_dir, tmp_path, capsys, stage):
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out", out)
    config = tmp_path / "wider.ini"
    config.write_text((run_dir / "tiny.ini").read_text().replace("ffn_dim = 32", "ffn_dim = 48"))
    stage_dir = out / STAGES[stage].dir
    before = {p: p.read_bytes() for p in stage_dir.rglob("*") if p.is_file()}
    assert main([stage, "--config", str(config), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        "error: [model] has ffn_dim = 48, the backbone `train` wrote has ffn_dim = 32 — rerun `train`"
    )
    assert {p: p.read_bytes() for p in stage_dir.rglob("*") if p.is_file()} == before


def test_skip_ratios_come_from_the_scored_test_generations(run_dir):
    # Rebuild the run's checkpoint and redo the stage's one test-split
    # evaluation: its realized bits, pooled over steps, are skip_ratios.csv.
    out = run_dir / "out"
    cfg = ExperimentConfig.load(run_dir / "tiny.ini", seed=0)
    model_cfg, params, _ = load_checkpoint(out / "controllers" / "hidden_a4" / "checkpoint")
    backbone, ctrl = split_controller_params(params)
    bank = ControllerBank(model_cfg, ctrl, input_mode=InputMode.HIDDEN_STATE)
    test = read_jsonl(out / "corpus" / "test.jsonl")
    scores, bits = rouge_eval(
        DecoderModel(model_cfg, backbone), test, cfg.controller_train, (0, 11, 0, 40), bank=bank
    )
    steps = np.concatenate(bits)
    assert len(steps) > 0
    expected = [("hidden", "4", str(l), f"{(steps[:, l - 1] == 0).mean():.6f}") for l in bank.layers]
    ratios = list(csv.DictReader((out / "controllers" / "skip_ratios.csv").read_text().splitlines()))
    assert [(r["input_mode"], r["alpha"], r["layer"], r["skip_fraction"]) for r in ratios] == expected
    (summary,) = csv.DictReader((out / "controllers" / "sweep_summary.csv").read_text().splitlines())
    assert summary["rouge_l"] == f"{np.mean(scores):.6f}"
    assert summary["mean_cost"] == f"{mean_cost(bits):.4f}"
    assert summary["empty"] == str(sum(len(b) == 0 for b in bits))


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


def test_stage_manifests_list_nested_checkpoint_manifests(run_dir):
    out = run_dir / "out"
    train, controllers, generate = (
        json.loads((out / name / "manifest.json").read_text()) for name in ("checkpoints", "controllers", "predictions")
    )
    rel = "checkpoints/backbone/manifest.json"
    assert generate["inputs"][rel] == train["outputs"][rel]
    assert "controllers/hidden_a4/checkpoint/manifest.json" in controllers["outputs"]
    assert "controllers/manifest.json" not in controllers["outputs"]


def test_stage_manifest_lists_only_the_files_its_run_wrote(run_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out", out)
    args = ["--config", str(run_dir / "tiny.ini"), "--out", str(out)]
    assert main(["chi2", *args, "--beta", "2"]) == 0
    assert main(["chi2", *args, "--beta", "4"]) == 0
    assert (out / "chi2" / "chi2_beta2.json").exists()
    manifest = json.loads((out / "chi2" / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["chi2/chi2_beta4.json", "chi2/config_resolved.json"]


def test_regenerated_predictions_make_the_oracle_outputs_stale(run_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out", out)
    config = run_dir / "tiny.ini"
    shorter = tmp_path / "short.ini"
    shorter.write_text(config.read_text().replace("1.0\nmax_new = 12", "1.0\nmax_new = 6"))
    before = json.loads((out / "predictions" / "manifest.json").read_text())["outputs"]
    assert main(["generate", "--config", str(shorter), "--out", str(out)]) == 0
    after = json.loads((out / "predictions" / "manifest.json").read_text())["outputs"]
    assert before["predictions/uls_c4.jsonl"] != after["predictions/uls_c4.jsonl"]

    args = ["--config", str(config), "--out", str(out)]
    for stage in ("chi2", "report"):
        assert main([stage, *args]) == 1
        err = capsys.readouterr().err
        assert "predictions/uls_c4.jsonl" in err and "rerun `oracle`" in err
    assert main(["oracle", *args]) == 0
    assert main(["chi2", *args]) == 0


def test_oracle_reads_only_the_prediction_sets_the_last_generate_wrote(run_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out", out)
    one_cost = tmp_path / "one_cost.ini"
    one_cost.write_text((run_dir / "tiny.ini").read_text().replace("cost_fractions = 0.5,1.0", "cost_fractions = 1.0"))
    args = ["--config", str(one_cost), "--out", str(out)]
    assert main(["generate", *args]) == 0
    assert (out / "predictions" / "uls_c2.jsonl").exists()  # left by the earlier run

    # The old oracle's matrix holds a set the last generate did not write.
    assert main(["chi2", *args]) == 1
    err = capsys.readouterr().err
    assert "predictions/uls_c2.jsonl" in err and "rerun `oracle`" in err
    assert main(["oracle", *args]) == 0
    header = (out / "oracle" / "score_matrix.csv").read_text().splitlines()[0]
    assert header == "id,label_len,cost_4,score_4"
    manifest = json.loads((out / "oracle" / "manifest.json").read_text())
    assert sorted(manifest["inputs"]) == ["predictions/uls_c4.jsonl"]
    assert main(["chi2", *args]) == 0

    # A file the manifest lists but the run root lacks is missing.
    (out / "predictions" / "uls_c4.jsonl").unlink()
    assert main(["oracle", *args]) == 1
    assert "run `generate` first" in capsys.readouterr().err


def test_a_stage_refuses_an_input_edited_after_its_producer_wrote_it(run_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out", out)
    args = ["--config", str(run_dir / "tiny.ini"), "--out", str(out)]

    def change_one_digit(path):
        data = bytearray(path.read_bytes())
        i = max(i for i, b in enumerate(data) if chr(b).isdigit())
        data[i] = ord("7") if data[i] != ord("7") else ord("3")
        path.write_bytes(bytes(data))

    change_one_digit(out / "oracle" / "score_matrix.csv")
    assert main(["chi2", *args]) == 1
    assert "rerun `oracle`" in capsys.readouterr().err

    # Only the files a stage reads are hashed: chi2 does not read the
    # prediction sets, so an edit there shows at the next oracle run.
    assert main(["oracle", *args]) == 0
    change_one_digit(out / "predictions" / "uls_c2.jsonl")
    assert main(["chi2", *args]) == 0
    assert main(["oracle", *args]) == 1
    assert "rerun `generate`" in capsys.readouterr().err


def test_missing_inputs_give_nonzero_exit(tmp_path, capsys):
    # Each stage names the stage that should have written the first file it
    # lacks, and writes nothing; gen-corpus reads nothing.
    out = tmp_path / "run"
    on_empty_root = {
        "train": "gen-corpus",
        "train-controllers": "gen-corpus",
        "generate": "gen-corpus",
        "probe": "gen-corpus",
        "oracle": "generate",
        "chi2": "oracle",
        "report": "probe",
    }
    assert set(on_empty_root) == set(STAGES) - {"gen-corpus"}
    for stage, producer in on_empty_root.items():
        assert main([stage, "--out", str(out)]) == 1, stage
        assert f"run `{producer}` first" in capsys.readouterr().err, stage
    assert not out.exists()
    assert main(["gen-corpus", "--out", str(out)]) == 0
    for stage in ("train-controllers", "generate", "probe"):
        assert main([stage, "--out", str(out)]) == 1, stage
        assert "run `train` first" in capsys.readouterr().err, stage


def test_cli_subcommands_are_the_stage_table():
    (subcommands,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subcommands.choices) == list(STAGES)


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


def test_misspelled_boolean_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[controllers]\nfreeze_backbone = ture\n")
    assert main(["train-controllers", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "[controllers] freeze_backbone must be true/false" in capsys.readouterr().err
    for text, value in (("Yes", True), (" off ", False), ("1", True)):
        bad.write_text(f"[controllers]\nfreeze_backbone = {text}\n")
        assert ExperimentConfig.load(bad).controller_train.freeze_backbone is value


def test_bad_training_values_rejected_at_load(tmp_path, capsys):
    # [train] and [controllers] become TrainConfigs when the config loads,
    # so an out-of-range value fails before any stage runs
    bad = tmp_path / "bad.ini"
    bad.write_text("[train]\neval_every = 2\n")
    with pytest.raises(ValueError, match="eval_every"):
        ExperimentConfig.load(bad)
    assert main(["gen-corpus", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "[train] eval_every must be in (0, 1]" in capsys.readouterr().err
    bad.write_text("[controllers]\npatience = -1\n")
    with pytest.raises(ValueError, match="patience"):
        ExperimentConfig.load(bad)


@pytest.mark.parametrize(
    "text,named",
    [
        ("[routing]\nstrategies = ee,rsl\n", "'rsl'"),
        ("[routing]\ncost_grid = 2,x\n", "'x'"),
        ("[routing]\ncost_grid = 2,9\n", "[2, 9]"),
        ("[model]\nnum_layers = four\n", "'four'"),
        ("[corpus]\nsplits = 0.7,0.3\n", "'0.7,0.3'"),
        ("[controllers]\ninput_modes = hidden,fixd\n", "'fixd'"),
        ("[probe]\nmax_sequences = many\n", "'many'"),
    ],
    ids=["strategies", "cost_grid", "cost_range", "num_layers", "splits", "input_modes", "max_sequences"],
)
def test_every_config_value_is_checked_at_load(tmp_path, capsys, text, named):
    # a value that only a later stage reads still fails before any stage runs
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["gen-corpus", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        ("corpus", "tasks", "", "lists no value"),
        ("controllers", "alpha_grid", " , ", "lists no value"),
        ("controllers", "input_modes", "", "lists no value"),
        ("routing", "strategies", "", "lists no value"),
        ("routing", "cost_grid", "", "lists no value"),
        ("generate", "cost_fractions", "", "lists no value"),
        ("oracle", "budget_grid", "", "lists no value"),
        ("routing", "strategies", "ee,uls,ee", "repeats a value"),
        ("routing", "cost_grid", "2,4,2", "repeats a value"),
        ("controllers", "alpha_grid", "2,4,2.0", "repeats a value"),
        ("controllers", "input_modes", "fixed,hidden,fixed", "repeats a value"),
        ("oracle", "budget_grid", "1,2,2", "repeats a value"),
        ("generate", "cost_fractions", "0.5,0", "outside (0, 1]"),
        ("generate", "cost_fractions", "1.5", "outside (0, 1]"),
    ],
)
def test_empty_and_repeated_list_values_are_refused_naming_the_key(tmp_path, capsys, section, key, value, message):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ValueError, match=f"\\[{section}\\] {key}") as err:
        ExperimentConfig.load(bad)
    assert message in str(err.value)
    assert main(["gen-corpus", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# One refused value per INI key: its parser refuses it, or the object built
# from it at load does.
REFUSED_VALUES = {
    ("run", "seed"): "x",
    ("model", "num_layers"): "0",
    ("model", "hidden_dim"): "63",
    ("model", "num_heads"): "3",
    ("model", "ffn_dim"): "0",
    ("model", "max_context"): "1",
    ("corpus", "size"): "x",
    ("corpus", "tasks"): "copy,sort",
    ("corpus", "min_words"): "x",
    ("corpus", "max_words"): "1.5",
    ("corpus", "alphabet"): "ABC",
    ("corpus", "splits"): "0.5,0.2,0.2",
    ("train", "learning_rate"): "fast",
    ("train", "batch_size"): "x",
    ("train", "max_epochs"): "x",
    ("train", "patience"): "-1",
    ("train", "eval_every"): "0",
    ("train", "layerdrop_prob"): "1",
    ("train", "max_eval_sequences"): "x",
    ("train", "eval_max_new"): "x",
    ("controllers", "alpha_grid"): "2,a",
    ("controllers", "input_modes"): "hidden,none",
    ("controllers", "temperature"): "hot",
    ("controllers", "learning_rate"): "x",
    ("controllers", "controller_learning_rate"): "x",
    ("controllers", "batch_size"): "x",
    ("controllers", "max_epochs"): "x",
    ("controllers", "patience"): "-1",
    ("controllers", "eval_every"): "1.5",
    ("controllers", "freeze_backbone"): "maybe",
    ("controllers", "exclude_first"): "maybe",
    ("controllers", "exclude_last"): "maybe",
    ("controllers", "eval_sequences"): "1",
    ("routing", "strategies"): "ee,xx",
    ("routing", "cost_grid"): "0,2",
    ("generate", "cost_fractions"): "0.5,2",
    ("generate", "max_new"): "x",
    ("probe", "max_new"): "x",
    ("probe", "max_sequences"): "x",
    ("probe", "stop_at_eos"): "maybe",
    ("oracle", "budget_grid"): "1,x",
    ("oracle", "bin_width"): "x",
    ("oracle", "num_bins"): "x",
}


def test_the_key_table_keeps_every_default_text():
    # the hashes of the default config: each key's default text is kept
    cfg = ExperimentConfig.load(None)
    assert cfg.config_hash() == "bff30d04b6294138"
    assert cfg.model_config_hash() == "e7befd358c2337c8"
    assert set(REFUSED_VALUES) == {(section, key) for section, keys in CONFIG_KEYS.items() for key in keys}


@pytest.mark.parametrize("section,key", list(REFUSED_VALUES), ids=[f"{s}.{k}" for s, k in REFUSED_VALUES])
def test_every_config_key_refuses_a_bad_value_at_load(tmp_path, capsys, section, key):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{section}]\n{key} = {REFUSED_VALUES[section, key]}\n")
    with pytest.raises(ValueError):
        ExperimentConfig.load(bad)
    assert main(["gen-corpus", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text",
    [
        "seed = 1\n[run]\n",
        "[run]\nseed = 1\nseed = 2\n",
        "[run]\nseed = 1\n[run]\nseed = 2\n",
        "[corpus]\nalphabet = abc%\n",
    ],
    ids=["key_before_section", "repeated_key", "repeated_section", "interpolation"],
)
def test_malformed_config_is_one_error_line(tmp_path, capsys, text):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["gen-corpus", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith(f"error: malformed config {bad}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text,key",
    [
        ("[train]\nbatch_size = 0\n", "batch_size"),
        ("[train]\nmax_epochs = 0\n", "max_epochs"),
        ("[train]\nmax_eval_sequences = 0\n", "max_eval_sequences"),
        ("[train]\neval_max_new = 0\n", "eval_max_new"),
        ("[controllers]\nbatch_size = 0\n", "batch_size"),
        ("[controllers]\nmax_epochs = 0\n", "max_epochs"),
        ("[corpus]\nsize = 0\n", "size"),
        ("[corpus]\nmin_words = 0\n", "min_words"),
        ("[corpus]\nmin_words = 3\nmax_words = 1\n", "min_words"),
        ("[corpus]\nsize = 3\n", "size"),
        ("[corpus]\nsize = 7\n", "size 7 leaves 1 test row"),
        ("[controllers]\ntemperature = 0\n", "temperature"),
        ("[generate]\nmax_new = 0\n", "max_new"),
        ("[probe]\nmax_new = 0\n", "max_new"),
        ("[probe]\nmax_sequences = 0\n", "max_sequences"),
        ("[oracle]\nbin_width = 0\n", "bin_width"),
        ("[oracle]\nnum_bins = 0\n", "num_bins"),
        ("[controllers]\nexclude_first = true\n[model]\nnum_layers = 2\n", "exclude_first = true and exclude_last"),
    ],
    ids=["train.batch_size", "train.max_epochs", "train.max_eval_sequences", "train.eval_max_new",
         "controllers.batch_size", "controllers.max_epochs", "corpus.size", "corpus.min_words",
         "corpus.min_words_above_max_words", "corpus.size_with_an_empty_split", "corpus.size_with_one_test_row",
         "controllers.temperature",
         "generate.max_new", "probe.max_new", "probe.max_sequences", "oracle.bin_width", "oracle.num_bins",
         "controllers.no_controlled_layer"],
)
def test_values_that_would_fail_late_or_train_nothing_are_refused_at_load(tmp_path, capsys, text, key):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    section = text.splitlines()[0]
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.load(bad)
    assert main(["gen-corpus", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {section} ") and key in line
    assert not (tmp_path / "o").exists()


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
    assert ExperimentConfig.load(bad).controller_train.max_eval_sequences == 2


def test_config_defaults_and_cost_fractions():
    cfg = ExperimentConfig.load(None)
    assert cfg.model.num_layers == 8
    assert cfg.generate_costs == [1, 3, 4, 8]
    assert cfg.cost_grid == [2, 3, 4, 6, 8]
    assert [m.value for m in cfg.values["controllers"]["input_modes"]] == ["hidden", "fixed"]
    assert cfg.values["controllers"]["alpha_grid"] == (2.0, 4.0, 6.0, 10.0)


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
    grid = tmp_path / "grid.ini"
    grid.write_text("[oracle]\nbudget_grid = 5.25,2.75\n")
    assert main(["oracle", "--config", str(grid), "--out", str(out)]) == 0
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


def test_oracle_names_the_budgets_below_the_cheapest_cost(tmp_path, capsys):
    out = tmp_path / "out"
    _write_prediction_sets(out, np.random.default_rng(1), n=12)
    grid = tmp_path / "grid.ini"
    grid.write_text("[oracle]\nbudget_grid = 0.5,3,1,4\n")
    assert main(["oracle", "--config", str(grid), "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: oracle: dropped [oracle] budget_grid 0.5, 1: below the cheapest prediction set's cost 2\n"
    )
    rows = csv.DictReader((out / "oracle" / "sweep.csv").read_text().splitlines())
    assert [row["beta"] for row in rows] == ["3", "4"]

    # a grid with no budget left is refused, and the stage writes nothing
    shutil.rmtree(out / "oracle")
    grid.write_text("[oracle]\nbudget_grid = 0.5\n")
    assert main(["oracle", "--config", str(grid), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: [oracle] budget_grid [0.5] lies below the cheapest prediction set's cost 2"
    assert list((out / "oracle").iterdir()) == []


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

    grid = tmp_path / "grid.ini"
    grid.write_text("[oracle]\nbudget_grid = 4\n")
    assert main(["oracle", "--config", str(grid), "--out", str(out)]) == 0
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
    dropped, flat = capsys.readouterr().err.splitlines()  # the default grid holds budgets 1 and 1.5
    assert dropped == "warning: oracle: dropped [oracle] budget_grid 1, 1.5: below the cheapest prediction set's cost 2"
    assert flat.startswith("warning: oracle: no model scores above the cheapest")

    out = tmp_path / "graded"
    _write_prediction_sets(out, np.random.default_rng(0), n=n, costs=costs)
    assert main(["oracle", "--out", str(out)]) == 0
    summary = json.loads((out / "oracle" / "summary.json").read_text())
    assert n < summary["columns_kept"] <= n * len(costs)
    assert summary["degenerate"] is False
    assert capsys.readouterr().err == dropped + "\n"  # no degeneracy warning
