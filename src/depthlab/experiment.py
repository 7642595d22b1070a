"""Reproducibility shell: INI experiment configs, content-hashed manifests,
and the pipeline stages behind each CLI subcommand (corpus generation,
training, controller sweeps, prediction sets, similarity probe, budget
oracle, chi-square test, report merging)."""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tokenizer
from .checkpoint import load_checkpoint, save_checkpoint, split_controller_params
from .controller import (
    ControllerBank,
    GumbelConfig,
    InputMode,
    controlled_layers,
    init_controller_params,
    skip_ratio_report,
)
from .corpus import CorpusSpec, Example, gen_corpus, read_jsonl, split_corpus, write_jsonl
from .metrics import mean_ci, rouge_l_text
from .model import DecoderModel, ModelConfig, init_params
from .oracle import (
    chi2_to_json,
    chi_square_homogeneity,
    score_matrix_from_csv,
    score_matrix_from_prediction_sets,
    score_matrix_to_csv,
    solve_exact,
    sweep,
    sweep_to_csv,
    assignment_to_csv,
)
from .probe import compare_strategies, probe, ranking_to_csv, similarity_to_csv
from .routing import RoutePlan
from .training import TrainConfig, finetune, rouge_eval, train_controllers, write_log_csv

DEFAULTS: dict[str, dict[str, str]] = {
    "run": {"seed": "0"},
    "model": {
        "num_layers": "8",
        "hidden_dim": "64",
        "num_heads": "4",
        "ffn_dim": "256",
        "max_context": "256",
    },
    "corpus": {
        "size": "700",
        "tasks": "copy,reverse,upper,add",
        "min_words": "1",
        "max_words": "3",
        "alphabet": "abcdefghij",
        "splits": "0.70,0.15,0.15",
    },
    "train": {
        "learning_rate": "1.5e-3",
        "schedule": "linear",
        "batch_size": "8",
        "max_epochs": "6",
        "patience": "2",
        "eval_every": "0.34",
        "layerdrop_prob": "0.0",
        "max_eval_sequences": "24",
        "eval_max_new": "40",
    },
    "controllers": {
        "alpha_grid": "2,4,6,10",
        "input_modes": "hidden,fixed",
        "temperature": "1.0",
        "learning_rate": "1.5e-3",
        "controller_learning_rate": "0.05",
        "batch_size": "8",
        "max_epochs": "2",
        "patience": "1",
        "eval_every": "0.34",
        "freeze_backbone": "false",
        "exclude_first": "true",
        "exclude_last": "true",
        "eval_sequences": "24",
    },
    "routing": {"strategies": "ee,uls,rls,rls_no1", "cost_grid": "2,3,4,6,8"},
    "generate": {"cost_fractions": "0.1667,0.3333,0.5,1.0", "max_new": "40"},
    "probe": {"max_new": "24", "max_sequences": "32", "stop_at_eos": "true"},
    "oracle": {
        "budget_grid": "1,1.5,2,2.5,3,3.5,4,4.5,5,6,7,8",
        "bin_width": "5",
        "num_bins": "7",
    },
}


class MissingArtifact(FileNotFoundError):
    pass


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def parse_strategies(text: str, num_layers: int) -> list[RoutePlan]:
    """Strategy templates at full cost from a comma-separated list of ee,
    uls, rls, rls_no1 and full; empty names are skipped."""
    L = num_layers
    plans = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        if name == "ee":
            plans.append(RoutePlan.early_exit(L, L))
        elif name == "uls":
            plans.append(RoutePlan.uniform_skip(L, L))
        elif name == "rls":
            plans.append(RoutePlan.random_skip(L, L, enforce_first=True))
        elif name == "rls_no1":
            plans.append(RoutePlan.random_skip(L, L, enforce_first=False))
        elif name == "full":
            plans.append(RoutePlan.full(L))
        else:
            raise ValueError(f"unknown strategy {name!r}")
    return plans


@dataclass
class ExperimentConfig:
    sections: dict[str, dict[str, str]]

    @staticmethod
    def load(path: str | Path | None, seed: int | None = None) -> "ExperimentConfig":
        sections = {name: dict(values) for name, values in DEFAULTS.items()}
        if path is not None:
            path = Path(path)
            if not path.exists():
                raise MissingArtifact(f"config file not found: {path}")
            parser = configparser.ConfigParser()
            parser.read(path)
            for section in parser.sections():
                if section not in sections:
                    raise ValueError(f"unknown config section [{section}]")
                for key, value in parser.items(section):
                    if key not in sections[section]:
                        raise ValueError(f"unknown config key {key!r} in [{section}]")
                    sections[section][key] = value
        cfg = ExperimentConfig(sections)
        if cfg.getint("controllers", "eval_sequences") < 2:
            # the controller sweep reports a confidence interval over them
            raise ValueError("[controllers] eval_sequences must be >= 2")
        if seed is not None:
            cfg.sections["run"]["seed"] = str(seed)
        return cfg

    # -- typed accessors ------------------------------------------------------

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def getint(self, section: str, key: str) -> int:
        return int(self.get(section, key))

    def getfloat(self, section: str, key: str) -> float:
        return float(self.get(section, key))

    def getbool(self, section: str, key: str) -> bool:
        return self.get(section, key).strip().lower() in ("1", "true", "yes", "on")

    @property
    def seed(self) -> int:
        return self.getint("run", "seed")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            num_layers=self.getint("model", "num_layers"),
            hidden_dim=self.getint("model", "hidden_dim"),
            num_heads=self.getint("model", "num_heads"),
            ffn_dim=self.getint("model", "ffn_dim"),
            max_context=self.getint("model", "max_context"),
        )

    def corpus_spec(self) -> CorpusSpec:
        splits = _floats(self.get("corpus", "splits"))
        return CorpusSpec(
            size=self.getint("corpus", "size"),
            tasks=tuple(t.strip() for t in self.get("corpus", "tasks").split(",") if t.strip()),
            min_words=self.getint("corpus", "min_words"),
            max_words=self.getint("corpus", "max_words"),
            alphabet=self.get("corpus", "alphabet"),
            splits=(splits[0], splits[1], splits[2]),
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.getfloat("train", "learning_rate"),
            schedule=self.get("train", "schedule"),
            batch_size=self.getint("train", "batch_size"),
            max_epochs=self.getint("train", "max_epochs"),
            patience=self.getint("train", "patience"),
            eval_every=self.getfloat("train", "eval_every"),
            seed=self.seed,
            layerdrop_prob=self.getfloat("train", "layerdrop_prob"),
            max_eval_sequences=self.getint("train", "max_eval_sequences"),
            eval_max_new=self.getint("train", "eval_max_new"),
        )

    def controller_train_config(self, freeze: bool | None = None) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.getfloat("controllers", "learning_rate"),
            controller_learning_rate=self.getfloat("controllers", "controller_learning_rate"),
            batch_size=self.getint("controllers", "batch_size"),
            max_epochs=self.getint("controllers", "max_epochs"),
            patience=self.getint("controllers", "patience"),
            eval_every=self.getfloat("controllers", "eval_every"),
            seed=self.seed,
            freeze_backbone=self.getbool("controllers", "freeze_backbone") if freeze is None else freeze,
            max_eval_sequences=self.getint("controllers", "eval_sequences"),
            eval_max_new=self.getint("generate", "max_new"),
        )

    def alpha_grid(self) -> list[float]:
        return _floats(self.get("controllers", "alpha_grid"))

    def input_modes(self) -> list[InputMode]:
        return [InputMode(m.strip()) for m in self.get("controllers", "input_modes").split(",") if m.strip()]

    def cost_grid(self) -> list[int]:
        return _ints(self.get("routing", "cost_grid"))

    def generate_costs(self) -> list[int]:
        L = self.model_config().num_layers
        costs = []
        for frac in _floats(self.get("generate", "cost_fractions")):
            costs.append(max(1, min(L, round(frac * L))))
        return sorted(set(costs))

    def budget_grid(self) -> list[float]:
        return _floats(self.get("oracle", "budget_grid"))

    def resolved_json(self) -> str:
        return json.dumps(self.sections, indent=2, sort_keys=True) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.resolved_json().encode()).hexdigest()[:16]

    def model_config_hash(self) -> str:
        payload = json.dumps(self.sections["model"], sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_stage_manifest(
    stage_dir: Path,
    stage: str,
    cfg: ExperimentConfig,
    out_root: Path,
    inputs: Sequence[Path] = (),
) -> None:
    """Hash everything the stage read and wrote; paths are stored relative to
    the run root so reruns in different roots stay byte-identical."""

    root = out_root.resolve()

    def rel(p: Path) -> str:
        try:
            return p.resolve().relative_to(root).as_posix()
        except ValueError:
            return p.name

    outputs = sorted(p for p in stage_dir.rglob("*") if p.is_file() and p.name != "manifest.json")
    manifest = {
        "stage": stage,
        "config_hash": cfg.config_hash(),
        "model_config_hash": cfg.model_config_hash(),
        "seed": cfg.seed,
        "inputs": {rel(p): _sha256(p) for p in sorted(inputs)},
        "outputs": {rel(p): _sha256(p) for p in outputs},
    }
    (stage_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _start_stage(out: Path, name: str, cfg: ExperimentConfig) -> Path:
    stage_dir = out / name
    stage_dir.mkdir(parents=True, exist_ok=True)
    (stage_dir / "config_resolved.json").write_text(cfg.resolved_json())
    return stage_dir


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"missing {path} — run `{hint}` first")
    return path


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_gen_corpus(cfg: ExperimentConfig, out: Path) -> Path:
    stage = _start_stage(out, "corpus", cfg)
    spec = cfg.corpus_spec()
    examples = gen_corpus(spec, cfg.seed)
    train, val, test = split_corpus(examples, spec.splits)
    write_jsonl(examples, stage / "corpus.jsonl")
    write_jsonl(train, stage / "train.jsonl")
    write_jsonl(val, stage / "val.jsonl")
    write_jsonl(test, stage / "test.jsonl")
    write_stage_manifest(stage, "gen-corpus", cfg, out)
    return stage


def _load_split(out: Path, name: str) -> list[Example]:
    return read_jsonl(_require(out / "corpus" / f"{name}.jsonl", "gen-corpus"))


def stage_train(cfg: ExperimentConfig, out: Path) -> Path:
    stage = _start_stage(out, "checkpoints", cfg)
    train_examples = _load_split(out, "train")
    val_examples = _load_split(out, "val")
    model_cfg = cfg.model_config()
    model = DecoderModel(model_cfg, init_params(model_cfg, seed=cfg.seed))
    result = finetune(model, train_examples, val_examples, cfg.train_config())
    ckpt = stage / "backbone"
    save_checkpoint(
        ckpt,
        model_cfg,
        model.params,
        extra={"config_hash": cfg.config_hash(), "seed": cfg.seed, "best_rouge_l": result.best_metric},
    )
    write_log_csv(result.log, stage / "train_log.csv")
    inputs = [out / "corpus" / "train.jsonl", out / "corpus" / "val.jsonl"]
    write_stage_manifest(stage, "train", cfg, out, inputs=inputs)
    return stage


def _load_backbone(cfg: ExperimentConfig, out: Path) -> DecoderModel:
    ckpt = _require(out / "checkpoints" / "backbone" / "config.json", "train").parent
    model_cfg, params, _ = load_checkpoint(ckpt)
    backbone, _ = split_controller_params(params)
    return DecoderModel(model_cfg, backbone)


def _backbone_input_files(out: Path) -> list[Path]:
    base = out / "checkpoints" / "backbone"
    return [base / "config.json", base / "manifest.json", base / "weights.bin"]


def stage_train_controllers(
    cfg: ExperimentConfig,
    out: Path,
    alphas: Sequence[float] | None = None,
    modes: Sequence[InputMode] | None = None,
    freeze_backbone: bool | None = None,
) -> Path:
    stage = _start_stage(out, "controllers", cfg)
    alphas = list(alphas) if alphas is not None else cfg.alpha_grid()
    modes = list(modes) if modes is not None else cfg.input_modes()
    train_examples = _load_split(out, "train")
    val_examples = _load_split(out, "val")
    test_examples = _load_split(out, "test")
    model_cfg = cfg.model_config()
    tcfg = cfg.controller_train_config(freeze=freeze_backbone)
    temperature = cfg.getfloat("controllers", "temperature")
    layers = controlled_layers(
        model_cfg,
        exclude_first=cfg.getbool("controllers", "exclude_first"),
        exclude_last=cfg.getbool("controllers", "exclude_last"),
    )

    summary_rows = []
    ratio_rows = []
    for mode_idx, mode in enumerate(modes):
        for alpha in alphas:
            model = _load_backbone(cfg, out)
            bank = ControllerBank(
                model_cfg,
                init_controller_params(model_cfg, layers, seed=cfg.seed + 1000 * mode_idx + int(alpha)),
                input_mode=mode,
                gumbel=GumbelConfig(temperature=temperature),
            )
            result = train_controllers(model, bank, train_examples, val_examples, tcfg, alpha)
            run_dir = stage / f"{mode.value}_a{alpha:g}"
            save_checkpoint(
                run_dir / "checkpoint",
                model_cfg,
                {**model.params, **bank.params},
                extra={
                    "config_hash": cfg.config_hash(),
                    "seed": cfg.seed,
                    "alpha": alpha,
                    "input_mode": mode.value,
                    "temperature": temperature,
                    "controlled_layers": layers,
                    "freeze_backbone": tcfg.freeze_backbone,
                },
            )
            write_log_csv(result.log, run_dir / "train_log.csv")

            key = (cfg.seed, 11, mode_idx, int(alpha * 10))
            scores, costs = rouge_eval(model, test_examples, tcfg, key, bank=bank)
            r_mean, r_half = mean_ci(scores)
            summary_rows.append(
                {
                    "input_mode": mode.value,
                    "alpha": alpha,
                    "mean_cost": float(np.mean(costs)) if costs else math.nan,
                    "rouge_l": r_mean,
                    "rouge_ci_low": r_mean - r_half,
                    "rouge_ci_high": r_mean + r_half,
                    "n": len(scores),
                    "empty": len(scores) - len(costs),
                }
            )
            prompts = [
                tokenizer.encode(ex.prompt, add_bos=True)
                for ex in test_examples[: tcfg.max_eval_sequences]
            ]
            row = skip_ratio_report(model, bank, prompts, alpha, max_new=tcfg.eval_max_new, seed=cfg.seed)
            for layer, frac in sorted(row.skip_fraction.items()):
                ratio_rows.append(
                    {"input_mode": mode.value, "alpha": alpha, "layer": layer, "skip_fraction": frac}
                )

    with open(stage / "sweep_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["input_mode", "alpha", "mean_cost", "rouge_l", "rouge_ci_low", "rouge_ci_high", "n", "empty"]
        )
        for row in summary_rows:
            writer.writerow(
                [
                    row["input_mode"],
                    f"{row['alpha']:g}",
                    f"{row['mean_cost']:.4f}",
                    f"{row['rouge_l']:.6f}",
                    f"{row['rouge_ci_low']:.6f}",
                    f"{row['rouge_ci_high']:.6f}",
                    row["n"],
                    row["empty"],
                ]
            )
    with open(stage / "skip_ratios.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["input_mode", "alpha", "layer", "skip_fraction"])
        for row in ratio_rows:
            writer.writerow(
                [row["input_mode"], f"{row['alpha']:g}", row["layer"], f"{row['skip_fraction']:.6f}"]
            )

    inputs = [out / "corpus" / f"{n}.jsonl" for n in ("train", "val", "test")]
    inputs += _backbone_input_files(out)
    write_stage_manifest(stage, "train-controllers", cfg, out, inputs=inputs)
    return stage


def stage_generate(cfg: ExperimentConfig, out: Path, costs: Sequence[int] | None = None) -> Path:
    stage = _start_stage(out, "predictions", cfg)
    model = _load_backbone(cfg, out)
    test_examples = _load_split(out, "test")
    costs = sorted(set(costs)) if costs is not None else cfg.generate_costs()
    max_new = cfg.getint("generate", "max_new")
    L = model.cfg.num_layers

    for cost in costs:
        if not 1 <= cost <= L:
            raise ValueError(f"generation cost {cost} outside [1, {L}]")
        plan = RoutePlan.uniform_skip(L, cost)
        with open(stage / f"uls_c{cost}.jsonl", "w") as fh:
            for ex in test_examples:
                prompt = tokenizer.encode(ex.prompt, add_bos=True)
                res = model.generate(prompt, plan=plan, max_new=max_new, rng_seed=0)
                text = tokenizer.decode(res.generated_ids)
                record = {
                    "id": ex.id,
                    "cost": cost,
                    "text": text,
                    "label": ex.label,
                    "label_len": len(tokenizer.encode(ex.label)),
                    "rouge_l": round(rouge_l_text(text, ex.label).f, 6),
                }
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")

    inputs = [out / "corpus" / "test.jsonl"] + _backbone_input_files(out)
    write_stage_manifest(stage, "generate", cfg, out, inputs=inputs)
    return stage


def stage_probe(
    cfg: ExperimentConfig,
    out: Path,
    strategies: Sequence[RoutePlan] | None = None,
    costs: Sequence[int] | None = None,
) -> Path:
    stage = _start_stage(out, "probe", cfg)
    model = _load_backbone(cfg, out)
    test_examples = _load_split(out, "test")
    max_sequences = cfg.getint("probe", "max_sequences")
    prompts = [
        tokenizer.encode(ex.prompt, add_bos=True) for ex in test_examples[:max_sequences]
    ]
    if strategies is None:
        strategies = parse_strategies(cfg.get("routing", "strategies"), model.cfg.num_layers)
    report = probe(
        model,
        prompts,
        strategies,
        costs if costs is not None else cfg.cost_grid(),
        seed=cfg.seed,
        max_new=cfg.getint("probe", "max_new"),
        stop_at_eos=cfg.getbool("probe", "stop_at_eos"),
    )
    similarity_to_csv(report, stage / "similarity.csv")
    ranking_to_csv(compare_strategies(report), stage / "ranking.csv")
    inputs = [out / "corpus" / "test.jsonl"] + _backbone_input_files(out)
    write_stage_manifest(stage, "probe", cfg, out, inputs=inputs)
    return stage


def _prediction_files(out: Path) -> list[Path]:
    pred_dir = _require(out / "predictions", "generate")
    files = sorted(pred_dir.glob("uls_c*.jsonl"))
    if not files:
        raise MissingArtifact(f"no prediction sets under {pred_dir} — run `generate` first")
    return files


def stage_oracle(cfg: ExperimentConfig, out: Path, budgets: Sequence[float] | None = None) -> Path:
    stage = _start_stage(out, "oracle", cfg)
    files = _prediction_files(out)
    matrix = score_matrix_from_prediction_sets(files)
    budgets = list(budgets) if budgets is not None else cfg.budget_grid()
    budgets = [b for b in budgets if b >= min(matrix.costs)]
    result = sweep(matrix, budgets)
    score_matrix_to_csv(matrix, stage / "score_matrix.csv")
    sweep_to_csv(result, stage / "sweep.csv")
    # The parity point's assignment, or the largest budget's if none reaches parity.
    point = next((p for p in result.points if p.beta == result.star_beta), result.points[-1])
    assignment_to_csv(matrix, point.assignment, stage / f"assignment_beta{point.beta:g}.csv")
    # Degenerate: no model beats the cheapest on any sequence, so every
    # budget's answer is the cheapest model and star_beta says nothing.
    degenerate = result.columns_kept == matrix.n
    if degenerate:
        print(
            f"warning: oracle: no model scores above the cheapest (cost {min(matrix.costs)}) "
            f"on any of {matrix.n} sequences; the sweep is degenerate",
            file=sys.stderr,
        )
    with open(stage / "summary.json", "w") as fh:
        json.dump(
            {
                "star_beta": result.star_beta,
                "assignment_beta": point.beta,
                "column_means": {str(c): result.column_means[c] for c in sorted(result.column_means)},
                "full_model_mean": result.full_model_mean(),
                "columns_kept": result.columns_kept,
                "degenerate": degenerate,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    write_stage_manifest(stage, "oracle", cfg, out, inputs=files)
    return stage


def stage_chi2(cfg: ExperimentConfig, out: Path, beta: float | None = None) -> Path:
    """Chi-square test of the exact assignment at `beta` against label length.

    Reads the score matrix the `oracle` stage wrote (`oracle/score_matrix.csv`,
    which round-trips exactly), so it needs that stage even when `beta` is
    given. Without `beta` it tests the budget of the oracle's assignment.
    """
    stage = _start_stage(out, "chi2", cfg)
    matrix_path = _require(out / "oracle" / "score_matrix.csv", "oracle")
    matrix = score_matrix_from_csv(matrix_path)
    inputs = [matrix_path]
    if beta is None:
        summary_path = _require(out / "oracle" / "summary.json", "oracle")
        beta = json.loads(summary_path.read_text())["assignment_beta"]
        inputs.append(summary_path)
    assignment = solve_exact(matrix, beta)
    result = chi_square_homogeneity(
        assignment,
        matrix.label_lengths,
        bin_width=cfg.getint("oracle", "bin_width"),
        num_bins=cfg.getint("oracle", "num_bins"),
    )
    chi2_to_json(result, stage / f"chi2_beta{beta:g}.json")
    write_stage_manifest(stage, "chi2", cfg, out, inputs=inputs)
    return stage


def _check_model_hashes(out: Path, stages: Sequence[str]) -> str:
    hashes = {}
    for name in stages:
        manifest_path = _require(out / name / "manifest.json", name)
        manifest = json.loads(manifest_path.read_text())
        hashes[name] = manifest["model_config_hash"]
    if len(set(hashes.values())) > 1:
        raise ValueError(f"conflicting model-config hashes across stages: {hashes}")
    return next(iter(hashes.values()))


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _copy_columns(src: Path, dst: Path, columns: Sequence[str]) -> None:
    """Write the named columns of a CSV, in that order, to a new CSV."""
    rows = _read_csv(src)
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


def stage_report(cfg: ExperimentConfig, out: Path) -> Path:
    stage = _start_stage(out, "report", cfg)
    _check_model_hashes(out, ["probe", "controllers", "predictions", "oracle"])

    # Fig 1a layout: similarity vs cost per strategy, long format.
    _copy_columns(
        out / "probe" / "similarity.csv",
        stage / "fig1a_similarity.csv",
        ["strategy", "cost", "metric", "mean", "ci_low", "ci_high", "n"],
    )

    # Fig 1b layout: cost vs quality operating curve per controller input mode.
    _copy_columns(
        out / "controllers" / "sweep_summary.csv",
        stage / "fig1b_controller_curves.csv",
        ["input_mode", "alpha", "mean_cost", "rouge_l", "rouge_ci_low", "rouge_ci_high"],
    )

    # Fig 2 layout: oracle score + stacked selection percentages per budget.
    oracle_rows = _read_csv(out / "oracle" / "sweep.csv")
    summary = json.loads((out / "oracle" / "summary.json").read_text())
    pct_cols = [c for c in oracle_rows[0] if c.startswith("pct_")]
    with open(stage / "fig2_oracle.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "exact_score", "full_model_mean", "is_star"] + pct_cols)
        for row in oracle_rows:
            is_star = summary["star_beta"] is not None and float(row["beta"]) == float(summary["star_beta"])
            writer.writerow(
                [row["beta"], row["exact_score"], f"{summary['full_model_mean']:.6f}", int(is_star)]
                + [row[c] for c in pct_cols]
            )

    # Greedy-vs-exact comparison: sampling advantage vs budget reallocation.
    col_means = {int(c): m for c, m in summary["column_means"].items()}
    with open(stage / "greedy_comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "exact_score", "greedy_score", "best_single_column"])
        for row in oracle_rows:
            beta = float(row["beta"])
            feasible = [m for c, m in col_means.items() if c <= beta]
            writer.writerow(
                [row["beta"], row["exact_score"], row["greedy_score"], f"{max(feasible):.6f}"]
            )

    # Per-layer skip ratios per alpha and input mode.
    _copy_columns(
        out / "controllers" / "skip_ratios.csv",
        stage / "skip_ratios.csv",
        ["input_mode", "alpha", "layer", "skip_fraction"],
    )

    inputs = [
        out / "probe" / "similarity.csv",
        out / "controllers" / "sweep_summary.csv",
        out / "controllers" / "skip_ratios.csv",
        out / "oracle" / "sweep.csv",
        out / "oracle" / "summary.json",
    ]
    write_stage_manifest(stage, "report", cfg, out, inputs=inputs)
    return stage
