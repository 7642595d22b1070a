"""Reproducibility shell: INI experiment configs, content-hashed manifests,
and the pipeline stages behind each CLI subcommand (corpus generation,
training, controller sweeps, prediction sets, similarity probe, budget
oracle, chi-square test, report merging).

`STAGES` declares each stage once: its subcommand, its directory under the
run root, the files it reads and its body. `run_stage` resolves those files,
refuses missing ones and ones their producers' manifests no longer list,
runs the body and writes the stage's manifest."""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import tokenizer
from .checkpoint import load_checkpoint, save_checkpoint, split_controller_params
from .controller import (
    ControllerBank,
    GumbelConfig,
    InputMode,
    controlled_layers,
    init_controller_params,
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
from .training import TrainConfig, finetune, mean_cost, rouge_eval, train_controllers, write_log_csv

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


class StaleArtifact(RuntimeError):
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
        if seed is not None:
            cfg.sections["run"]["seed"] = str(seed)
        # Every value is parsed here once, so a bad one fails before any stage runs.
        for section, values in DEFAULTS.items():
            for key, default in values.items():
                if default in ("true", "false"):
                    cfg.getbool(section, key)
        if cfg.getint("controllers", "eval_sequences") < 2:
            # the controller sweep reports a confidence interval over them
            raise ValueError("[controllers] eval_sequences must be >= 2")
        for accessor in (cfg.corpus_spec, cfg.train_config, cfg.controller_train_config, cfg.alpha_grid,
                         cfg.input_modes, cfg.cost_grid, cfg.generate_costs, cfg.budget_grid):
            accessor()
        parse_strategies(cfg.get("routing", "strategies"), cfg.model_config().num_layers)
        cfg.getfloat("controllers", "temperature")
        for section, key in (("probe", "max_new"), ("probe", "max_sequences"), ("oracle", "bin_width"),
                             ("oracle", "num_bins")):
            cfg.getint(section, key)
        return cfg

    # -- typed accessors ------------------------------------------------------

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def getint(self, section: str, key: str) -> int:
        return int(self.get(section, key))

    def getfloat(self, section: str, key: str) -> float:
        return float(self.get(section, key))

    def getbool(self, section: str, key: str) -> bool:
        value = self.get(section, key)
        state = configparser.ConfigParser.BOOLEAN_STATES.get(value.strip().lower())
        if state is None:
            raise ValueError(f"[{section}] {key} must be true/false, yes/no, on/off or 1/0, got {value!r}")
        return state

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
        if len(splits) != 3:
            raise ValueError(f"[corpus] splits must be three fractions, got {self.get('corpus', 'splits')!r}")
        return CorpusSpec(
            size=self.getint("corpus", "size"),
            tasks=tuple(t.strip() for t in self.get("corpus", "tasks").split(",") if t.strip()),
            min_words=self.getint("corpus", "min_words"),
            max_words=self.getint("corpus", "max_words"),
            alphabet=self.get("corpus", "alphabet"),
            splits=tuple(splits),
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

    def controller_train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.getfloat("controllers", "learning_rate"),
            controller_learning_rate=self.getfloat("controllers", "controller_learning_rate"),
            batch_size=self.getint("controllers", "batch_size"),
            max_epochs=self.getint("controllers", "max_epochs"),
            patience=self.getint("controllers", "patience"),
            eval_every=self.getfloat("controllers", "eval_every"),
            seed=self.seed,
            freeze_backbone=self.getbool("controllers", "freeze_backbone"),
            max_eval_sequences=self.getint("controllers", "eval_sequences"),
            eval_max_new=self.getint("generate", "max_new"),
        )

    def alpha_grid(self) -> list[float]:
        return _floats(self.get("controllers", "alpha_grid"))

    def input_modes(self) -> list[InputMode]:
        return [InputMode(m.strip()) for m in self.get("controllers", "input_modes").split(",") if m.strip()]

    def cost_grid(self) -> list[int]:
        costs, L = _ints(self.get("routing", "cost_grid")), self.model_config().num_layers
        if not all(1 <= c <= L for c in costs):
            raise ValueError(f"[routing] cost_grid {costs} has a cost outside 1..{L}")
        return costs

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
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_stage_manifest(
    stage_dir: Path, stage: str, cfg: ExperimentConfig, out_root: Path, inputs: dict[str, str]
) -> None:
    """Record the hashes of what the stage read (`inputs`, path -> sha256) and
    of every file it wrote but this manifest; paths are relative to the run
    root so reruns in different roots stay byte-identical."""
    own = stage_dir / "manifest.json"
    outputs = sorted(p for p in stage_dir.rglob("*") if p.is_file() and p != own)
    manifest = {
        "stage": stage,
        "config_hash": cfg.config_hash(),
        "model_config_hash": cfg.model_config_hash(),
        "seed": cfg.seed,
        "inputs": inputs,
        "outputs": {p.relative_to(out_root).as_posix(): _sha256(p) for p in outputs},
    }
    own.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_manifest(out: Path, stage_dir: str) -> dict | None:
    path = out / stage_dir / "manifest.json"
    return json.loads(path.read_text()) if path.exists() else None


def _check_fresh(out: Path, hashes: dict[str, str]) -> None:
    """Refuse stale inputs. Each file read (`hashes`, path -> sha256) must be
    the one its producer's manifest lists among its outputs, and so must each
    input recorded by every manifest upstream, followed transitively; that
    step compares manifests and hashes nothing. A file whose producer
    directory has no manifest, or whose producer's manifest does not list it,
    is not checked."""
    manifests: dict[str, dict | None] = {}
    pending: list[tuple[str | None, dict[str, str]]] = [(None, hashes)]  # (reader, what it read)
    while pending:
        reader, inputs = pending.pop()
        for rel, digest in inputs.items():
            top = rel.split("/", 1)[0]
            if top not in manifests:
                manifests[top] = _read_manifest(out, top)
                if manifests[top] is not None:
                    pending.append((manifests[top]["stage"], manifests[top]["inputs"]))
            producer = manifests[top]
            if producer is not None and producer["outputs"].get(rel, digest) != digest:
                what = f"`{reader}` read a {rel} other than" if reader else f"{rel} differs from"
                raise StaleArtifact(
                    f"{what} the one `{producer['stage']}` last wrote — rerun `{reader or producer['stage']}`"
                )


# ---------------------------------------------------------------------------
# Stage bodies: each writes into `stage`, the stage's directory, and reads
# the files its table entry declares (`inputs`, resolved under the run root).
# ---------------------------------------------------------------------------


def _gen_corpus(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    spec = cfg.corpus_spec()
    examples = gen_corpus(spec, cfg.seed)
    train, val, test = split_corpus(examples, spec.splits)
    write_jsonl(examples, stage / "corpus.jsonl")
    write_jsonl(train, stage / "train.jsonl")
    write_jsonl(val, stage / "val.jsonl")
    write_jsonl(test, stage / "test.jsonl")


def _load_split(out: Path, name: str) -> list[Example]:
    return read_jsonl(out / "corpus" / f"{name}.jsonl")


def _train(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    model_cfg = cfg.model_config()
    model = DecoderModel(model_cfg, init_params(model_cfg, seed=cfg.seed))
    result = finetune(model, _load_split(out, "train"), _load_split(out, "val"), cfg.train_config())
    save_checkpoint(
        stage / "backbone",
        model_cfg,
        model.params,
        extra={"config_hash": cfg.config_hash(), "seed": cfg.seed, "best_rouge_l": result.best_metric},
    )
    write_log_csv(result.log, stage / "train_log.csv")


def _load_backbone(out: Path) -> DecoderModel:
    model_cfg, params, _ = load_checkpoint(out / "checkpoints" / "backbone")
    backbone, _ = split_controller_params(params)
    return DecoderModel(model_cfg, backbone)


def _train_controllers(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    """Train one gate bank per (input mode, alpha) and score it on the test
    split. Each test prompt is decoded once per run; that one generation gives
    its ROUGE-L and its realized execute bits. `sweep_summary.csv` has the
    ROUGE-L mean and CI, and `mean_cost`, the mean over generations that took
    a step of each one's mean executed layers per step (nan when none did).
    `skip_ratios.csv` has, per controlled layer, the share of skipped steps
    pooled over all steps of those generations (nan when none took a step).
    Long generations weigh more in the pooled fractions than in the
    per-generation mean, so L minus the summed skip fractions need not equal
    `mean_cost`."""
    train_examples = _load_split(out, "train")
    val_examples = _load_split(out, "val")
    test_examples = _load_split(out, "test")
    model_cfg = cfg.model_config()
    tcfg = cfg.controller_train_config()
    temperature = cfg.getfloat("controllers", "temperature")
    layers = controlled_layers(
        model_cfg,
        exclude_first=cfg.getbool("controllers", "exclude_first"),
        exclude_last=cfg.getbool("controllers", "exclude_last"),
    )

    summary_rows = [["input_mode", "alpha", "mean_cost", "rouge_l", "rouge_ci_low", "rouge_ci_high", "n", "empty"]]
    ratio_rows = [["input_mode", "alpha", "layer", "skip_fraction"]]
    for mode_idx, mode in enumerate(cfg.input_modes()):
        for alpha in cfg.alpha_grid():
            model = _load_backbone(out)
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
            scores, bits = rouge_eval(model, test_examples, tcfg, key, bank=bank)
            r_mean, r_half = mean_ci(scores)
            summary_rows.append(
                [
                    mode.value,
                    f"{alpha:g}",
                    f"{mean_cost(bits):.4f}",
                    f"{r_mean:.6f}",
                    f"{r_mean - r_half:.6f}",
                    f"{r_mean + r_half:.6f}",
                    len(scores),
                    sum(len(b) == 0 for b in bits),
                ]
            )
            steps = np.concatenate(bits)
            for layer in layers:
                frac = (steps[:, layer - 1] == 0).mean() if len(steps) else math.nan
                ratio_rows.append([mode.value, f"{alpha:g}", layer, f"{frac:.6f}"])
    _write_csv(stage / "sweep_summary.csv", summary_rows)
    _write_csv(stage / "skip_ratios.csv", ratio_rows)


def _generate(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    model = _load_backbone(out)
    test_examples = _load_split(out, "test")
    costs = cfg.generate_costs()
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


def _probe(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    model = _load_backbone(out)
    test_examples = _load_split(out, "test")
    max_sequences = cfg.getint("probe", "max_sequences")
    prompts = [
        tokenizer.encode(ex.prompt, add_bos=True) for ex in test_examples[:max_sequences]
    ]
    report = probe(
        model,
        prompts,
        parse_strategies(cfg.get("routing", "strategies"), model.cfg.num_layers),
        cfg.cost_grid(),
        seed=cfg.seed,
        max_new=cfg.getint("probe", "max_new"),
        stop_at_eos=cfg.getbool("probe", "stop_at_eos"),
    )
    similarity_to_csv(report, stage / "similarity.csv")
    ranking_to_csv(compare_strategies(report), stage / "ranking.csv")


def _oracle(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    matrix = score_matrix_from_prediction_sets(inputs)
    budgets = [b for b in cfg.budget_grid() if b >= min(matrix.costs)]
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


def _chi2(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path], beta: float | None = None) -> None:
    """Chi-square test of the exact assignment at `beta` against label length.

    Reads the score matrix the `oracle` stage wrote (`oracle/score_matrix.csv`,
    which round-trips exactly), so it needs that stage even when `beta` is
    given. Without `beta` it tests the budget of the oracle's assignment.
    """
    matrix = score_matrix_from_csv(out / "oracle" / "score_matrix.csv")
    if beta is None:
        beta = json.loads((out / "oracle" / "summary.json").read_text())["assignment_beta"]
    assignment = solve_exact(matrix, beta)
    result = chi_square_homogeneity(
        assignment,
        matrix.label_lengths,
        bin_width=cfg.getint("oracle", "bin_width"),
        num_bins=cfg.getint("oracle", "num_bins"),
    )
    chi2_to_json(result, stage / f"chi2_beta{beta:g}.json")


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_csv(path: Path, rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _copy_columns(src: Path, dst: Path, columns: Sequence[str]) -> None:
    """Write the named columns of a CSV, in that order, to a new CSV."""
    _write_csv(dst, [columns] + [[row[c] for c in columns] for row in _read_csv(src)])


def _report(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    hashes = {}
    for name in ("probe", "controllers", "predictions", "oracle"):
        manifest = _read_manifest(out, name)
        if manifest is None:
            raise _missing(out, f"{name}/manifest.json")
        hashes[name] = manifest["model_config_hash"]
    if len(set(hashes.values())) > 1:
        raise ValueError(f"conflicting model-config hashes across stages: {hashes}")

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


# ---------------------------------------------------------------------------
# The stage table and its runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One pipeline stage and CLI subcommand. `body` writes into `dir` under
    the run root and reads the files `reads` names: paths or globs under the
    run root, each in the directory of the stage that writes it."""

    name: str
    dir: str
    reads: tuple[str, ...]
    body: Callable[..., None]
    help: str


_BACKBONE = tuple(f"checkpoints/backbone/{name}" for name in ("config.json", "manifest.json", "weights.bin"))
_TEST = ("corpus/test.jsonl",)

STAGES: dict[str, Stage] = {stage.name: stage for stage in (
    Stage("gen-corpus", "corpus", (), _gen_corpus, "generate the synthetic corpus and splits"),
    Stage("train", "checkpoints", ("corpus/train.jsonl", "corpus/val.jsonl"), _train, "fine-tune the backbone"),
    Stage("train-controllers", "controllers", ("corpus/train.jsonl", "corpus/val.jsonl", *_TEST, *_BACKBONE),
          _train_controllers, "train gate controllers over the alpha grid"),
    Stage("generate", "predictions", _TEST + _BACKBONE, _generate, "produce one prediction set per routing cost"),
    Stage("probe", "probe", _TEST + _BACKBONE, _probe, "hidden-state similarity probe"),
    Stage("oracle", "oracle", ("predictions/uls_c*.jsonl",), _oracle, "budget-allocation sweep over prediction sets"),
    Stage("chi2", "chi2", ("oracle/score_matrix.csv", "oracle/summary.json"), _chi2,
          "label-length homogeneity test of the oracle assignment (needs `oracle`, also with --beta)"),
    Stage("report", "report", ("probe/similarity.csv", "controllers/sweep_summary.csv", "controllers/skip_ratios.csv",
                               "oracle/sweep.csv", "oracle/summary.json"),
          _report, "merge stage outputs into plot-ready tables"),
)}


def _missing(out: Path, rel: str) -> MissingArtifact:
    """The error for a file `rel` the run root lacks, naming the stage whose
    directory should hold it."""
    producer = next(s.name for s in STAGES.values() if s.dir == rel.split("/", 1)[0])
    return MissingArtifact(f"missing {out / rel} — run `{producer}` first")


def run_stage(name: str, cfg: ExperimentConfig, out: Path, **options) -> None:
    """Run stage `name` in the run root `out`: resolve the files it reads and
    refuse missing or stale ones, write its directory's
    `config_resolved.json`, run its body with `options`, and write its
    manifest from the input hashes taken before the body ran."""
    stage = STAGES[name]
    inputs = []
    for pattern in stage.reads:
        found = sorted(out.glob(pattern))
        if not found:
            raise _missing(out, pattern)
        inputs += found
    hashes = {p.relative_to(out).as_posix(): _sha256(p) for p in inputs}
    _check_fresh(out, hashes)
    stage_dir = out / stage.dir
    stage_dir.mkdir(parents=True, exist_ok=True)
    (stage_dir / "config_resolved.json").write_text(cfg.resolved_json())
    stage.body(cfg, out, stage_dir, inputs, **options)
    write_stage_manifest(stage_dir, name, cfg, out, hashes)
