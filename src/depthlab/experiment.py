"""Reproducibility shell: INI experiment configs, content-hashed manifests,
and the pipeline stages behind each CLI subcommand (corpus generation,
training, controller sweeps, prediction sets, similarity probe, budget
oracle, chi-square test, report merging).

`CONFIG_KEYS` declares each INI key once, with its default text and its
parser. Loading a config parses every value and builds every object the
stages run from once, so a bad value fails before any stage runs, in one
error that names its [section]. `STAGES` declares each stage once: its
subcommand, its run-root directory, the files it reads and its body.
`run_stage` resolves those files from their producers' manifests, refuses
missing and stale ones, runs the body and writes the stage's records."""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path, PurePosixPath
from typing import Callable, Iterator, Sequence, TypeVar

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
from .corpus import CorpusSpec, Example, _split_sizes, gen_corpus, read_jsonl, split_corpus, write_jsonl
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

T = TypeVar("T")


def _bool(text: str) -> bool:
    state = configparser.ConfigParser.BOOLEAN_STATES.get(text.strip().lower())
    if state is None:
        raise ValueError(f"must be true/false, yes/no, on/off or 1/0, got {text!r}")
    return state


def _list(parse: Callable[[str], T], distinct: bool = True) -> Callable[[str], tuple[T, ...]]:
    """A parser of comma-separated values, each parsed by `parse`. It refuses
    a list without a value, and a repeated value when `distinct`."""

    def parse_list(text: str) -> tuple[T, ...]:
        values = tuple(parse(v.strip()) for v in text.split(",") if v.strip())
        if not values:
            raise ValueError("lists no value")
        if distinct and len(set(values)) < len(values):
            raise ValueError(f"repeats a value: {text!r}")
        return values

    return parse_list


def _splits(text: str) -> tuple[float, ...]:
    splits = _list(float, distinct=False)(text)
    if len(splits) != 3:
        raise ValueError(f"must be three fractions, got {text!r}")
    return splits


def _fractions(text: str) -> tuple[float, ...]:
    fractions = _list(float, distinct=False)(text)
    for frac in fractions:
        if not 0 < frac <= 1:
            raise ValueError(f"value {frac:g} is outside (0, 1]")
    return fractions


def _at_least(least: int) -> Callable[[str], int]:
    def parse_int(text: str) -> int:
        if (n := int(text)) < least:
            raise ValueError(f"must be >= {least}")
        return n

    return parse_int


# Every INI key, declared once: section -> key -> (default text, parser).
# `load` parses each value once. The [model], [corpus] and [train] keys are
# the field names of ModelConfig, CorpusSpec and TrainConfig, and so are the
# [controllers] keys that set a TrainConfig field.
CONFIG_KEYS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "run": {"seed": ("0", int)},
    "model": {
        "num_layers": ("8", int),
        "hidden_dim": ("64", int),
        "num_heads": ("4", int),
        "ffn_dim": ("256", int),
        "max_context": ("256", int),
    },
    "corpus": {
        "size": ("700", int),
        "tasks": ("copy,reverse,upper,add", _list(str, distinct=False)),
        "min_words": ("1", int),
        "max_words": ("3", int),
        "alphabet": ("abcdefghij", str),
        "splits": ("0.70,0.15,0.15", _splits),
    },
    "train": {
        "learning_rate": ("1.5e-3", float),
        "batch_size": ("8", int),
        "max_epochs": ("6", int),
        "patience": ("2", int),
        "eval_every": ("0.34", float),
        "layerdrop_prob": ("0.0", float),
        "max_eval_sequences": ("24", int),
        "eval_max_new": ("40", int),
    },
    "controllers": {
        "alpha_grid": ("2,4,6,10", _list(float)),
        "input_modes": ("hidden,fixed", _list(InputMode)),
        "temperature": ("1.0", float),
        "learning_rate": ("1.5e-3", float),
        "controller_learning_rate": ("0.05", float),
        "batch_size": ("8", int),
        "max_epochs": ("2", int),
        "patience": ("1", int),
        "eval_every": ("0.34", float),
        "freeze_backbone": ("false", _bool),
        "exclude_first": ("true", _bool),
        "exclude_last": ("true", _bool),
        # the controller sweep reports a confidence interval over them
        "eval_sequences": ("24", _at_least(2)),
    },
    "routing": {"strategies": ("ee,uls,rls,rls_no1", _list(str)), "cost_grid": ("2,3,4,6,8", _list(int))},
    "generate": {"cost_fractions": ("0.1667,0.3333,0.5,1.0", _fractions), "max_new": ("40", _at_least(1))},
    "probe": {"max_new": ("24", _at_least(1)), "max_sequences": ("32", _at_least(1)), "stop_at_eos": ("true", _bool)},
    "oracle": {
        "budget_grid": ("1,1.5,2,2.5,3,3.5,4,4.5,5,6,7,8", _list(float)),
        "bin_width": ("5", _at_least(1)),
        "num_bins": ("7", _at_least(1)),
    },
}

_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}


class MissingArtifact(FileNotFoundError):
    pass


class StaleArtifact(RuntimeError):
    pass


@contextmanager
def _section(name: str) -> Iterator[None]:
    """Prefix `[name]` to a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"[{name}] {exc}") from exc


class ExperimentConfig:
    """A config's INI texts (`sections`: what the hashes and
    config_resolved.json record), their parsed `values`, and the objects
    built and checked from them when the config loads. The stages read these
    objects and build none again."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        self.sections = sections
        # Every value is parsed here once, so a bad one fails before any stage runs ...
        self.values: dict[str, dict[str, object]] = {}
        for section, keys in CONFIG_KEYS.items():
            self.values[section] = {}
            for key, (_, parse) in keys.items():
                try:
                    self.values[section][key] = parse(sections[section][key])
                except ValueError as exc:
                    raise ValueError(f"[{section}] {key} {exc}") from exc
        # ... and so is each object that checks values across keys.
        self.seed, ctl = self.values["run"]["seed"], self.values["controllers"]
        with _section("model"):
            self.model = ModelConfig(**self.values["model"])
        L = self.model.num_layers
        with _section("corpus"):
            self.corpus = CorpusSpec(**self.values["corpus"])
            test_rows = _split_sizes(self.corpus.size, self.corpus.splits)[2]
            if test_rows < 2:  # train-controllers reports a 95% interval over the test generations
                raise ValueError(f"size {self.corpus.size} leaves {test_rows} test row; the sweep's interval needs 2")
        with _section("train"):
            self.train = TrainConfig(seed=self.seed, **self.values["train"])
        with _section("controllers"):
            self.controller_train = TrainConfig(
                seed=self.seed,
                max_eval_sequences=ctl["eval_sequences"],
                eval_max_new=self.values["generate"]["max_new"],
                **{key: value for key, value in ctl.items() if key in _TRAIN_FIELDS},
            )
            self.gumbel = GumbelConfig(temperature=ctl["temperature"])
            self.controlled_layers = controlled_layers(self.model, ctl["exclude_first"], ctl["exclude_last"])
            if not self.controlled_layers:  # a sweep would train banks with no gate
                text = self.sections["controllers"]
                raise ValueError(
                    f"exclude_first = {text['exclude_first']} and exclude_last = {text['exclude_last']}"
                    f" leave no controlled layer of num_layers = {L}"
                )
        with _section("routing"):
            self.strategies = RoutePlan.parse(",".join(self.values["routing"]["strategies"]), L)
            self.cost_grid = list(self.values["routing"]["cost_grid"])
            if not all(1 <= c <= L for c in self.cost_grid):
                raise ValueError(f"cost_grid {self.cost_grid} has a cost outside 1..{L}")
        # The [generate] cost fractions of L, each rounded and at least 1.
        self.generate_costs = sorted({max(1, round(frac * L)) for frac in self.values["generate"]["cost_fractions"]})

    @staticmethod
    def load(path: str | Path | None, seed: int | None = None) -> "ExperimentConfig":
        sections = {name: {key: default for key, (default, _) in keys.items()} for name, keys in CONFIG_KEYS.items()}
        if path is not None:
            path = Path(path)
            if not path.exists():
                raise MissingArtifact(f"config file not found: {path}")
            parser = configparser.ConfigParser()
            try:
                parser.read(str(path))
                given = {section: parser.items(section) for section in parser.sections()}
            except configparser.Error as exc:
                raise ValueError(f"malformed config {path}: {' '.join(str(exc).split())}") from exc
            for section, items in given.items():
                if section not in sections:
                    raise ValueError(f"unknown config section [{section}]")
                for key, value in items:
                    if key not in sections[section]:
                        raise ValueError(f"unknown config key {key!r} in [{section}]")
                    sections[section][key] = value
        if seed is not None:
            sections["run"]["seed"] = str(seed)
        return ExperimentConfig(sections)

    def getint(self, section: str, key: str) -> int:
        return int(self.values[section][key])

    def getfloat(self, section: str, key: str) -> float:
        return float(self.values[section][key])

    def budget_grid(self) -> list[float]:
        return list(self.values["oracle"]["budget_grid"])

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


def _mtimes(stage_dir: Path) -> dict[Path, int]:
    return {p: p.stat().st_mtime_ns for p in stage_dir.rglob("*") if p.is_file()}


def write_stage_manifest(
    stage_dir: Path,
    stage: str,
    cfg: ExperimentConfig,
    out_root: Path,
    inputs: dict[str, str],
    before: dict[Path, int],
) -> None:
    """Write the stage's records once its body has run: the resolved config,
    `config_resolved.json`, and the manifest. The manifest holds the hashes
    of what the stage read (`inputs`, path -> sha256) and of every file this
    run wrote but the manifest: the files that are not in `before`, the
    directory's modification times taken before the stage ran, or whose time
    has changed since. Files an earlier run left are not listed. Paths are
    relative to the run root so reruns in different roots stay
    byte-identical."""
    (stage_dir / "config_resolved.json").write_text(cfg.resolved_json())
    own = stage_dir / "manifest.json"
    outputs = sorted(p for p, t in _mtimes(stage_dir).items() if p != own and before.get(p) != t)
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
    directory has no manifest is not checked."""
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
            if producer is not None and producer["outputs"].get(rel) != digest:
                what = f"`{reader}` read a {rel} other than" if reader else f"{rel} differs from"
                raise StaleArtifact(
                    f"{what} the one `{producer['stage']}` last wrote — rerun `{reader or producer['stage']}`"
                )


# ---------------------------------------------------------------------------
# Stage bodies: each writes into `stage`, the stage's directory, and reads
# the files its table entry declares (`inputs`, resolved under the run root).
# ---------------------------------------------------------------------------


def _gen_corpus(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    examples = gen_corpus(cfg.corpus, cfg.seed)
    train, val, test = split_corpus(examples, cfg.corpus.splits)
    write_jsonl(examples, stage / "corpus.jsonl")
    write_jsonl(train, stage / "train.jsonl")
    write_jsonl(val, stage / "val.jsonl")
    write_jsonl(test, stage / "test.jsonl")


def _load_split(out: Path, name: str) -> list[Example]:
    return read_jsonl(out / "corpus" / f"{name}.jsonl")


def _train(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    model = DecoderModel(cfg.model, init_params(cfg.model, seed=cfg.seed))
    result = finetune(model, _load_split(out, "train"), _load_split(out, "val"), cfg.train)
    save_checkpoint(
        stage / "backbone",
        cfg.model,
        model.params,
        extra={"config_hash": cfg.config_hash(), "seed": cfg.seed, "best_rouge_l": result.best_metric},
    )
    write_log_csv(result.log, stage / "train_log.csv")


def _load_backbone(cfg: ExperimentConfig, out: Path) -> DecoderModel:
    """The backbone `train` wrote, refused when its model is not [model]'s."""
    model_cfg, params, _ = load_checkpoint(out / "checkpoints" / "backbone")
    if model_cfg != cfg.model:
        names = [f.name for f in fields(ModelConfig) if getattr(model_cfg, f.name) != getattr(cfg.model, f.name)]
        ours, theirs = (", ".join(f"{n} = {getattr(c, n)}" for n in names) for c in (cfg.model, model_cfg))
        raise StaleArtifact(f"[model] has {ours}, the backbone `train` wrote has {theirs} — rerun `train`")
    backbone, _ = split_controller_params(params)
    return DecoderModel(cfg.model, backbone)


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
    tcfg, layers, ctl = cfg.controller_train, cfg.controlled_layers, cfg.values["controllers"]

    summary_rows = [["input_mode", "alpha", "mean_cost", "rouge_l", "rouge_ci_low", "rouge_ci_high", "n", "empty"]]
    ratio_rows = [["input_mode", "alpha", "layer", "skip_fraction"]]
    for mode_idx, mode in enumerate(ctl["input_modes"]):
        for alpha in ctl["alpha_grid"]:
            model = _load_backbone(cfg, out)
            bank = ControllerBank(
                cfg.model,
                init_controller_params(cfg.model, layers, seed=cfg.seed + 1000 * mode_idx + int(alpha)),
                input_mode=mode,
                gumbel=cfg.gumbel,
            )
            result = train_controllers(model, bank, train_examples, val_examples, tcfg, alpha)
            run_dir = stage / f"{mode.value}_a{alpha:g}"
            save_checkpoint(
                run_dir / "checkpoint",
                cfg.model,
                {**model.params, **bank.params},
                extra={
                    "config_hash": cfg.config_hash(),
                    "seed": cfg.seed,
                    "alpha": alpha,
                    "input_mode": mode.value,
                    "temperature": cfg.gumbel.temperature,
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
    model = _load_backbone(cfg, out)
    test_examples = _load_split(out, "test")
    max_new = cfg.values["generate"]["max_new"]
    for cost in cfg.generate_costs:
        plan = RoutePlan.uniform_skip(model.cfg.num_layers, cost)
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
                    "rouge_l": round(rouge_l_text(text, ex.label), 6),
                }
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")


def _probe(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    model = _load_backbone(cfg, out)
    test_examples = _load_split(out, "test")
    settings = cfg.values["probe"]
    prompts = [tokenizer.encode(ex.prompt, add_bos=True) for ex in test_examples[: settings["max_sequences"]]]
    report = probe(
        model,
        prompts,
        cfg.strategies,
        cfg.cost_grid,
        seed=cfg.seed,
        max_new=settings["max_new"],
        stop_at_eos=settings["stop_at_eos"],
    )
    similarity_to_csv(report, stage / "similarity.csv")
    ranking_to_csv(compare_strategies(report), stage / "ranking.csv")


def _oracle(cfg: ExperimentConfig, out: Path, stage: Path, inputs: list[Path]) -> None:
    matrix = score_matrix_from_prediction_sets(inputs)
    grid, cheapest = cfg.budget_grid(), min(matrix.costs)
    budgets = [b for b in grid if b >= cheapest]
    if not budgets:
        raise ValueError(f"[oracle] budget_grid {grid} lies below the cheapest prediction set's cost {cheapest}")
    if len(budgets) < len(grid):
        dropped = ", ".join(f"{b:g}" for b in grid if b < cheapest)
        print(f"warning: oracle: dropped [oracle] budget_grid {dropped}: below the cheapest prediction set's cost "
              f"{cheapest}", file=sys.stderr)
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
    settings = cfg.values["oracle"]
    result = chi_square_homogeneity(
        assignment, matrix.label_lengths, bin_width=settings["bin_width"], num_bins=settings["num_bins"]
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
    refuse missing or stale ones, run its body with `options`, and write its
    records from the input hashes and the directory's modification times
    taken before the body ran. A body that raises leaves no records."""
    stage = STAGES[name]
    inputs = []
    for pattern in stage.reads:
        # Files a producer's manifest lists, so a file an earlier run left is
        # not read; without a manifest (hand-written inputs), those on disk.
        manifest = _read_manifest(out, pattern.split("/", 1)[0])
        if manifest is None:
            found = sorted(out.glob(pattern))
        else:
            found = sorted(out / rel for rel in manifest["outputs"] if PurePosixPath(rel).match(pattern))
        if not found or not all(p.is_file() for p in found):
            raise _missing(out, pattern)
        inputs += found
    hashes = {p.relative_to(out).as_posix(): _sha256(p) for p in inputs}
    _check_fresh(out, hashes)
    stage_dir = out / stage.dir
    stage_dir.mkdir(parents=True, exist_ok=True)
    before = _mtimes(stage_dir)
    stage.body(cfg, out, stage_dir, inputs, **options)
    write_stage_manifest(stage_dir, name, cfg, out, hashes, before)
