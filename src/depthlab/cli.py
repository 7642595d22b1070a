"""Command-line entry point wrapping the experiment stages."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .controller import InputMode
from .experiment import (
    ExperimentConfig,
    MissingArtifact,
    parse_strategies,
    stage_chi2,
    stage_gen_corpus,
    stage_generate,
    stage_oracle,
    stage_probe,
    stage_report,
    stage_train,
    stage_train_controllers,
)


@functools.cache  # built once per process; stages called in-process reuse it
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthlab",
        description="Desk-scale experiments in dynamic-depth decoder inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="experiment config (INI)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", type=Path, default=Path("runs/desk"), help="run output root")

    common(sub.add_parser("gen-corpus", help="generate the synthetic corpus and splits"))
    common(sub.add_parser("train", help="fine-tune the backbone"))

    p = sub.add_parser("train-controllers", help="train gate controllers over the alpha grid")
    common(p)
    p.add_argument("--alpha", type=str, default=None, help="comma-separated alpha values")
    p.add_argument("--input-mode", choices=["hidden", "fixed"], default=None)
    p.add_argument("--freeze-backbone", action="store_true", default=None)

    p = sub.add_parser("generate", help="produce one prediction set per routing cost")
    common(p)
    p.add_argument("--costs", type=str, default=None, help="comma-separated layer budgets")

    p = sub.add_parser("probe", help="hidden-state similarity probe")
    common(p)
    p.add_argument("--strategies", type=str, default=None, help="csv of ee,uls,rls,rls_no1")
    p.add_argument("--costs", type=str, default=None, help="comma-separated cost grid")

    p = sub.add_parser("oracle", help="budget-allocation sweep over prediction sets")
    common(p)
    p.add_argument("--budget-grid", type=str, default=None, help="comma-separated budgets")

    p = sub.add_parser(
        "chi2",
        help="label-length homogeneity test of the oracle assignment "
        "(reads oracle/score_matrix.csv: run `oracle` first, also with --beta)",
    )
    common(p)
    p.add_argument("--beta", type=float, default=None, help="budget (defaults to the oracle's assignment budget)")

    common(sub.add_parser("report", help="merge stage outputs into plot-ready tables"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, seed=args.seed)
        out = args.out
        if args.command == "gen-corpus":
            stage_gen_corpus(cfg, out)
        elif args.command == "train":
            stage_train(cfg, out)
        elif args.command == "train-controllers":
            alphas = [float(a) for a in args.alpha.split(",")] if args.alpha else None
            modes = [InputMode(args.input_mode)] if args.input_mode else None
            stage_train_controllers(cfg, out, alphas=alphas, modes=modes, freeze_backbone=args.freeze_backbone)
        elif args.command == "generate":
            costs = [int(c) for c in args.costs.split(",")] if args.costs else None
            stage_generate(cfg, out, costs=costs)
        elif args.command == "probe":
            costs = [int(c) for c in args.costs.split(",")] if args.costs else None
            strategies = None
            if args.strategies is not None:
                strategies = parse_strategies(args.strategies, cfg.model_config().num_layers)
            stage_probe(cfg, out, strategies=strategies, costs=costs)
        elif args.command == "oracle":
            budgets = [float(b) for b in args.budget_grid.split(",")] if args.budget_grid else None
            stage_oracle(cfg, out, budgets=budgets)
        elif args.command == "chi2":
            stage_chi2(cfg, out, beta=args.beta)
        elif args.command == "report":
            stage_report(cfg, out)
    except MissingArtifact as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
