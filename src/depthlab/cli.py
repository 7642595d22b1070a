"""Command-line entry point wrapping the experiment stages."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    MissingArtifact,
    stage_chi2,
    stage_gen_corpus,
    stage_generate,
    stage_oracle,
    stage_probe,
    stage_report,
    stage_train,
    stage_train_controllers,
)


# Every stage but chi2 reads its settings from the config alone.
_STAGES = {
    "gen-corpus": (stage_gen_corpus, "generate the synthetic corpus and splits"),
    "train": (stage_train, "fine-tune the backbone"),
    "train-controllers": (stage_train_controllers, "train gate controllers over the alpha grid"),
    "generate": (stage_generate, "produce one prediction set per routing cost"),
    "probe": (stage_probe, "hidden-state similarity probe"),
    "oracle": (stage_oracle, "budget-allocation sweep over prediction sets"),
    "chi2": (
        stage_chi2,
        "label-length homogeneity test of the oracle assignment "
        "(reads oracle/score_matrix.csv: run `oracle` first, also with --beta)",
    ),
    "report": (stage_report, "merge stage outputs into plot-ready tables"),
}


@functools.cache  # built once per process; stages called in-process reuse it
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthlab",
        description="Desk-scale experiments in dynamic-depth decoder inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _STAGES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="experiment config (INI)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", type=Path, default=Path("runs/desk"), help="run output root")
        if name == "chi2":
            # the budget tested is in the output's file name
            p.add_argument("--beta", type=float, default=None, help="budget (defaults to the oracle's assignment budget)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    stage, _ = _STAGES[args.command]
    kwargs = {"beta": args.beta} if args.command == "chi2" else {}
    try:
        stage(ExperimentConfig.load(args.config, seed=args.seed), args.out, **kwargs)
    except (MissingArtifact, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
