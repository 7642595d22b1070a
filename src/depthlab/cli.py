"""Command-line entry point: one subcommand per entry of `experiment.STAGES`."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .experiment import STAGES, ExperimentConfig, MissingArtifact, run_stage


@functools.cache  # built once per process; stages called in-process reuse it
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthlab",
        description="Desk-scale experiments in dynamic-depth decoder inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES.values():
        p = sub.add_parser(stage.name, help=stage.help)
        p.add_argument("--config", type=Path, default=None, help="experiment config (INI)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", type=Path, default=Path("runs/desk"), help="run output root")
        if stage.name == "chi2":
            # Every other stage reads its settings from the config alone; the
            # budget tested is in the output's file name.
            p.add_argument("--beta", type=float, default=None, help="budget (defaults to the oracle's assignment budget)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    kwargs = {"beta": args.beta} if args.command == "chi2" else {}
    try:
        run_stage(args.command, ExperimentConfig.load(args.config, seed=args.seed), args.out, **kwargs)
    except (MissingArtifact, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
