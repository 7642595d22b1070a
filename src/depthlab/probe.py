"""Hidden-state preservation probe: cosine similarity of routed variants
against the full model along a reference trajectory, for the final layer and
the mean over intermediate layers, with confidence intervals."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tokenizer
from .metrics import cosine, mean_ci
from .model import DecoderModel
from .routing import RoutePlan


@dataclass
class SimilarityEntry:
    strategy: str
    cost: int
    final_mean: float
    final_half_width: float
    layerwise_mean: float
    layerwise_half_width: float
    n: int


@dataclass
class SimilarityReport:
    entries: list[SimilarityEntry]

    def entry(self, strategy: str, cost: int) -> SimilarityEntry:
        for e in self.entries:
            if e.strategy == strategy and e.cost == cost:
                return e
        raise KeyError((strategy, cost))


def probe(
    model: DecoderModel,
    prompts: Sequence[Sequence[int]],
    strategies: Sequence[RoutePlan],
    cost_grid: Sequence[int],
    seed: int = 0,
    max_new: int = 32,
    stop_at_eos: bool = True,
) -> SimilarityReport:
    """For every generated token step of the full model's greedy trajectory,
    re-run each routed variant on the same forced tokens (KV fill active) and
    record cosine similarity of the final hidden state plus the mean over
    layers 1..L-1. Aggregates mean and 95% CI over all steps in the corpus.

    Each prompt's reference generation is handed to its replays, which
    follow its trajectory, read its cached prompt states and K/V and compute,
    for the generated positions, only the executed (position, layer) pairs
    and the K/V those attend to. A prompt whose reference takes no step is
    skipped.
    """
    L = model.cfg.num_layers
    plans = [(s_idx, cost, template.with_cost(cost)) for s_idx, template in enumerate(strategies) for cost in cost_grid]
    eos = tokenizer.EOS if stop_at_eos else None

    # Per (strategy, label, cost): one (steps, L+1) similarity array per prompt.
    pooled: dict[tuple[int, str, int], list[np.ndarray]] = {}
    for i, prompt in enumerate(prompts):
        prompt = list(prompt)
        ref = model.generate(prompt, plan=RoutePlan.full(L), max_new=max_new, eos_id=eos)
        p = len(prompt)
        if ref.trace.num_positions == p:
            continue
        ref_states = ref.trace.rows[p:]
        for s_idx, cost, plan in plans:
            rng = np.random.default_rng((seed, s_idx, cost, i))
            var_states, _ = model.replay_tokens(ref, plan, rng)
            pooled.setdefault((s_idx, plan.label(), cost), []).append(cosine(ref_states, var_states[p:]))

    if not pooled:
        raise ValueError("no generated steps to probe (every reference generation was empty)")

    entries = []
    for (_s_idx, label, cost), per_prompt in sorted(pooled.items()):
        sims = np.concatenate(per_prompt)
        if len(sims) < 2:
            raise ValueError(f"strategy {label} at cost {cost} pools {len(sims)} step; its 95% interval needs 2")
        f_mean, f_half = mean_ci(sims[:, L])
        l_mean, l_half = mean_ci(sims[:, 1:L].mean(axis=1))
        entries.append(
            SimilarityEntry(
                strategy=label,
                cost=cost,
                final_mean=f_mean,
                final_half_width=f_half,
                layerwise_mean=l_mean,
                layerwise_half_width=l_half,
                n=len(sims),
            )
        )
    return SimilarityReport(entries=entries)


@dataclass
class RankingRow:
    cost: int
    rank: int
    strategy: str
    final_mean: float


def compare_strategies(report: SimilarityReport) -> list[RankingRow]:
    """Per cost, strategies ordered by final-layer similarity (descending,
    stable on exact ties)."""
    rows: list[RankingRow] = []
    costs = sorted({e.cost for e in report.entries})
    for cost in costs:
        group = [e for e in report.entries if e.cost == cost]
        group.sort(key=lambda e: -e.final_mean)
        for rank, e in enumerate(group, start=1):
            rows.append(RankingRow(cost=cost, rank=rank, strategy=e.strategy, final_mean=e.final_mean))
    return rows


def similarity_to_csv(report: SimilarityReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "cost", "metric", "mean", "ci_low", "ci_high", "n"])
        for e in report.entries:
            for metric, mean, half in (
                ("final", e.final_mean, e.final_half_width),
                ("layerwise", e.layerwise_mean, e.layerwise_half_width),
            ):
                writer.writerow(
                    [e.strategy, e.cost, metric, f"{mean:.6f}", f"{mean - half:.6f}", f"{mean + half:.6f}", e.n]
                )


def ranking_to_csv(rows: Sequence[RankingRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cost", "rank", "strategy", "final_mean"])
        for row in rows:
            writer.writerow([row.cost, row.rank, row.strategy, f"{row.final_mean:.6f}"])
