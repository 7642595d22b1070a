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
    """
    L = model.cfg.num_layers
    for cost in cost_grid:
        if not 1 <= cost <= L:
            raise ValueError(f"cost {cost} outside [1, {L}]")
    eos = tokenizer.EOS if stop_at_eos else None

    # Duplicate strategy entries stay distinct (they simply score identically).
    pooled: dict[tuple[int, str, int], tuple[list[float], list[float]]] = {}
    for i, prompt in enumerate(prompts):
        prompt = list(prompt)
        ref = model.generate(prompt, plan=RoutePlan.full(L), max_new=max_new, eos_id=eos)
        p = len(prompt)
        n_steps = ref.trace.num_positions - p
        if n_steps <= 0:
            continue
        forced = prompt + ref.generated_ids[:n_steps]
        for s_idx, template in enumerate(strategies):
            for cost in cost_grid:
                plan = template.with_cost(cost)
                rng = np.random.default_rng((seed, s_idx, cost, i))
                var_states, _ = model.replay_tokens(forced, p, plan, rng)
                finals, layerwise = pooled.setdefault((s_idx, plan.label(), cost), ([], []))
                for t in range(p, len(forced)):
                    finals.append(cosine(ref.trace.h(t, L), var_states[t, L]))
                    sims = [cosine(ref.trace.h(t, l), var_states[t, l]) for l in range(1, L)]
                    layerwise.append(float(np.mean(sims)))

    if not pooled:
        raise ValueError("no generated steps to probe (every reference generation was empty)")

    entries = []
    for (_s_idx, label, cost), (finals, layerwise) in sorted(pooled.items()):
        f_mean, f_half = mean_ci(finals)
        l_mean, l_half = mean_ci(layerwise)
        entries.append(
            SimilarityEntry(
                strategy=label,
                cost=cost,
                final_mean=f_mean,
                final_half_width=f_half,
                layerwise_mean=l_mean,
                layerwise_half_width=l_half,
                n=len(finals),
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
