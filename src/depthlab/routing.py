"""Per-layer execution masks: full execution, early exit, uniform layer skip,
and random layer skip."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np


class PlanKind(Enum):
    FULL = "full"
    EARLY_EXIT = "ee"
    UNIFORM_SKIP = "uls"
    RANDOM_SKIP = "rls"


@dataclass(frozen=True)
class RouteMask:
    """Realized execute/skip bits G^1..G^L for one forward pass."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"mask bits must be 0/1, got {self.bits}")
        if sum(self.bits) < 1:
            raise ValueError("mask must execute at least one layer")


def full_mask(num_layers: int) -> RouteMask:
    return RouteMask(tuple([1] * num_layers))


def ee_mask(num_layers: int, exit_layer: int) -> RouteMask:
    """Early exit: execute layers 1..exit_layer, skip the rest."""
    if not 1 <= exit_layer <= num_layers:
        raise ValueError(f"exit layer {exit_layer} outside [1, {num_layers}]")
    return RouteMask(tuple([1] * exit_layer + [0] * (num_layers - exit_layer)))


def uls_mask(num_layers: int, cost: int) -> RouteMask:
    """Uniform layer skip: layer 1 executes, then layer l executes iff the
    number of layers executed so far is at most (l-1) * cost / num_layers.

    The threshold comparison is done in cross-multiplied integers so exact
    ties resolve identically on every platform.
    """
    if not 1 <= cost <= num_layers:
        raise ValueError(f"cost {cost} outside [1, {num_layers}]")
    bits = [1]
    executed = 1
    for layer in range(2, num_layers + 1):
        # executed <= (layer-1) * cost / num_layers, in integers
        if executed * num_layers <= (layer - 1) * cost:
            bits.append(1)
            executed += 1
        else:
            bits.append(0)
    return RouteMask(tuple(bits))


def rls_mask(
    num_layers: int, cost: int, enforce_first: bool, rng: np.random.Generator
) -> RouteMask:
    """Random layer skip: exactly `cost` layers drawn uniformly, optionally
    forcing layer 1 to execute. Every call draws fresh."""
    if not 1 <= cost <= num_layers:
        raise ValueError(f"cost {cost} outside [1, {num_layers}]")
    bits = [0] * num_layers
    if enforce_first:
        bits[0] = 1
        extra = rng.choice(num_layers - 1, size=cost - 1, replace=False)
        for i in extra:
            bits[int(i) + 1] = 1
    else:
        chosen = rng.choice(num_layers, size=cost, replace=False)
        for i in chosen:
            bits[int(i)] = 1
    return RouteMask(tuple(bits))


@dataclass(frozen=True)
class RoutePlan:
    """A routing strategy at one cost, the number of layers each step
    executes (for early exit, the exit layer), plus what realizing its
    per-step masks needs.

    Deterministic kinds (full / early exit / uniform skip) realize the same
    mask every step; random skip redraws per step from the rng passed to
    `realize` unless `redraw_per_step` is disabled, in which case the first
    drawn mask is reused (batch-style redraw is then the caller's concern).
    """

    kind: PlanKind
    num_layers: int
    cost: int
    enforce_first: bool = True
    redraw_per_step: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.cost <= self.num_layers:
            raise ValueError(f"cost {self.cost} outside [1, {self.num_layers}]")
        if self.kind is PlanKind.FULL and self.cost != self.num_layers:
            raise ValueError("full plan runs at cost L only")

    @staticmethod
    def full(num_layers: int) -> "RoutePlan":
        return RoutePlan(PlanKind.FULL, num_layers, num_layers)

    @staticmethod
    def early_exit(num_layers: int, cost: int) -> "RoutePlan":
        return RoutePlan(PlanKind.EARLY_EXIT, num_layers, cost)

    @staticmethod
    def uniform_skip(num_layers: int, cost: int) -> "RoutePlan":
        return RoutePlan(PlanKind.UNIFORM_SKIP, num_layers, cost)

    @staticmethod
    def random_skip(
        num_layers: int, cost: int, enforce_first: bool = True, redraw_per_step: bool = True
    ) -> "RoutePlan":
        return RoutePlan(PlanKind.RANDOM_SKIP, num_layers, cost, enforce_first, redraw_per_step)

    @staticmethod
    def parse(names: str, num_layers: int) -> list["RoutePlan"]:
        """Strategy templates at full cost from a comma-separated list of
        names, each a template's `label` without its cost: full, ee, uls, rls
        and rls_no1. Empty names are skipped; a repeated name is refused."""
        L = num_layers
        templates = [RoutePlan(kind, L, L) for kind in PlanKind] + [RoutePlan.random_skip(L, L, enforce_first=False)]
        by_name = {t.label().replace(f"_{L}", "", 1): t for t in templates}
        listed = [n for n in (n.strip() for n in names.split(",")) if n]
        for i, name in enumerate(listed):
            if name not in by_name:
                raise ValueError(f"unknown strategy {name!r}")
            if name in listed[:i]:
                raise ValueError(f"repeated strategy {name!r}")
        return [by_name[name] for name in listed]

    def label(self) -> str:
        """`full`, or the kind and cost, e.g. `ee_4`, `uls_4`, `rls_4_no1`."""
        if self.kind is PlanKind.FULL:
            return "full"
        no1 = "_no1" if self.kind is PlanKind.RANDOM_SKIP and not self.enforce_first else ""
        return f"{self.kind.value}_{self.cost}{no1}"

    def with_cost(self, cost: int) -> "RoutePlan":
        return replace(self, cost=cost)

    def realize(self, rng: np.random.Generator | None = None, previous: RouteMask | None = None) -> RouteMask:
        """Produce the mask for one generation step."""
        if self.kind in (PlanKind.FULL, PlanKind.EARLY_EXIT):
            return ee_mask(self.num_layers, self.cost)
        if self.kind is PlanKind.UNIFORM_SKIP:
            return uls_mask(self.num_layers, self.cost)
        if previous is not None and not self.redraw_per_step:
            return previous
        if rng is None:
            raise ValueError("random skip plan needs an rng")
        return rls_mask(self.num_layers, self.cost, self.enforce_first, rng)
