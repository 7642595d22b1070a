"""Per-layer execution masks: full execution, early exit, uniform layer skip,
and random layer skip."""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def cost(self) -> int:
        return sum(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


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
    """A routing strategy plus the parameters needed to realize per-step masks.

    Deterministic kinds (full / early exit / uniform skip) realize the same
    mask every step; random skip redraws per step from the rng passed to
    `realize` unless `redraw_per_step` is disabled, in which case the first
    drawn mask is reused (batch-style redraw is then the caller's concern).
    """

    kind: PlanKind
    num_layers: int
    cost: int | None = None
    exit_layer: int | None = None
    enforce_first: bool = True
    redraw_per_step: bool = True

    def __post_init__(self) -> None:
        if self.kind is PlanKind.EARLY_EXIT and self.exit_layer is None:
            raise ValueError("early exit plan needs exit_layer")
        if self.kind in (PlanKind.UNIFORM_SKIP, PlanKind.RANDOM_SKIP) and self.cost is None:
            raise ValueError(f"{self.kind.value} plan needs cost")

    @staticmethod
    def full(num_layers: int) -> "RoutePlan":
        return RoutePlan(PlanKind.FULL, num_layers)

    @staticmethod
    def early_exit(num_layers: int, exit_layer: int) -> "RoutePlan":
        return RoutePlan(PlanKind.EARLY_EXIT, num_layers, exit_layer=exit_layer)

    @staticmethod
    def uniform_skip(num_layers: int, cost: int) -> "RoutePlan":
        return RoutePlan(PlanKind.UNIFORM_SKIP, num_layers, cost=cost)

    @staticmethod
    def random_skip(
        num_layers: int, cost: int, enforce_first: bool = True, redraw_per_step: bool = True
    ) -> "RoutePlan":
        return RoutePlan(
            PlanKind.RANDOM_SKIP,
            num_layers,
            cost=cost,
            enforce_first=enforce_first,
            redraw_per_step=redraw_per_step,
        )

    def label(self) -> str:
        if self.kind is PlanKind.FULL:
            return "full"
        if self.kind is PlanKind.EARLY_EXIT:
            return f"ee_{self.exit_layer}"
        if self.kind is PlanKind.UNIFORM_SKIP:
            return f"uls_{self.cost}"
        suffix = "" if self.enforce_first else "_no1"
        return f"rls_{self.cost}{suffix}"

    def with_cost(self, cost: int) -> "RoutePlan":
        if self.kind is PlanKind.FULL:
            if cost != self.num_layers:
                raise ValueError("full plan runs at cost L only")
            return self
        if self.kind is PlanKind.EARLY_EXIT:
            return RoutePlan(self.kind, self.num_layers, exit_layer=cost)
        return RoutePlan(
            self.kind,
            self.num_layers,
            cost=cost,
            enforce_first=self.enforce_first,
            redraw_per_step=self.redraw_per_step,
        )

    def realize(self, rng: np.random.Generator | None = None, previous: RouteMask | None = None) -> RouteMask:
        """Produce the mask for one generation step."""
        if self.kind is PlanKind.FULL:
            return full_mask(self.num_layers)
        if self.kind is PlanKind.EARLY_EXIT:
            assert self.exit_layer is not None
            return ee_mask(self.num_layers, self.exit_layer)
        assert self.cost is not None
        if self.kind is PlanKind.UNIFORM_SKIP:
            return uls_mask(self.num_layers, self.cost)
        if previous is not None and not self.redraw_per_step:
            return previous
        if rng is None:
            raise ValueError("random skip plan needs an rng")
        return rls_mask(self.num_layers, self.cost, self.enforce_first, rng)
