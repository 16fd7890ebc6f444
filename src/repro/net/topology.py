"""Latency models for the simulated overlay network.

The paper's evaluation abstracts the underlay away, but a transport
needs *some* delay model to order events realistically.  Three are
provided; all are deterministic given their RNG stream.
"""

from __future__ import annotations

import random
from typing import Protocol, runtime_checkable

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "CoordinateLatency",
]


@runtime_checkable
class LatencyModel(Protocol):
    """Maps a (src, dst) PID pair to a one-way delay in seconds."""

    def delay(self, src: int, dst: int) -> float: ...


class ConstantLatency:
    """Every hop costs the same fixed delay."""

    def __init__(self, seconds: float = 0.01) -> None:
        if seconds < 0:
            raise ValueError(f"latency must be non-negative, got {seconds}")
        self.seconds = seconds

    def delay(self, src: int, dst: int) -> float:
        return 0.0 if src == dst else self.seconds


class UniformLatency:
    """Delay drawn uniformly from [low, high) per message (jitter)."""

    def __init__(self, low: float, high: float, rng: random.Random | None = None) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high})")
        self.low = low
        self.high = high
        self._rng = rng if rng is not None else random.Random(0)

    def delay(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return self._rng.uniform(self.low, self.high)


class CoordinateLatency:
    """Nodes are points on a unit torus; delay ∝ distance + base cost.

    A cheap stand-in for geographic placement: deterministic pairwise
    delays that satisfy symmetry and (approximate) triangle inequality,
    useful for the locality workload where region structure matters.
    """

    def __init__(
        self,
        n: int,
        base: float = 0.002,
        scale: float = 0.05,
        seed: int = 0,
    ) -> None:
        if n <= 0:
            raise ValueError(f"need a positive node count, got {n}")
        if base < 0 or scale < 0:
            raise ValueError("base and scale must be non-negative")
        import numpy as np

        rng = np.random.default_rng(seed)
        self._coords = rng.random((n, 2))
        # Bound once so ``delay`` (called per message) imports nothing.
        self._minimum, self._hypot = np.minimum, np.hypot
        self.base = base
        self.scale = scale
        self.n = n

    def delay(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        if not (0 <= src < self.n and 0 <= dst < self.n):
            raise ValueError(f"PID out of range for {self.n}-point topology")
        diff = abs(self._coords[src] - self._coords[dst])
        torus = self._minimum(diff, 1.0 - diff)
        return self.base + self.scale * float(self._hypot(*torus))
