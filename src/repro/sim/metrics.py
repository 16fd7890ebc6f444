"""Lightweight metrics: counters, gauges, histograms, time series.

A :class:`MetricsRegistry` is threaded through the simulation layers so
experiments can interrogate anything after a run without the hot paths
paying for string formatting.  All containers are plain Python with
NumPy only at summary time.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "TimeSeries", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase (amount={amount})")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A value that can move both ways."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class Histogram:
    """Sample accumulator with quantile/summary support.

    Stores raw samples (the simulations here produce at most ~10^6);
    summaries are computed lazily with NumPy.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        self._samples.append(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return float("nan")
        import numpy as np

        return float(np.mean(self._samples))

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return float("nan")
        import numpy as np

        return float(np.quantile(self._samples, q))

    def max(self) -> float:
        return max(self._samples) if self._samples else float("nan")

    def min(self) -> float:
        return min(self._samples) if self._samples else float("nan")

    def summary(self) -> dict[str, float]:
        """count/mean/p50/p95/p99/max in one dict."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.quantile(0.5) if self._samples else float("nan"),
            "p95": self.quantile(0.95) if self._samples else float("nan"),
            "p99": self.quantile(0.99) if self._samples else float("nan"),
            "max": self.max(),
        }

    def __repr__(self) -> str:
        return f"Histogram(n={self.count})"


@dataclass
class TimeSeries:
    """(time, value) samples, e.g. replica count over simulated time."""

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series must be recorded in order ({time} < {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> float:
        if not self.values:
            raise ValueError("empty time series")
        return self.values[-1]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        return np.asarray(self.times), np.asarray(self.values)

    def value_at(self, time: float) -> float:
        """Step-function evaluation: last value recorded at or before t."""
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            raise ValueError(f"no sample at or before t={time}")
        return self.values[idx]


class MetricsRegistry:
    """Namespace of metrics, auto-creating on first access."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = defaultdict(Counter)
        self._gauges: dict[str, Gauge] = defaultdict(Gauge)
        self._histograms: dict[str, Histogram] = defaultdict(Histogram)
        self._series: dict[str, TimeSeries] = defaultdict(TimeSeries)

    def counter(self, name: str) -> Counter:
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        return self._histograms[name]

    def series(self, name: str) -> TimeSeries:
        return self._series[name]

    def names(self) -> dict[str, list[str]]:
        """All registered metric names grouped by kind."""
        return {
            "counters": sorted(self._counters),
            "gauges": sorted(self._gauges),
            "histograms": sorted(self._histograms),
            "series": sorted(self._series),
        }

    def snapshot(self) -> dict[str, float]:
        """Flat dict of counter and gauge values (histogram means too)."""
        out: dict[str, float] = {}
        for name, c in self._counters.items():
            out[f"counter:{name}"] = float(c.value)
        for name, g in self._gauges.items():
            out[f"gauge:{name}"] = float(g.value)
        for name, h in self._histograms.items():
            out[f"histogram:{name}:mean"] = h.mean()
        return out
