"""Load monitoring: sliding-window request rates and overload detection.

The paper's overload criterion is a plain threshold — "if a node
receives more than [capacity] requests per second, it is overloaded".
The DES measures rates over a sliding window; per-file and per-source
breakdowns feed replica placement (hottest file) and the log-based
baseline (which child forwards most).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

__all__ = ["WindowedRate", "LoadMonitor"]


class WindowedRate:
    """Events-per-second over a trailing window."""

    __slots__ = ("window", "_times", "total")

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._times: deque[float] = deque()
        self.total = 0

    def record(self, now: float) -> None:
        """Record one event at time ``now`` (non-decreasing).

        Events that have left the window are dropped here as well as on
        read: a window nobody reads (the per-file and per-source splits
        of a node that never overloads) would otherwise keep every
        sample for the life of the process.  One head test per event,
        each event popped once: amortised O(1).  The new event is
        appended first, and it is inside its own window, so the loop
        stops at it at the latest.
        """
        times = self._times
        if times and now < times[-1]:
            raise ValueError(f"events must be recorded in order ({now})")
        times.append(now)
        cutoff = now - self.window
        while times[0] <= cutoff:
            times.popleft()
        self.total += 1

    def rate(self, now: float) -> float:
        """Events per second over the window ending at ``now``."""
        self._expire(now)
        return len(self._times) / self.window

    def count(self, now: float) -> int:
        """Raw event count still inside the window."""
        self._expire(now)
        return len(self._times)

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        times = self._times
        while times and times[0] <= cutoff:
            times.popleft()


@dataclass
class _FileLoad:
    served: WindowedRate
    by_source: dict[int, WindowedRate]


class LoadMonitor:
    """Per-node request accounting.

    Tracks, per file: the rate of requests this node *served* (returned
    the file for), and the rate broken down by the immediate overlay
    source that forwarded them (``-1`` = arrived directly from a
    client).  The per-source split is exactly the information a
    client-access log would contain — only the log-based baseline is
    allowed to look at it.
    """

    def __init__(self, capacity: float = 100.0, window: float = 1.0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.window = window
        self._loads: dict[str, _FileLoad] = {}
        self._total = WindowedRate(window)
        # file → (rate, t0): synthetic load attributed from a crashed
        # holder, decaying linearly to zero over one window.
        self._inherited: dict[str, tuple[float, float]] = {}

    def _load(self, file: str) -> _FileLoad:
        entry = self._loads.get(file)
        if entry is None:
            entry = _FileLoad(WindowedRate(self.window), defaultdict(lambda: WindowedRate(self.window)))
            self._loads[file] = entry
        return entry

    def record_served(self, file: str, source: int, now: float) -> None:
        """This node returned ``file`` for a request forwarded by ``source``."""
        entry = self._load(file)
        entry.served.record(now)
        entry.by_source[source].record(now)
        self._total.record(now)

    def inherit(self, file: str, rate: float, now: float) -> None:
        """Attribute load a crashed holder of ``file`` was carrying.

        The heir has no samples for demand that used to land on the
        dead node, yet that demand is about to arrive — without this,
        the overload triggers stay blind for a full window after a
        crash.  Seed the monitor with the victim's last observed rate,
        decayed linearly over one window so real samples take over as
        they arrive.  Inherited load is synthetic: it feeds the
        overload views (:meth:`total_rate` / :meth:`file_rate` /
        :meth:`hottest_file`) but never :meth:`source_rates` — the
        access log only ever contains requests this node actually
        served.
        """
        if rate <= 0.0:
            return
        self._inherited[file] = (self._inherited_rate(file, now) + rate, now)

    def _inherited_rate(self, file: str, now: float) -> float:
        entry = self._inherited.get(file)
        if entry is None:
            return 0.0
        rate, t0 = entry
        remaining = rate * (1.0 - (now - t0) / self.window)
        if remaining <= 0.0:
            del self._inherited[file]
            return 0.0
        return min(remaining, rate)

    def total_rate(self, now: float) -> float:
        """Requests served per second, all files (plus inherited load)."""
        inherited = sum(self._inherited_rate(f, now) for f in list(self._inherited))
        return self._total.rate(now) + inherited

    def file_rate(self, file: str, now: float) -> float:
        entry = self._loads.get(file)
        served = entry.served.rate(now) if entry else 0.0
        return served + self._inherited_rate(file, now)

    def is_overloaded(self, now: float) -> bool:
        return self.total_rate(now) > self.capacity

    def hottest_file(self, now: float) -> str | None:
        """The file contributing the most load (served + inherited) right now."""
        best, best_rate = None, 0.0
        for name in sorted(set(self._loads) | set(self._inherited)):
            rate = self.file_rate(name, now)
            if rate > best_rate:
                best, best_rate = name, rate
        return best

    def source_rates(self, file: str, now: float) -> dict[int, float]:
        """Per-forwarder service rates for ``file`` (the 'access log')."""
        entry = self._loads.get(file)
        if entry is None:
            return {}
        return {
            src: wr.rate(now)
            for src, wr in sorted(entry.by_source.items())
            if wr.rate(now) > 0.0
        }

    def reset(self) -> None:
        self._loads.clear()
        self._inherited.clear()
        self._total = WindowedRate(self.window)
