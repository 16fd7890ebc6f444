"""Load monitoring: sliding-window request rates and overload detection.

The paper's overload criterion is a plain threshold — "if a node
receives more than [capacity] requests per second, it is overloaded".
Rates are measured over a sliding window.  :class:`ServedLoad` keeps
the node total and the per-file rates (the hottest file is the one to
replicate); it is all the live node keeps.  :class:`LoadMonitor` adds
the per-forwarder split and the capacity test, for the DES and the
log-based baseline (which child forwards most).
"""

from __future__ import annotations

from collections import deque

__all__ = ["WindowedRate", "ServedLoad", "LoadMonitor"]


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


class ServedLoad:
    """Served requests per file and in total: what the §2.2 trigger reads.

    A live node needs no more than this to decide it is overloaded
    (the total against its capacity) and which file to replicate (the
    hottest).  It records no forwarder: the placement decision that
    follows reads the tree shape, not an access log.
    """

    def __init__(self, window: float = 1.0) -> None:
        self.window = window
        self._total = WindowedRate(window)
        self._files: dict[str, WindowedRate] = {}

    def record(self, file: str, now: float) -> None:
        """This node returned ``file`` at ``now``."""
        rate = self._files.get(file)
        if rate is None:
            rate = self._files[file] = WindowedRate(self.window)
        rate.record(now)
        self._total.record(now)

    def total_rate(self, now: float) -> float:
        """Requests served per second, all files."""
        return self._total.rate(now)

    def file_rate(self, file: str, now: float) -> float:
        rate = self._files.get(file)
        return rate.rate(now) if rate is not None else 0.0

    def hottest_file(self, now: float) -> str | None:
        """The file contributing the most load right now."""
        best, best_rate = None, 0.0
        for name in sorted(self._files):
            rate = self._files[name].rate(now)
            if rate > best_rate:
                best, best_rate = name, rate
        return best


class LoadMonitor(ServedLoad):
    """Served-request rates plus the per-forwarder split and a capacity.

    On top of :class:`ServedLoad`, tracks per file the served rate
    broken down by the immediate overlay source that forwarded the
    requests (``-1`` = arrived directly from a client).  The per-source
    split is exactly the information a client-access log would
    contain — only the log-based baseline is allowed to look at it.
    """

    def __init__(self, capacity: float = 100.0, window: float = 1.0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        super().__init__(window)
        self.capacity = capacity
        self._sources: dict[str, dict[int, WindowedRate]] = {}

    def record_served(self, file: str, source: int, now: float) -> None:
        """This node returned ``file`` for a request forwarded by ``source``."""
        self.record(file, now)
        by_source = self._sources.setdefault(file, {})
        rate = by_source.get(source)
        if rate is None:
            rate = by_source[source] = WindowedRate(self.window)
        rate.record(now)

    def is_overloaded(self, now: float) -> bool:
        return self.total_rate(now) > self.capacity

    def source_rates(self, file: str, now: float) -> dict[int, float]:
        """Per-forwarder service rates for ``file`` (the 'access log')."""
        by_source = self._sources.get(file, {})
        return {
            src: wr.rate(now)
            for src, wr in sorted(by_source.items())
            if wr.rate(now) > 0.0
        }

    def reset(self) -> None:
        self._files.clear()
        self._sources.clear()
        self._total = WindowedRate(self.window)
