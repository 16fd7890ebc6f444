"""The benchmark's time base: one fixed CPU loop, timed beside every slice.

The host this benchmark runs on is a small shared box whose speed moves
by a third within seconds.  Every measured slice is therefore bracketed
by two calls of :func:`spin`, and its times are multiplied by
``REF_SPIN_S / mean(adjacent spins)``: what the slice would have taken
on a host that runs ``spin`` in exactly ``REF_SPIN_S``.
"""

from __future__ import annotations

import socket
import statistics
import struct
from dataclasses import dataclass, field
from time import process_time
from typing import Sequence

_FRAME = struct.Struct(">6qH")

REF_SPIN_S = 0.018
"""CPU seconds of one :func:`spin` on the reference host.  A constant of
the benchmark: changing it rescales every normalised figure."""

SPIN_BUILDS = 11000
SPIN_ROUND_TRIPS = 7000
"""Iterations of the two halves of the calibration loop; each half takes
about 9 ms on the sizing host."""

_pair: tuple[socket.socket, socket.socket] | None = None


def spin(divisor: int = 1) -> float:
    """Run the calibration loop; the CPU seconds (user + system) it took.

    The loop is fixed and independent of the code under test, but it is
    built like the runtime's request path in miniature: one half builds
    small dicts and packs a struct per iteration, the other pushes a
    frame-sized buffer through a socketpair.  A bare arithmetic loop
    tracked the host only half as well (see ``bench/README.md``): when a
    neighbour takes the cache or the kernel gets slow, arithmetic barely
    notices and the runtime does.

    ``divisor`` > 1 runs that fraction of the loop and scales the reading
    up: the timer-paced workload cannot afford an 18 ms stall.
    """
    global _pair
    if _pair is None:
        _pair = socket.socketpair()
    left, right = _pair
    pack = _FRAME.pack
    payload = b"x" * 91
    t0 = process_time()
    held: dict[int, dict] = {}
    for i in range(SPIN_BUILDS // divisor):
        msg = {"kind": i & 7, "src": i, "dst": i + 1,
               "file": "bench-%04d.dat" % (i & 511)}
        held[i & 127] = msg
        _frame = pack(i, i, i, i, i, i, 12) + msg["file"].encode()
    for _ in range(SPIN_ROUND_TRIPS // divisor):
        left.send(payload)
        right.recv(4096)
    return (process_time() - t0) * divisor


def factor(spins: Sequence[float]) -> float:
    """Multiplier that maps a measured time onto the reference host."""
    return REF_SPIN_S / statistics.fmean(spins)


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Slice:
    """One measured slice and the spins taken beside it."""

    ops: int
    wall_s: float
    cpu_s: float
    spins: tuple[float, ...]
    """The spin before and the spin after a closed-loop slice; every
    short spin inside and at the edges of an open-loop second."""
    latencies: list[float] = field(default_factory=list)
    """Raw send->reply seconds of the operations completed in the slice."""

    @property
    def factor(self) -> float:
        return factor(self.spins)

    def row(self, index: int) -> dict:
        """The slice as one line of ``slices.jsonl`` (raw and normalised)."""
        f = self.factor
        return {
            "slice": index,
            "ops": self.ops,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "spins_s": list(self.spins),
            "factor": f,
            "norm_wall_s": self.wall_s * f,
            "norm_cpu_s": self.cpu_s * f,
            "lat_p50_ms": quantile(self.latencies, 0.5) * 1e3,
        }


def host_speed(spins: Sequence[float]) -> tuple[float, float]:
    """(median, p90/p10) of ``REF_SPIN_S / spin``: how fast the host ran
    relative to the reference, and how much it moved under the run."""
    speeds = [REF_SPIN_S / s for s in spins if s > 0]
    if not speeds:
        return 0.0, 0.0
    low = quantile(speeds, 0.1)
    return statistics.median(speeds), (quantile(speeds, 0.9) / low if low else 0.0)


@dataclass
class WindowStats:
    """Rates, costs and latency quantiles of one measured window."""

    throughput_rps: float
    cpu_us_per_req: float
    raw_throughput_rps: float
    raw_cpu_us_per_req: float
    latencies_s: list[float]
    """Pooled latencies on the window's time base (normalised or wall)."""


def summarise(slices: Sequence[Slice], normalise_times: bool) -> WindowStats:
    """Median-over-slices rates and costs, pooled latencies.

    ``normalise_times=False`` is the wall-clock time base of the
    timer-paced workload: rates and latencies stay as measured, only the
    CPU cost is normalised (it is CPU-bound whatever paces the run).
    """
    live = [s for s in slices if s.ops > 0 and s.wall_s > 0]
    if not live:
        return WindowStats(0.0, 0.0, 0.0, 0.0, [])
    raw_rate = statistics.median(s.ops / s.wall_s for s in live)
    raw_cpu = statistics.median(s.cpu_s / s.ops for s in live) * 1e6
    norm_cpu = statistics.median(s.cpu_s * s.factor / s.ops for s in live) * 1e6
    if normalise_times:
        rate = statistics.median(s.ops / (s.wall_s * s.factor) for s in live)
        pooled = [lat * s.factor for s in live for lat in s.latencies]
    else:
        rate = raw_rate
        pooled = [lat for s in live for lat in s.latencies]
    return WindowStats(rate, norm_cpu, raw_rate, raw_cpu, pooled)
