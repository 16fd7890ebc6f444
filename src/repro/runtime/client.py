"""Async client and load generator for the live runtime.

:class:`RuntimeClient` speaks the wire protocol to one entry node:
requests go out as frames, the connection's ``data_received`` resolves
per-``request_id`` futures as replies land, and every call carries an
asyncio deadline
(the live dual of the DES request-reliability layer's per-attempt
timeout — here a timed-out request simply reports ``timed_out``).

:class:`LoadGenerator` drives a whole cluster with a seeded workload:

* file popularity is ``uniform``, ``zipf`` (rank ** -s), or
  ``locality`` (a hot fraction absorbing a fixed share) — the same
  three shapes as ``repro.workloads``;
* entry nodes are drawn uniformly over the live set, one persistent
  client per node;
* **open-loop** mode fires at a target RPS on a fixed tick regardless
  of completions (the paper's requests-per-second axis); **closed-loop**
  mode keeps a fixed number of outstanding requests.

Every completed request records its latency; the report carries p50 /
p99 latency, achieved RPS, outcome counts, and the per-node served
counts read back from the cluster.
"""

from __future__ import annotations

import asyncio
import random
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any

from ..core.errors import ConfigurationError
from ..net.message import Message, MessageKind, fast_message
from .node import CLIENT
from .wire import FrameConnection

_TIMEOUT_SWEEP = 0.25
"""Deadline-sweep period: one repeating timer per client expires every
overdue request, instead of a timer handle per request.  A timeout may
fire up to one sweep period late — noise against the multi-second
request timeouts, and thousands of heap pushes per second cheaper."""

_LOST = object()
"""What a pending reply future resolves with when its connection drops
(a timeout resolves it with ``None``): the ``lost`` terminal."""

__all__ = [
    "ClientError",
    "RequestOutcome",
    "RuntimeClient",
    "WorkloadShape",
    "LatencyHistogram",
    "LoadReport",
    "LoadGenerator",
    "percentile",
]


class ClientError(Exception):
    """The cluster answered with an ERROR frame."""


@dataclass(frozen=True)
class RequestOutcome:
    """Terminal state of one client request."""

    ok: bool
    kind: str  # reply | fault | error | timeout | lost | overload
    payload: Any = None
    version: int = 0
    server: int = -1
    latency: float = 0.0


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 if empty."""
    if not samples:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class RuntimeClient:
    """One wire connection into the overlay via a fixed entry node."""

    def __init__(self, cluster, pid: int) -> None:
        self.cluster = cluster
        self.pid = pid
        self._conn: FrameConnection | None = None
        self._futures: dict[int, asyncio.Future] = {}
        self._deadlines: dict[int, float] = {}
        self._sweep_timer: asyncio.TimerHandle | None = None
        self._closed = False

    async def connect(self) -> "RuntimeClient":
        self._conn = await self.cluster.open_connection(
            self.pid,
            lambda: FrameConnection(self._on_frames, self._on_lost),
        )
        return self

    def _on_frames(self, _conn: FrameConnection, frames: list, _errors: int) -> None:
        for msg in frames:
            self._deadlines.pop(msg.request_id, None)
            future = self._futures.pop(msg.request_id, None)
            if future is not None and not future.done():
                future.set_result(msg)

    def _on_lost(self, _conn: FrameConnection) -> None:
        if not self._closed:
            self._fail_pending()

    @property
    def connection_lost(self) -> bool:
        """The server end dropped this connection (the entry died).

        A lost client is a husk: its writes land in a dead transport,
        so callers holding one — a load generator whose entry died and
        later *rejoined* — must redial instead of reusing it.  Reusing
        it is worse than a lost request: the send is counted against
        the (live again) entry but the frame never arrives, so the
        cluster's in-flight ledger sticks above zero and ``drain()``
        blocks until its timeout.
        """
        conn = self._conn
        return conn is not None and conn.closed and not self._closed

    @property
    def writable(self) -> bool:
        """Connected and below the write high-water mark: a request
        pipelines without waiting for the transport to drain."""
        conn = self._conn
        return conn is not None and not conn.closed and not conn.paused

    def _fail_pending(self) -> None:
        """The connection dropped: resolve every in-flight request *now*.

        The failed send is the liveness protocol (FINDLIVENODE): a
        closed connection reveals the peer's death immediately, so
        pending requests must not sit out their full timeout before
        the caller learns.  Each future resolves with ``_LOST``, not
        the ``None`` of a timeout: the request is a churn loss whatever
        the caller's membership view says, since that view can lag the
        reset.
        """
        self._deadlines.clear()
        futures, self._futures = self._futures, {}
        for future in futures.values():
            if not future.done():
                future.set_result(_LOST)

    def _sweep_deadlines(self) -> None:
        """Resolve every overdue request as a timeout; reschedule."""
        self._sweep_timer = None
        if self._closed:
            return
        loop = asyncio.get_running_loop()
        now = loop.time()
        overdue = [
            rid for rid, deadline in self._deadlines.items() if deadline <= now
        ]
        for rid in overdue:
            del self._deadlines[rid]
            future = self._futures.pop(rid, None)
            if future is not None and not future.done():
                future.set_result(None)
        if self._deadlines:
            self._sweep_timer = loop.call_later(
                _TIMEOUT_SWEEP, self._sweep_deadlines
            )

    def request_future(self, msg: Message, timeout: float) -> asyncio.Future:
        """Register and transmit one request without a coroutine.

        The synchronous fast path: encodes the request and writes it
        before returning (write-through; a paused connection keeps it
        in the encoder until the transport drains), arms the shared
        deadline sweep, and returns the reply future — resolved with
        the reply :class:`Message`, ``None`` on timeout, or ``_LOST``
        when the connection drops first.  No write
        backpressure is applied here; callers that may queue faster
        than the transport drains should check the write buffer first.
        """
        conn = self._conn
        if conn is None:
            raise ConfigurationError("client is not connected")
        if conn.closed:
            raise ConnectionError(f"connection to P({self.pid}) was lost")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._futures[msg.request_id] = future
        self.cluster.count_client_send(self.pid)
        conn.add(msg)
        conn.flush()
        # Per-request deadlines go through the shared sweep timer: one
        # heap entry per client per sweep period instead of a
        # call_later handle (and its heap churn) per request.
        self._deadlines[msg.request_id] = loop.time() + timeout
        if self._sweep_timer is None:
            self._sweep_timer = loop.call_later(
                _TIMEOUT_SWEEP, self._sweep_deadlines
            )
        return future

    async def _request(self, msg: Message, timeout: float) -> RequestOutcome:
        loop = asyncio.get_running_loop()
        start = loop.time()
        future = self.request_future(msg, timeout)
        if self._conn.paused:
            await self._conn.drained()
        try:
            reply = await future
        finally:
            self._deadlines.pop(msg.request_id, None)
        latency = loop.time() - start
        if reply is None:
            return RequestOutcome(ok=False, kind="timeout", latency=latency)
        if reply is _LOST:
            return RequestOutcome(ok=False, kind="lost", latency=latency)
        if reply.kind is MessageKind.GET_FAULT:
            return RequestOutcome(ok=False, kind="fault", latency=latency)
        if reply.kind is MessageKind.ERROR:
            payload = reply.payload if isinstance(reply.payload, dict) else {}
            return RequestOutcome(
                ok=False, kind="error", payload=payload.get("reason"),
                latency=latency,
            )
        if reply.kind is MessageKind.OVERLOAD:
            # Shed by admission control: the payload carries the
            # shedding node and a redirect hint for the retry layer.
            payload = reply.payload if isinstance(reply.payload, dict) else {}
            return RequestOutcome(
                ok=False, kind="overload", payload=payload,
                server=int(payload.get("shed_by", reply.src)),
                latency=latency,
            )
        payload = reply.payload if isinstance(reply.payload, dict) else {}
        return RequestOutcome(
            ok=True,
            kind="reply",
            payload=payload.get("payload", reply.payload),
            version=reply.version,
            server=int(payload.get("server", reply.src)),
            latency=latency,
        )

    async def get(self, name: str, timeout: float = 5.0) -> RequestOutcome:
        return await self._request(
            fast_message(MessageKind.GET, CLIENT, self.pid, name), timeout
        )

    async def insert(
        self, name: str, payload: Any = None, timeout: float = 5.0
    ) -> RequestOutcome:
        outcome = await self._request(
            fast_message(MessageKind.INSERT, CLIENT, self.pid, name, payload),
            timeout,
        )
        if outcome.kind == "error":
            raise ClientError(str(outcome.payload))
        return outcome

    async def update(
        self, name: str, payload: Any = None, timeout: float = 5.0
    ) -> RequestOutcome:
        outcome = await self._request(
            fast_message(MessageKind.UPDATE, CLIENT, self.pid, name, payload),
            timeout,
        )
        if outcome.kind == "error":
            raise ClientError(str(outcome.payload))
        return outcome

    async def close(self) -> None:
        conn = self._conn
        self._closed = True
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None
        if conn is not None:
            await conn.close()


# -- workload shapes -----------------------------------------------------

@dataclass(frozen=True)
class WorkloadShape:
    """Seeded file-popularity shape for the load generator.

    ``uniform`` weighs every file equally; ``zipf`` weighs the rank-k
    file ``k ** -s`` under a seeded rank shuffle; ``locality`` gives a
    ``hot_fraction`` of the files a combined ``hot_share`` of the
    demand — the same three shapes as ``repro.workloads`` applied to
    files instead of entry nodes.
    """

    kind: str = "zipf"
    s: float = 1.0
    hot_fraction: float = 0.1
    hot_share: float = 0.9

    def weights(self, count: int, rng: random.Random) -> list[float]:
        if count < 1:
            raise ConfigurationError("a workload needs at least one file")
        if self.kind == "uniform":
            return [1.0] * count
        order = list(range(count))
        rng.shuffle(order)
        weights = [0.0] * count
        if self.kind == "zipf":
            for rank, idx in enumerate(order, start=1):
                weights[idx] = rank ** (-self.s)
            return weights
        if self.kind == "locality":
            hot = max(1, int(round(self.hot_fraction * count)))
            if hot >= count:
                return [1.0] * count
            for pos, idx in enumerate(order):
                if pos < hot:
                    weights[idx] = self.hot_share / hot
                else:
                    weights[idx] = (1.0 - self.hot_share) / (count - hot)
            return weights
        raise ConfigurationError(
            f"unknown workload {self.kind!r} (expected uniform/zipf/locality)"
        )


def _hist_bounds_ms() -> tuple[float, ...]:
    """HDR-style log-linear bucket upper bounds: 4 per octave.

    0.25 ms up to ~4 s in sub-bucket steps of a quarter octave — fine
    enough that a latency-shape regression moves visible mass, coarse
    enough that the whole histogram is ~60 integers.
    """
    bounds: list[float] = []
    base = 0.25
    while base < 4096.0:
        bounds.extend(base * (1.0 + i / 4.0) for i in (1, 2, 3, 4))
        base *= 2.0
    return tuple(bounds)


class LatencyHistogram:
    """Fixed-bucket latency histogram for latency-*shape* regression.

    Percentile gates (p99 <= SLO) are blind to shape: a distribution
    can go bimodal — most requests faster, a new slow mode under the
    p99 — without moving the gate.  Recording every completion into
    log-linear buckets keeps the full shape, cheap enough for the hot
    path (one bisect per sample) and small enough to persist into
    ``BENCH_runtime.json`` per ramp entry.
    """

    BOUNDS_MS: tuple[float, ...] = _hist_bounds_ms()

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        # One bucket per bound plus the overflow bucket (> 4 s).
        self.counts = [0] * (len(self.BOUNDS_MS) + 1)
        self.total = 0

    def record(self, latency_s: float) -> None:
        self.counts[bisect_left(self.BOUNDS_MS, latency_s * 1e3)] += 1
        self.total += 1

    def as_dict(self) -> dict[str, Any]:
        """Sparse JSON form: only the occupied buckets.

        The overflow bucket's bound is ``None`` (strict JSON has no
        ``Infinity``).
        """
        le_ms: list[float | None] = []
        counts: list[int] = []
        bounds = self.BOUNDS_MS
        for idx, count in enumerate(self.counts):
            if count:
                le_ms.append(bounds[idx] if idx < len(bounds) else None)
                counts.append(count)
        return {"total": self.total, "le_ms": le_ms, "counts": counts}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LatencyHistogram":
        hist = cls()
        bounds = cls.BOUNDS_MS
        for le, count in zip(data.get("le_ms", []), data.get("counts", [])):
            idx = len(bounds) if le is None else bisect_left(bounds, le)
            hist.counts[min(idx, len(bounds))] += int(count)
            hist.total += int(count)
        return hist

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram, in place.

        Buckets are fixed and integer-counted, so merging K shard
        histograms is *exact*: bucket-wise addition commutes with
        recording — the merged histogram is bit-identical to one fed
        the concatenated samples (the sharded-loadgen property test
        pins this down).
        """
        for idx, count in enumerate(other.counts):
            self.counts[idx] += count
        self.total += other.total
        return self

    def shape_distance(self, other: "LatencyHistogram") -> float:
        """Earth-mover distance between normalized shapes, in buckets.

        The L1 distance between the two cumulative distributions: how
        many bucket-widths of probability mass must move to turn one
        shape into the other.  A uniform one-octave slowdown (a slower
        CI machine) costs ~4.0; a new latency mode several octaves out
        costs far more — which is exactly the signal a p99 gate misses.
        Returns ``inf`` when either histogram is empty.
        """
        if not self.total or not other.total:
            return float("inf")
        distance = 0.0
        cum_self = 0.0
        cum_other = 0.0
        for mine, theirs in zip(self.counts, other.counts):
            cum_self += mine / self.total
            cum_other += theirs / other.total
            distance += abs(cum_self - cum_other)
        return distance


@dataclass
class LoadReport:
    """What a load-generator run measured."""

    requests: int = 0
    completed: int = 0
    faults: int = 0
    errors: int = 0
    timeouts: int = 0
    shed: int = 0
    """Requests whose *terminal* outcome was an OVERLOAD reply (no
    usable redirect, or the redirect budget ran out)."""
    churn_lost: int = 0
    """Requests lost to churn: the entry or redirect target died under
    the request (connection refused or dropped, or a timeout at a node
    that is no longer serving) and no live alternative remained — the
    fourth terminal next to completed/timeout/shed."""
    stale_sheds: int = 0
    """Terminal sheds caused *solely* by a dead redirect hint while
    redirect budget remained.  With the FINDLIVENODE-style client
    reroute enabled this is zero by construction — the stale-redirect
    invariant gates on it."""
    overloads: int = 0
    """Total OVERLOAD replies received (≥ ``shed``: a redirected
    request that later completes still counted its shed replies)."""
    redirected: int = 0
    """Retries fired at a redirect hint from an OVERLOAD reply."""
    rerouted: int = 0
    """Redirect retries whose hint named a dead node and were rerouted
    to a seeded live entry instead (FINDLIVENODE at the client)."""
    timeout_min_s: float | None = None
    """The shortest latency of a request counted in ``timeouts``;
    ``None`` when none timed out.  A deadline cannot expire early, so
    this is never below the request timeout."""
    duration: float = 0.0
    latencies: list[float] = field(default_factory=list)
    served_by_node: dict[int, int] = field(default_factory=dict)
    hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    _quantile_cache: tuple[int, float, float] | None = None

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def conserved(self) -> bool:
        """Request-lifecycle conservation, live edition: every fired
        request lands in exactly one terminal bucket — under churn,
        including the churn-loss terminal."""
        return self.requests == (
            self.completed + self.faults + self.errors + self.timeouts
            + self.shed + self.churn_lost
        )

    def _quantiles(self) -> tuple[float, float]:
        """(p50, p99), computed from ONE sort and cached per stage.

        The naive per-property path re-sorted the full latency list on
        every access; ``statistics.quantiles`` with the *inclusive*
        method matches :func:`percentile`'s linear interpolation, so
        one pass yields both cut points.  The cache keys on the sample
        count: appending latencies invalidates it.
        """
        lat = self.latencies
        cached = self._quantile_cache
        if cached is not None and cached[0] == len(lat):
            return cached[1], cached[2]
        if not lat:
            p50 = p99 = 0.0
        elif len(lat) == 1:
            p50 = p99 = lat[0]
        else:
            cuts = statistics.quantiles(lat, n=100, method="inclusive")
            p50, p99 = cuts[49], cuts[98]
        self._quantile_cache = (len(lat), p50, p99)
        return p50, p99

    def timed_out(self, latency: float) -> None:
        """Count one request that sat out its deadline."""
        self.timeouts += 1
        if self.timeout_min_s is None or latency < self.timeout_min_s:
            self.timeout_min_s = latency

    @property
    def p50(self) -> float:
        return self._quantiles()[0]

    @property
    def p99(self) -> float:
        return self._quantiles()[1]

    _COUNTERS = (
        "requests", "completed", "faults", "errors", "timeouts", "shed",
        "churn_lost", "stale_sheds", "overloads", "redirected", "rerouted",
    )

    def merge(self, other: "LoadReport") -> "LoadReport":
        """Fold another shard's report into this one, in place.

        Every field is mergeable by construction: the terminal counters
        add, the raw latency samples concatenate, the log-linear
        histogram adds bucket-wise, per-node serve totals add, the
        shortest timeout is the min, and the duration is the max
        (shards run the same wall-clock window in parallel, not back to
        back).  Conservation is preserved exactly:
        each side's ledger balances, and addition keeps it balanced —
        so the union's identity and the p99-SLO criterion hold over K
        driver processes with no approximation.
        """
        for attr in self._COUNTERS:
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))
        shortest = [
            t for t in (self.timeout_min_s, other.timeout_min_s) if t is not None
        ]
        self.timeout_min_s = min(shortest, default=None)
        self.latencies.extend(other.latencies)
        self.hist.merge(other.hist)
        for pid, count in other.served_by_node.items():
            self.served_by_node[pid] = self.served_by_node.get(pid, 0) + count
        self.duration = max(self.duration, other.duration)
        self._quantile_cache = None
        return self

    def to_wire(self) -> dict[str, Any]:
        """Lossless JSON form for shipping a shard's report to the
        merging parent — unlike :meth:`as_dict` (the human-facing bench
        payload, which drops the raw samples), this round-trips the
        latency list exactly: ``json.dumps`` emits ``repr(float)``,
        which parses back to the identical double."""
        wire = {
            "counters": {a: getattr(self, a) for a in self._COUNTERS},
            "duration": self.duration,
            "latencies": self.latencies,
            "served_by_node": {str(k): v for k, v in self.served_by_node.items()},
            "hist": self.hist.as_dict(),
        }
        if self.timeout_min_s is not None:
            wire["timeout_min_s"] = self.timeout_min_s
        return wire

    @classmethod
    def from_wire(cls, data: dict[str, Any]) -> "LoadReport":
        report = cls()
        for attr, value in data.get("counters", {}).items():
            if attr in cls._COUNTERS:
                setattr(report, attr, int(value))
        report.duration = float(data.get("duration", 0.0))
        if "timeout_min_s" in data:
            report.timeout_min_s = float(data["timeout_min_s"])
        report.latencies = [float(x) for x in data.get("latencies", [])]
        report.served_by_node = {
            int(k): int(v) for k, v in data.get("served_by_node", {}).items()
        }
        report.hist = LatencyHistogram.from_dict(data.get("hist", {}))
        return report

    def as_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "faults": self.faults,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "shed": self.shed,
            "churn_lost": self.churn_lost,
            "stale_sheds": self.stale_sheds,
            "overloads": self.overloads,
            "redirected": self.redirected,
            "rerouted": self.rerouted,
            "duration_s": round(self.duration, 6),
            "achieved_rps": round(self.achieved_rps, 3),
            "latency_p50_s": round(self.p50, 6),
            "latency_p99_s": round(self.p99, 6),
            "served_by_node": {str(k): v for k, v in self.served_by_node.items()},
            "latency_hist": self.hist.as_dict(),
        }


class LoadGenerator:
    """Drive a live cluster with a seeded GET workload."""

    def __init__(
        self,
        cluster,
        files: list[str],
        shape: WorkloadShape | None = None,
        seed: int = 0,
        timeout: float = 5.0,
        redirects: int = 3,
        churn_reroute: bool = True,
        entry_shard: tuple[int, int] | None = None,
        collect_served: bool = True,
    ) -> None:
        if not files:
            raise ConfigurationError("the load generator needs inserted files")
        if redirects < 0:
            raise ConfigurationError("redirects must be non-negative")
        if entry_shard is not None:
            shard, shards = entry_shard
            if shards < 1 or not (0 <= shard < shards):
                raise ConfigurationError(
                    "entry_shard must be (k, K) with 0 <= k < K"
                )
        self.cluster = cluster
        self.files = list(files)
        self.shape = shape if shape is not None else WorkloadShape()
        self.rng = random.Random(seed)
        self.timeout = timeout
        self.max_redirects = redirects
        self.churn_reroute = churn_reroute
        """Reroute a redirect whose hint died to a live entry instead of
        terminally shedding (FINDLIVENODE at the client).  ``False`` is
        the stale-hint bug-injection profile: a dead hint becomes a
        terminal shed, counted in ``LoadReport.stale_sheds``."""
        self._reroute_rng = random.Random(seed ^ 0x517A1E)
        self._retry_tasks: set[asyncio.Task] = set()
        self.weights = self.shape.weights(len(self.files), self.rng)
        # rng.choices recomputes the running sum on every call when
        # given raw weights; precomputing cum_weights consumes the
        # exact same rng stream while skipping that O(n) pass per pick.
        self._cum_weights = list(accumulate(self.weights))
        self._clients: dict[int, RuntimeClient] = {}
        self._connect_lock = asyncio.Lock()
        self._entries: tuple[int, list[int]] | None = None
        self.entry_shard = entry_shard
        """Disjoint entry-node partition for sharded load generation:
        shard ``k`` of ``K`` picks entries with ``pid % K == k``, so K
        driver processes never share a client connection or an entry
        node's accept queue.  Redirect chases stay unpartitioned — they
        go wherever the holder is.  ``None`` means all entries."""
        self.collect_served = collect_served
        """``False`` skips the per-run served-counts poll.  A sharded
        driver sets this: against a scale-out fleet that poll is a
        full snapshot collection, and K shards each polling would both
        multiply the cost and *double-count* — serve totals are
        cluster-cumulative, so the merging parent attaches them once
        instead."""

    async def _client(self, pid: int) -> RuntimeClient:
        client = self._clients.get(pid)
        if client is not None and not client.connection_lost:
            return client
        # Serialize creation: concurrent requests to the same entry node
        # must not each open (and then leak) a connection.  A cached
        # client whose connection dropped (the entry died — perhaps to
        # rejoin later) is a husk: close it out and redial, like a real
        # client reconnecting to a restarted peer.
        async with self._connect_lock:
            client = self._clients.get(pid)
            if client is None or client.connection_lost:
                if client is not None:
                    await client.close()
                client = await RuntimeClient(self.cluster, pid).connect()
                self._clients[pid] = client
            return client

    def _pick(self) -> tuple[str, int]:
        name = self.rng.choices(self.files, cum_weights=self._cum_weights, k=1)[0]
        # The sorted entry list only changes with membership: cache it
        # keyed on the status word's epoch instead of re-sorting per
        # request.
        epoch = self.cluster.word.epoch
        cached = self._entries
        if cached is None or cached[0] != epoch:
            entries = sorted(self.cluster.nodes)
            if self.entry_shard is not None:
                shard, shards = self.entry_shard
                mine = [p for p in entries if p % shards == shard]
                # Churn can empty a shard's partition; falling back to
                # the full membership keeps the driver live (and the
                # conservation ledger whole) at the cost of briefly
                # sharing entries.
                entries = mine or entries
            cached = (epoch, entries)
            self._entries = cached
        entry = self.rng.choice(cached[1])
        return name, entry

    async def _fire(self, report: LoadReport) -> None:
        name, entry = self._pick()
        await self._fire_path(entry, name, report)

    async def _fire_path(self, entry: int, name: str, report: LoadReport) -> None:
        """Awaited fire: resolves the client first (connect, backlog)."""
        loop = asyncio.get_running_loop()
        report.requests += 1
        start = loop.time()
        try:
            client = await self._client(entry)
            outcome = await client.get(name, timeout=self.timeout)
        except (ConnectionError, OSError):
            # The entry died between the pick and the connect/write —
            # under mid-burst churn that is a churn loss, not a crash
            # of the whole generator.
            report.churn_lost += 1
            return
        if outcome.kind == "overload":
            await self._follow_redirects(outcome, name, report, start, loop)
        elif outcome.kind == "lost" or (
            outcome.kind == "timeout" and entry not in self.cluster.nodes
        ):
            report.churn_lost += 1  # the entry died holding our request
        else:
            self._classify(outcome, report, loop.time() - start)

    def _redirect_target(self, outcome: RequestOutcome) -> int | None:
        """The redirect hint of an OVERLOAD outcome, if it names a live
        node (``-1`` means the shedder knew no alternative holder)."""
        payload = outcome.payload if isinstance(outcome.payload, dict) else {}
        target = payload.get("redirect", -1)
        if isinstance(target, int) and target in self.cluster.nodes:
            return target
        return None

    def _reroute_target(self, exclude: set[int]) -> int | None:
        """A seeded live entry for a reroute, avoiding ``exclude``."""
        choices = [p for p in sorted(self.cluster.nodes) if p not in exclude]
        if not choices:
            return None
        return choices[self._reroute_rng.randrange(len(choices))]

    async def _follow_redirects(
        self,
        outcome: RequestOutcome,
        name: str,
        report: LoadReport,
        start: float,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        """Chase OVERLOAD redirect hints until served or out of budget.

        The live dual of the DES ``RequestTracker``'s
        reroute-on-overload: each shed reply names an alternative
        holder; the retry goes straight at it.  A completion's recorded
        latency spans the *whole* chain — redirect hops are not free.

        Under churn a hint can name a node that died between the shed
        and this retry.  That is not a wasted attempt: the retry is
        rerouted to a seeded live entry (FINDLIVENODE at the client),
        still consuming redirect budget.  Only when *no* live node
        remains does the request land in the churn-loss terminal.
        """
        redirects = 0
        target: int | None = None
        while outcome.kind == "overload":
            report.overloads += 1
            if redirects >= self.max_redirects:
                break  # budget exhausted: terminal shed, as ever
            payload = outcome.payload if isinstance(outcome.payload, dict) else {}
            hint = payload.get("redirect", -1)
            target = self._redirect_target(outcome)
            if target is None:
                if not (isinstance(hint, int) and hint >= 0):
                    break  # the shedder knew no alternative: terminal shed
                # The hint named a node that has since died.
                if not self.churn_reroute:
                    report.shed += 1
                    report.stale_sheds += 1
                    return
                target = self._reroute_target({hint, outcome.server})
                if target is None:
                    report.churn_lost += 1
                    return
                report.rerouted += 1
            redirects += 1
            report.redirected += 1
            try:
                client = await self._client(target)
                outcome = await client.get(name, timeout=self.timeout)
            except (ConnectionError, OSError):
                report.churn_lost += 1
                return
        if outcome.kind == "lost" or (
            outcome.kind == "timeout"
            and target is not None
            and target not in self.cluster.nodes
        ):
            report.churn_lost += 1  # the redirect target died holding it
            return
        self._classify(outcome, report, loop.time() - start)

    @staticmethod
    def _classify(
        outcome: RequestOutcome, report: LoadReport, latency: float
    ) -> None:
        """Record one request's terminal outcome (exactly one bucket)."""
        if outcome.ok:
            report.completed += 1
            report.latencies.append(latency)
            report.hist.record(latency)
        elif outcome.kind == "fault":
            report.faults += 1
        elif outcome.kind == "timeout":
            report.timed_out(latency)
        elif outcome.kind == "overload":
            report.shed += 1
        else:
            report.errors += 1

    def _fire_nowait(
        self, report: LoadReport, loop: asyncio.AbstractEventLoop
    ) -> "asyncio.Future | asyncio.Task":
        """Fire one GET without a per-request task when possible.

        With the entry node's client already connected and its
        transport unbacklogged, the request goes out through
        :meth:`RuntimeClient.request_future` and the report is updated
        from a done callback — no task, no coroutine frames.  First
        contact with an entry node (or a backlogged writer, which
        needs an awaited ``drain``) falls back to the task path.
        """
        name, entry = self._pick()
        client = self._clients.get(entry)
        # A lost connection (the entry died, perhaps to rejoin) falls
        # back to the task path, which redials through _client().
        if client is not None and client.writable:
            report.requests += 1
            start = loop.time()
            future = client.request_future(
                fast_message(MessageKind.GET, CLIENT, client.pid, name),
                self.timeout,
            )
            future.add_done_callback(
                lambda fut, s=start, e=entry: self._record(
                    report, fut, loop, s, e
                )
            )
            return future
        return loop.create_task(self._fire_path(entry, name, report))

    def _record(
        self,
        report: LoadReport,
        future: asyncio.Future,
        loop: asyncio.AbstractEventLoop,
        start: float,
        entry: int,
    ) -> None:
        """Done callback of a no-task fire: classify the raw reply."""
        if future.cancelled():
            return
        reply = future.result()
        if reply is None:
            if entry not in self.cluster.nodes:
                report.churn_lost += 1  # the entry died holding our request
            else:
                report.timed_out(loop.time() - start)
        elif reply is _LOST:
            report.churn_lost += 1  # the connection dropped under it
        elif reply.kind is MessageKind.GET_REPLY:
            latency = loop.time() - start
            report.completed += 1
            report.latencies.append(latency)
            report.hist.record(latency)
        elif reply.kind is MessageKind.GET_FAULT:
            report.faults += 1
        elif reply.kind is MessageKind.OVERLOAD:
            payload = reply.payload if isinstance(reply.payload, dict) else {}
            outcome = RequestOutcome(
                ok=False,
                kind="overload",
                payload=payload,
                server=int(payload.get("shed_by", reply.src)),
                latency=loop.time() - start,
            )
            task = loop.create_task(
                self._follow_redirects(outcome, reply.file, report, start, loop)
            )
            self._retry_tasks.add(task)
            task.add_done_callback(self._retry_tasks.discard)
        else:
            report.errors += 1

    async def run_open_loop(self, rps: float, duration: float) -> LoadReport:
        """Fire at ``rps`` for ``duration`` seconds, ignoring completions.

        Memory is O(in flight): the loop holds a fire only until it
        settles, and a completed request leaves one latency float in
        the report.  When the window closes it waits out what is still
        in flight, then the redirect chases those started.  A fire
        that raised is kept, so that wait re-raises it.
        """
        if rps <= 0 or duration <= 0:
            raise ConfigurationError("rps and duration must be positive")
        loop = asyncio.get_running_loop()
        report = LoadReport()
        start = loop.time()
        interval = 1.0 / rps
        pending: set[asyncio.Future] = set()

        def settled(fire: asyncio.Future) -> None:
            if fire.cancelled() or fire.exception() is None:
                pending.discard(fire)

        next_fire = start
        while True:
            now = loop.time()
            if now - start >= duration:
                break
            if now < next_fire:
                await asyncio.sleep(next_fire - now)
            next_fire += interval
            fire = self._fire_nowait(report, loop)
            pending.add(fire)
            fire.add_done_callback(settled)
        if pending:
            await asyncio.gather(*pending)
        while self._retry_tasks:
            await asyncio.gather(*list(self._retry_tasks))
        report.duration = loop.time() - start
        report.served_by_node = await self._served_counts()
        return report

    async def run_closed_loop(self, concurrency: int, requests: int) -> LoadReport:
        """Keep ``concurrency`` requests outstanding until ``requests`` done."""
        if concurrency < 1 or requests < 1:
            raise ConfigurationError("concurrency and requests must be positive")
        loop = asyncio.get_running_loop()
        report = LoadReport()
        start = loop.time()
        remaining = requests

        async def worker() -> None:
            nonlocal remaining
            while remaining > 0:
                remaining -= 1
                await self._fire(report)

        await asyncio.gather(*(worker() for _ in range(min(concurrency, requests))))
        report.duration = loop.time() - start
        report.served_by_node = await self._served_counts()
        return report

    async def _served_counts(self) -> dict[int, int]:
        """Per-node serve totals, from either flavor of cluster.

        `LiveCluster.served_counts` reads node objects synchronously;
        the scale-out endpoint has to ask every worker over the wire,
        so its implementation is a coroutine.  Tolerate both.
        """
        if not self.collect_served:
            return {}
        counts = self.cluster.served_counts()
        if asyncio.iscoroutine(counts):
            counts = await counts
        return counts

    async def close(self) -> None:
        for client in self._clients.values():
            await client.close()
        self._clients.clear()
