"""The four workloads: set-up, warm-up, the measured window, the checks.

Everything here talks to the runtime through its public API
(``LiveCluster``, ``RuntimeClient``, ``LoadGenerator``,
``ScaleoutSupervisor`` / ``ScaleoutEndpoint``) and measures from the
outside: process CPU, wall clock, counters the runtime already exposes,
and — in a traced run — the spans ``bench.trace`` records.

One call of :func:`measure` builds one cluster, runs one window and
tears the cluster down again; it returns a :class:`Outcome` that
``bench.run`` turns into metrics.  An :class:`Outcome` whose ``failed_checks``
is not empty is an incorrect run and yields no metrics.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable

from repro.core.hashing import Psi
from repro.core.routing import routing_table_cache_info
from repro.runtime import (
    LiveCluster,
    LoadGenerator,
    LoadReport,
    RuntimeClient,
    RuntimeConfig,
    diff_states,
    replay_oplog,
    verify_snapshot,
)
from repro.runtime.scaleout import ScaleoutEndpoint, ScaleoutSupervisor

from . import trace as tracing
from .calibrate import Slice, factor, spin
from .spec import SAMPLE_PERIOD_S, SLICE_OPS, Workload, catalogue
from .streams import generator_files, mix_ops, shape_of

Phase = Callable[[str], None]

SHORT_SPIN = 8
"""The timer-paced workload calibrates with an eighth of the loop (2 ms)
eight times a second: a full spin would stall the open-loop schedule
for 18 ms."""

REQUEST_TIMEOUT_S = 5.0


@dataclass
class Outcome:
    """Everything one measured window produced, before it is a metric."""

    workload: str
    traced: bool
    slices: list[Slice] = field(default_factory=list)
    report: LoadReport = field(default_factory=LoadReport)
    update_latencies: list[float] = field(default_factory=list)
    """UPDATE send->ACK seconds, each already scaled by its slice's factor."""
    setup: tuple[float, tuple[float, float]] = (0.0, (0.0, 0.0))
    """The measured cluster's own set-up, shaped like :func:`setup_once`."""
    served: dict[int, int] = field(default_factory=dict)
    """Serves per node over the measured window."""
    copies_total: int = 0
    replicas_created: int = 0
    oplog_records: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    stage_s: dict[str, float] = field(default_factory=dict)
    """``stage_seconds`` deltas over the measured window."""
    routing_cache: dict[str, int] = field(default_factory=dict)
    """``routing_table_cache_info`` hit/miss deltas over the window."""
    timers: dict[str, float] = field(default_factory=dict)
    """Seconds (and a few counts) taken around the window, by name."""
    probes_s: list[float] = field(default_factory=list)
    """Each timed ``trigger_overload`` + ``drain()`` round trip."""
    lateness_s: list[float] = field(default_factory=list)
    inbox_depths: list[int] = field(default_factory=list)
    replica_times: list[tuple[float, int]] = field(default_factory=list)
    """(seconds since the window began, replicas in existence)."""
    oplog: list[Any] = field(default_factory=list)
    cpu_split: dict[str, float] = field(default_factory=dict)
    """Fleet: normalised CPU seconds of the window by process kind."""
    goodbyes_missing: int = 0
    peak_rss_mb: float = 0.0
    failed_checks: list[str] = field(default_factory=list)
    tracer: tracing.Tracer | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failed_checks.append(f"{name}: {detail}" if detail else name)


# -- helpers shared by every workload ----------------------------------------

def runtime_config(workload: Workload) -> RuntimeConfig:
    return RuntimeConfig(m=workload.m, **workload.config)


def payload_of(name: str) -> str:
    return f"payload of {name}"


async def _insert_catalogue(cluster: Any, names: list[str]) -> None:
    boot = await RuntimeClient(cluster, min(cluster.nodes)).connect()
    try:
        for name in names:
            outcome = await boot.insert(name, payload_of(name))
            if not outcome.ok:
                raise RuntimeError(f"insert of {name!r} ended {outcome.kind}")
    finally:
        await boot.close()
    await cluster.drain()


async def _preseed(cluster: LiveCluster, workload: Workload, names: list[str],
                   probes: list[float]) -> None:
    """Drive ``trigger_overload`` with fixed seeds until each of the
    hottest files holds ``preseed_copies`` copies; every trigger+drain
    round trip is timed into ``probes``."""
    for rank, name in enumerate(names[:workload.preseed_hot]):
        home = cluster.psi_of(name)
        attempts = 0
        while len(cluster.holders(name)) < workload.preseed_copies:
            attempts += 1
            if attempts > 4 * workload.preseed_copies:
                raise RuntimeError(f"could not pre-seed {name!r}")
            t0 = perf_counter()
            await cluster.trigger_overload(home, name, seed=1000 * rank + attempts)
            await cluster.drain()
            probes.append(perf_counter() - t0)


async def _setup_inprocess(workload: Workload, probes: list[float]) -> LiveCluster:
    cluster = await LiveCluster.start(runtime_config(workload))
    try:
        names = catalogue(workload)
        await _insert_catalogue(cluster, names)
        await _preseed(cluster, workload, names, probes)
    except BaseException:
        await cluster.shutdown()
        raise
    return cluster


async def _readback(cluster: Any, names: list[str], versions: dict[str, int],
                    outcome: Outcome) -> None:
    """GET every file once: it must come back at the catalogue's version
    with the payload written for it (an UPDATE appends to the payload)."""
    entries = sorted(cluster.nodes)
    clients = {
        pid: await RuntimeClient(cluster, pid).connect()
        for pid in entries[:: max(1, len(entries) // 4)]
    }
    try:
        pids = sorted(clients)
        bad = []
        for i, name in enumerate(names):
            got = await clients[pids[i % len(pids)]].get(name, REQUEST_TIMEOUT_S)
            if not got.ok:
                bad.append(f"{name} ended {got.kind}")
            elif got.version != versions.get(name, 1):
                bad.append(f"{name} v{got.version} != v{versions.get(name, 1)}")
            elif not str(got.payload).startswith(payload_of(name)):
                bad.append(f"{name} payload {got.payload!r}")
        outcome.check("readback", not bad, "; ".join(bad[:3]))
    finally:
        for client in clients.values():
            await client.close()


class _Sampler:
    """Polls the cluster from outside every ``SAMPLE_PERIOD_S``.

    Records how late each wake-up ran against its due time (what any
    timer on this loop suffers, the open-loop generator's included), the
    inbox depth of the hottest node, and when each replica appeared.
    """

    def __init__(self, cluster: LiveCluster, hot_pid: int, outcome: Outcome) -> None:
        self.cluster = cluster
        self.hot_pid = hot_pid
        self.outcome = outcome
        self._seen = len(cluster.oplog)
        self._replicas = cluster.replicas_created()
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        start = loop.time()
        tick = 0
        out = self.outcome
        while True:
            tick += 1
            due = start + tick * SAMPLE_PERIOD_S
            await asyncio.sleep(max(0.0, due - loop.time()))
            now = loop.time()
            out.lateness_s.append(now - due)
            # Ticks a stall (a spin, a long callback) swallowed are not
            # made up: one late sample stands for the stall.
            tick = max(tick, int((now - start) / SAMPLE_PERIOD_S))
            node = self.cluster.nodes.get(self.hot_pid)
            if node is not None:
                out.inbox_depths.append(node.inbox.qsize())
            oplog = self.cluster.oplog
            if len(oplog) > self._seen:
                for rec in oplog[self._seen:]:
                    if rec.kind == "replicate" and rec.target is not None:
                        self._replicas += 1
                        out.replica_times.append((now - start, self._replicas))
                self._seen = len(oplog)


def _served_delta(before: dict[int, int], after: dict[int, int]) -> dict[int, int]:
    return {pid: after.get(pid, 0) - before.get(pid, 0) for pid in after}


# -- closed loops ---------------------------------------------------------

class _MixDriver:
    """Closed loop of GETs and UPDATEs over one client per entry node.

    ``LoadGenerator`` only issues GETs, so the mixed workload drives the
    public ``RuntimeClient.get`` / ``update`` coroutines itself and keeps
    the same ledger (a ``LoadReport``).
    """

    def __init__(self, cluster: LiveCluster, workload: Workload, seed: int) -> None:
        self.cluster = cluster
        self.outstanding = workload.outstanding
        names = catalogue(workload)
        self.ops = mix_ops(
            seed, names, shape_of(workload.shape), 1 << workload.m,
            workload.update_share,
        )
        self.clients: dict[int, RuntimeClient] = {}
        self.updates = 0
        self._serial = 0

    async def connect(self) -> None:
        for pid in sorted(self.cluster.nodes):
            self.clients[pid] = await RuntimeClient(self.cluster, pid).connect()

    async def run(self, count: int) -> tuple[LoadReport, list[float]]:
        """``count`` operations, ``outstanding`` at a time; returns the
        ledger (GET latencies in it) and the UPDATE latencies."""
        loop = asyncio.get_running_loop()
        report = LoadReport()
        update_latencies: list[float] = []
        remaining = count

        async def worker() -> None:
            nonlocal remaining
            while remaining > 0:
                remaining -= 1
                kind, name, entry = next(self.ops)
                client = self.clients[entry]
                report.requests += 1
                start = loop.time()
                if kind == "get":
                    got = await client.get(name, REQUEST_TIMEOUT_S)
                    ok = got.ok and str(got.payload).startswith(payload_of(name))
                else:
                    self._serial += 1
                    got = await client.update(
                        name, f"{payload_of(name)} #{self._serial}",
                        REQUEST_TIMEOUT_S,
                    )
                    ok = got.ok
                latency = loop.time() - start
                if ok:
                    report.completed += 1
                    if kind == "get":
                        report.latencies.append(latency)
                    else:
                        self.updates += 1
                        update_latencies.append(latency)
                elif got.kind == "timeout":
                    report.timeouts += 1
                elif got.kind == "fault":
                    report.faults += 1
                elif got.kind == "overload":
                    report.shed += 1
                else:
                    report.errors += 1

        start = loop.time()
        await asyncio.gather(*(worker() for _ in range(min(self.outstanding, count))))
        report.duration = loop.time() - start
        return report, update_latencies

    async def close(self) -> None:
        for client in self.clients.values():
            await client.close()
        self.clients.clear()


async def _closed_window(
    run_slice: Callable[[], Any], cpu_now: Callable[[], float],
    outcome: Outcome, seconds: float, slices: int, phase: Phase,
) -> None:
    """Slices of ``SLICE_OPS`` operations with a spin between them."""
    started = perf_counter()
    before = spin()
    done = 0
    while done < slices if slices else perf_counter() - started < seconds:
        phase(f"slice {done}")
        c0, w0 = cpu_now(), perf_counter()
        report, update_latencies = await run_slice()
        w1, c1 = perf_counter(), cpu_now()
        after = spin()
        piece = Slice(
            ops=report.completed, wall_s=w1 - w0, cpu_s=c1 - c0,
            spins=(before, after), latencies=report.latencies,
        )
        outcome.slices.append(piece)
        outcome.update_latencies.extend(
            lat * piece.factor for lat in update_latencies
        )
        outcome.report.merge(report)
        before = after
        done += 1


# -- the in-process workloads ------------------------------------------------

async def _run_inprocess(
    workload: Workload, seed: int, seconds: float, slices: int,
    tracer: tracing.Tracer | None, phase: Phase,
) -> Outcome:
    outcome = Outcome(workload.name, traced=tracer is not None, tracer=tracer)
    names = catalogue(workload)
    phase("boot")
    s0, c0 = spin(), process_time()
    phase("set-up")
    cluster = await _setup_inprocess(workload, outcome.probes_s)
    cpu = process_time() - c0
    outcome.setup = (cpu, (s0, spin()))
    uninstall: Callable[[], None] | None = None
    gc_was_enabled = gc.isenabled()
    try:
        shape = shape_of(workload.shape)
        gen: LoadGenerator | None = None
        mix: _MixDriver | None = None
        phase("warm-up")
        if workload.update_share > 0:
            mix = _MixDriver(cluster, workload, seed)
            await mix.connect()
            await mix.run(workload.warmup_ops)
            mix.updates = 0
        else:
            gen = LoadGenerator(
                cluster, generator_files(names, shape, seed), shape, seed=seed,
                timeout=REQUEST_TIMEOUT_S,
            )
            if workload.warmup_ops:
                await gen.run_closed_loop(workload.outstanding, workload.warmup_ops)
        if tracer is not None:
            uninstall = tracing.install(tracer)
        sampler = _Sampler(cluster, cluster.psi_of(names[0]), outcome)
        served0 = cluster.served_counts()
        stage0 = dict(cluster.stage_seconds)
        cache0 = routing_table_cache_info()
        gc.collect()
        gc.disable()
        sampler.start()
        try:
            if workload.loop == "open":
                assert gen is not None
                await _open_window(cluster, gen, workload, outcome, seconds, phase)
            elif mix is not None:
                await _closed_window(
                    lambda: mix.run(SLICE_OPS), process_time, outcome,
                    seconds, slices, phase,
                )
            else:
                assert gen is not None

                async def get_slice() -> tuple[LoadReport, list[float]]:
                    return await gen.run_closed_loop(workload.outstanding, SLICE_OPS), []

                await _closed_window(
                    get_slice, process_time, outcome, seconds, slices, phase
                )
        finally:
            await sampler.stop()
            if gc_was_enabled:
                gc.enable()
            if uninstall is not None:
                uninstall()
                uninstall = None
        cache1 = routing_table_cache_info()
        outcome.routing_cache = {
            k: cache1[k] - cache0[k] for k in ("hits", "misses")
        }
        outcome.stage_s = {
            k: v - stage0.get(k, 0.0) for k, v in cluster.stage_seconds.items()
        }
        outcome.served = _served_delta(served0, cluster.served_counts())
        if mix is not None:
            outcome.timers["updates"] = float(mix.updates)
        phase("drain")
        if gen is not None:
            await gen.close()
        if mix is not None:
            await mix.close()
        t0 = perf_counter()
        await cluster.quiesce()
        outcome.timers["quiesce_s"] = perf_counter() - t0
        await _readback(cluster, names, cluster.version_map(), outcome)
        await cluster.drain()
        _check_inprocess(cluster, workload, outcome)
    finally:
        if uninstall is not None:
            uninstall()
        phase("shutdown")
        await cluster.shutdown()
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcome


async def _open_window(
    cluster: LiveCluster, gen: LoadGenerator, workload: Workload,
    outcome: Outcome, seconds: float, phase: Phase,
) -> None:
    """The open loop at ``rate_rps`` for ``seconds``, cut into one-second
    slices by a ticker that runs a short spin every eighth of a second
    and reads CPU and serves at every eighth spin."""
    loop = asyncio.get_running_loop()
    spins: list[float] = []
    spin_cpu = 0.0
    edge: list[tuple[float, float, int]] = []
    """(wall, CPU after the edge's spin, serves) where the open slice began."""

    def tick(close: bool) -> None:
        nonlocal spins, spin_cpu
        c0 = process_time()
        spins.append(spin(SHORT_SPIN))
        c1 = process_time()
        if not close:
            spin_cpu += c1 - c0
            return
        now, serves = perf_counter(), sum(cluster.served_counts().values())
        if edge:
            w0, cpu0, n0 = edge.pop()
            outcome.slices.append(Slice(
                ops=serves - n0, wall_s=now - w0,
                cpu_s=(c0 - cpu0) - spin_cpu, spins=tuple(spins),
            ))
        edge.append((now, c1, serves))
        spins, spin_cpu = spins[-1:], 0.0

    async def ticker() -> None:
        start = loop.time()
        count = 0
        while True:
            count += 1
            await asyncio.sleep(max(0.0, start + count / SHORT_SPIN - loop.time()))
            tick(close=count % SHORT_SPIN == 0)

    phase("slice 0")
    tick(close=True)
    task = loop.create_task(ticker())
    try:
        report = await gen.run_open_loop(workload.rate_rps, seconds)
    finally:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
    tick(close=True)
    outcome.report.merge(report)


def _check_inprocess(cluster: LiveCluster, workload: Workload, outcome: Outcome) -> None:
    """Ledger, oracle, coherence and counter checks on a quiesced cluster."""
    report = outcome.report
    outcome.check(
        "ledger", report.conserved,
        f"{report.requests} requests != sum of terminals",
    )
    t0 = perf_counter()
    system = replay_oplog(cluster.oplog, cluster.config, cluster.initial_live)
    system.check_invariants()
    conformance = diff_states(cluster, system)
    outcome.timers["replay_s"] = perf_counter() - t0
    outcome.timers["mismatches"] = float(len(conformance.mismatches))
    outcome.check("oracle", conformance.ok, "; ".join(conformance.mismatches[:3]))
    versions = cluster.version_map()
    stale = []
    for name, holders in cluster.placement().items():
        for pid in holders:
            held = cluster.nodes[pid].store.get(name, count_access=False).version
            if held != versions[name]:
                stale.append(f"{name}@P({pid}) v{held} != v{versions[name]}")
    outcome.check("coherence", not stale, ", ".join(stale[:3]))
    counters = dict(cluster.counters)
    outcome.counters = counters
    for name in ("handler_errors", "wire_decode_errors", "get_faults"):
        outcome.check(name, counters.get(name, 0) == 0, str(counters.get(name, 0)))
    outcome.copies_total = sum(len(h) for h in cluster.placement().values())
    outcome.replicas_created = cluster.replicas_created()
    outcome.oplog_records = len(cluster.oplog)
    outcome.oplog = list(cluster.oplog)
    expected = workload.preseed_hot * (workload.preseed_copies - 1)
    if workload.loop == "closed":
        outcome.check(
            "replicas", outcome.replicas_created == expected,
            f"{outcome.replicas_created} != {expected}",
        )
        outcome.check(
            "all-completed", report.completed == report.requests,
            f"{report.completed} of {report.requests}",
        )


# -- the fleet ------------------------------------------------------------

def _proc_cpu_s(ospid: int) -> float:
    """CPU seconds one process has used so far (0.0 once it is gone).

    ``/proc/<pid>/schedstat`` counts nanoseconds on a CPU; where the
    kernel lacks it, ``/proc/<pid>/stat`` counts clock ticks.
    """
    try:
        with open(f"/proc/{ospid}/schedstat") as fh:
            return int(fh.read().split()[0]) / 1e9
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(f"/proc/{ospid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


@dataclass
class _Fleet:
    supervisor: ScaleoutSupervisor
    endpoint: ScaleoutEndpoint
    ospids: list[int]


async def _boot_fleet(supervisor: ScaleoutSupervisor, address: tuple[str, int],
                      names: list[str]) -> _Fleet:
    await supervisor.start(boot_timeout=60.0)
    endpoint = await ScaleoutEndpoint.connect(*address)
    await _insert_catalogue(endpoint, names)
    bootstrap = supervisor.bootstrap
    return _Fleet(
        supervisor, endpoint,
        [bootstrap.ospid_of(pid) for pid in bootstrap.worker_pids()],
    )


FLEET_EXIT_TIMEOUT_S = 20.0


async def _shutdown_fleet(supervisor: ScaleoutSupervisor) -> None:
    """SIGTERM the workers and keep the loop running until every one has
    exited; only then ``supervisor.shutdown()``.

    ``shutdown()`` alone hangs about once in twenty fleets on the sizing
    host: it polls ``bootstrap.goodbyes`` and, the moment the last
    goodbye is *recorded*, reaps with a blocking ``waitpid`` — but the
    reply to that goodbye leaves in the control link's next tick flush,
    which the blocked loop never runs, so the worker awaits its reply
    for ever and the parent its exit (ROADMAP item 1).  Polling the
    public ``alive()`` from a running loop lets the replies out; by the
    time ``shutdown()`` runs, every child is reaped and it blocks on
    nothing.  A worker still alive at the deadline is killed and fails
    the run.
    """
    for ospid, up in supervisor.alive().items():
        if up:
            os.kill(ospid, signal.SIGTERM)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + FLEET_EXIT_TIMEOUT_S
    while any(supervisor.alive().values()):
        if loop.time() >= deadline:
            stuck = [p for p, up in supervisor.alive().items() if up]
            for ospid in stuck:
                os.kill(ospid, signal.SIGKILL)
            await supervisor.shutdown(term_timeout=1.0)
            raise RuntimeError(f"fleet workers {stuck} did not exit on SIGTERM")
        await asyncio.sleep(0.005)
    await supervisor.shutdown()


def _fleet_setup_only(workload: Workload) -> tuple[float, tuple[float, float]]:
    """One throw-away fleet: wall seconds of launch + start + inserts."""
    names = catalogue(workload)
    s0, w0 = spin(), perf_counter()
    supervisor = ScaleoutSupervisor(runtime_config(workload), mode="fork")
    address = supervisor.launch()

    async def go() -> float:
        fleet = None
        try:
            fleet = await _boot_fleet(supervisor, address, names)
            return perf_counter() - w0
        finally:
            if fleet is not None:
                await fleet.endpoint.close()
            await _shutdown_fleet(supervisor)

    wall = asyncio.run(go())
    return wall, (s0, spin())


def _run_fleet(
    workload: Workload, seed: int, seconds: float, slices: int,
    tracer: tracing.Tracer | None, phase: Phase,
) -> Outcome:
    """``launch()`` forks and so must run before any event loop exists:
    the fleet workload is a synchronous function around one
    ``asyncio.run``."""
    outcome = Outcome(workload.name, traced=tracer is not None, tracer=tracer)
    names = catalogue(workload)
    phase("boot")
    s0, w0 = spin(), perf_counter()
    supervisor = ScaleoutSupervisor(runtime_config(workload), mode="fork")
    address = supervisor.launch()
    asyncio.run(_drive_fleet(
        supervisor, address, workload, names, seed, seconds, slices, tracer,
        phase, outcome, (s0, w0),
    ))
    outcome.goodbyes_missing = (
        supervisor.bootstrap.expected - len(supervisor.bootstrap.goodbyes)
    )
    outcome.check(
        "goodbyes", outcome.goodbyes_missing == 0,
        f"{outcome.goodbyes_missing} of {supervisor.bootstrap.expected} missing",
    )
    largest_worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    outcome.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + largest_worker
    ) / 1024.0
    return outcome


async def _drive_fleet(
    supervisor: ScaleoutSupervisor, address: tuple[str, int], workload: Workload,
    names: list[str], seed: int, seconds: float, slices: int,
    tracer: tracing.Tracer | None, phase: Phase, outcome: Outcome,
    started: tuple[float, float],
) -> None:
    s0, w0 = started
    bootstrap = supervisor.bootstrap
    fleet: _Fleet | None = None
    uninstall: Callable[[], None] | None = None
    gc_was_enabled = gc.isenabled()
    try:
        phase("set-up")
        fleet = await _boot_fleet(supervisor, address, names)
        outcome.timers["boot_s"] = perf_counter() - w0
        outcome.setup = (outcome.timers["boot_s"], (s0, spin()))
        endpoint = fleet.endpoint
        ospids = fleet.ospids
        shape = shape_of(workload.shape)
        gen = LoadGenerator(
            endpoint, generator_files(names, shape, seed), shape, seed=seed,
            timeout=REQUEST_TIMEOUT_S, collect_served=False,
        )
        phase("warm-up")
        await gen.run_closed_loop(workload.outstanding, workload.warmup_ops)
        if tracer is not None:
            uninstall = tracing.install(tracer)
        cpu_reads: list[tuple[float, float]] = []
        """(driver, workers) CPU seconds: two reads a slice, start and end."""

        def cpu_now() -> float:
            driver = process_time()
            workers = sum(_proc_cpu_s(p) for p in ospids)
            cpu_reads.append((driver, workers))
            return driver + workers

        async def get_slice() -> tuple[LoadReport, list[float]]:
            return await gen.run_closed_loop(workload.outstanding, SLICE_OPS), []

        served0 = await endpoint.served_counts()
        gc.collect()
        gc.disable()
        try:
            await _closed_window(
                get_slice, cpu_now, outcome, seconds, slices, phase
            )
        finally:
            if gc_was_enabled:
                gc.enable()
        # CPU by process kind, normalised slice by slice like the total.
        driver = workers = 0.0
        for piece, (d0, k0), (d1, k1) in zip(
            outcome.slices, cpu_reads[0::2], cpu_reads[1::2]
        ):
            driver += (d1 - d0) * piece.factor
            workers += (k1 - k0) * piece.factor
        outcome.cpu_split = {"driver": driver, "workers": workers}
        outcome.served = _served_delta(served0, await endpoint.served_counts())
        outcome.replicas_created = sum(
            1 for rec in bootstrap.oplog
            if rec.kind == "replicate" and rec.target is not None
        )
        outcome.copies_total = len(names) + outcome.replicas_created
        phase("probe")
        # Ship the endpoint's send counts first: the bootstrap's drain
        # balances its ledger against them.
        await endpoint.drain()
        psi = Psi(workload.m)
        for i in range(workload.probe_decisions):
            name = names[i % len(names)]
            t0 = perf_counter()
            await bootstrap.trigger_overload(psi(name), name, seed=1000 + i)
            await bootstrap.drain()
            outcome.probes_s.append(perf_counter() - t0)
        if uninstall is not None:
            uninstall()
            uninstall = None
        phase("drain")
        await gen.close()
        await endpoint.quiesce()
        await _readback(endpoint, names, {name: 1 for name in names}, outcome)
        await endpoint.quiesce()
        t0 = perf_counter()
        snapshot, stats = await bootstrap.collect_snapshot()
        outcome.timers["snapshot_s"] = perf_counter() - t0
        t0 = perf_counter()
        conformance = verify_snapshot(snapshot)
        outcome.timers["replay_s"] = perf_counter() - t0
        outcome.timers["mismatches"] = float(len(conformance.mismatches))
        outcome.check("oracle", conformance.ok, "; ".join(conformance.mismatches[:3]))
        report = outcome.report
        outcome.check(
            "ledger", report.conserved,
            f"{report.requests} requests != sum of terminals",
        )
        outcome.check(
            "all-completed", report.completed == report.requests,
            f"{report.completed} of {report.requests}",
        )
        outcome.check(
            "replicas", outcome.replicas_created == 0,
            f"{outcome.replicas_created} replicas before the probe",
        )
        outcome.counters = dict(stats.counters)
        for name in ("handler_errors", "wire_decode_errors", "get_faults"):
            outcome.check(
                name, stats.counters.get(name, 0) == 0,
                str(stats.counters.get(name, 0)),
            )
        # Worker stage seconds are cumulative since boot: warm-up,
        # inserts and the readback are in them (per-request figures are
        # therefore taken over every GET the fleet served).
        outcome.stage_s = dict(stats.stage_seconds)
        outcome.timers["stage_serves"] = float(sum(stats.served_by_node.values()))
        outcome.oplog_records = len(snapshot.oplog)
        outcome.oplog = list(snapshot.oplog)
    finally:
        if uninstall is not None:
            uninstall()
        phase("shutdown")
        if fleet is not None:
            await fleet.endpoint.close()
        t0 = perf_counter()
        await _shutdown_fleet(supervisor)
        outcome.timers["shutdown_s"] = perf_counter() - t0


# -- entry points -----------------------------------------------------------

def measure(
    workload: Workload, seed: int, seconds: float, slices: int = 0,
    traced: bool = False, phase: Phase = lambda _p: None,
) -> Outcome:
    """Build one cluster, run one window, check it, tear it down.

    ``slices`` > 0 measures exactly that many slices instead of
    ``seconds`` (the open loop reads it as seconds): the smoke tests'
    way to a run of known length.
    """
    tracer = tracing.Tracer() if traced else None
    if workload.loop == "open" and slices:
        seconds, slices = float(slices), 0
    if workload.fleet:
        return _run_fleet(workload, seed, seconds, slices, tracer, phase)
    return asyncio.run(
        _run_inprocess(workload, seed, seconds, slices, tracer, phase)
    )


def setup_once(workload: Workload) -> tuple[float, tuple[float, float]]:
    """One throw-away set-up: (seconds on the workload's set-up clock,
    the two spins around it).  In-process set-up is CPU seconds, the
    fleet's is wall seconds (it is mostly waiting for forks and
    registrations)."""
    if workload.fleet:
        return _fleet_setup_only(workload)

    async def go() -> tuple[float, tuple[float, float]]:
        s0, c0 = spin(), process_time()
        cluster = await _setup_inprocess(workload, [])
        cpu = process_time() - c0
        spins = (s0, spin())
        await cluster.shutdown()
        return cpu, spins

    return asyncio.run(go())


def median_setup(samples: list[tuple[float, tuple[float, float]]]) -> tuple[float, float]:
    """(normalised, raw) median set-up seconds; the first repetition,
    which pays imports and cold caches, is discarded."""
    kept = samples[1:] if len(samples) > 1 else samples
    return (
        statistics.median(sec * factor(spins) for sec, spins in kept),
        statistics.median(sec for sec, _spins in kept),
    )
