"""`run_fleet`: one probe of a fleet of worker processes, boot to teardown.

The fleet's counterpart of :func:`repro.runtime.conformance.run_live`:
boot → insert → drain → burst (with any ``kill -9``) → autopsy →
quiesce → snapshot → verify → teardown.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ...core.errors import ConfigurationError
from ..churn import ChurnEvent
from ..client import LoadGenerator, LoadReport, RuntimeClient, WorkloadShape
from ..cluster import RuntimeConfig
from ..conformance import ClusterStateSnapshot, ConformanceReport, verify_snapshot
from .bootstrap import ScaleoutStats
from .endpoint import ScaleoutEndpoint
from .loadshard import ShardedLoadDriver
from .supervisor import ScaleoutSupervisor

__all__ = ["FleetRun", "drive_fleet", "plan_kills", "run_fleet"]


@dataclass(frozen=True)
class FleetRun:
    """What one :func:`run_fleet` probe saw; its fleet is gone by then.

    ``killed`` is in kill order, ``goodbyes`` by node id,
    ``shard_reports`` in shard order (empty unsharded), and
    ``left_running`` holds the OS pids still alive after teardown.
    """

    conformance: ConformanceReport
    report: LoadReport
    stats: ScaleoutStats
    snapshot: ClusterStateSnapshot
    killed: tuple[int, ...]
    goodbyes: dict[int, dict[str, Any]]
    shard_reports: tuple[LoadReport, ...]
    left_running: tuple[int, ...]


def plan_kills(
    live: Iterable[int], kills: Sequence[ChurnEvent], seed: int, min_live: int = 1
) -> list[int | None]:
    """Each kill's victim, in ``at`` order; ``None`` where it is skipped.

    A pinned ``pid`` is used as given.  An unpinned kill draws from the
    pids still live with one ``random.Random(seed)``, and is skipped
    while at most ``min_live`` are left: only these kills change the
    membership mid-burst, so this is the draw at fire time.
    """
    rng, live, victims = random.Random(seed), sorted(live), []
    for event in sorted(kills, key=lambda e: e.at):
        if event.action != "kill":
            raise ConfigurationError(
                f"a fleet probe injects kill -9 only, got {event.action!r}"
            )
        victim = event.pid
        if victim is None and len(live) > min_live:
            victim = rng.choice(live)
        if victim in live:
            live.remove(victim)
        victims.append(victim)
    return victims


@dataclass(frozen=True)
class _Load:
    """One burst's load, in `ShardedLoadDriver`'s terms.

    ``closed_loop`` is the one extra: requests that a single in-loop
    generator keeps outstanding.
    """

    files: Sequence[str]
    rps: float
    duration: float
    warmup: float = 0.0
    shape: WorkloadShape | None = None
    seed: int = 0
    timeout: float = 5.0
    redirects: int = 3
    closed_loop: int = 0
    client_shards: int = 0

    def __post_init__(self) -> None:  # refused before anything forks
        if not self.files or self.rps <= 0 or self.duration <= 0:
            raise ConfigurationError("a burst needs files, rps and a duration")
        if self.client_shards >= 2 and self.closed_loop > 0:
            raise ConfigurationError("a closed loop runs in one client process")

    def launch(self, host: str, port: int, inherited=()) -> ShardedLoadDriver | None:
        """Fork the shards (``client_shards >= 2``) while no loop exists."""
        if self.client_shards < 2:
            return None
        driver = ShardedLoadDriver(
            host, port, self.files, shards=self.client_shards, rps=self.rps,
            duration=self.duration, warmup=self.warmup, shape=self.shape,
            seed=self.seed, timeout=self.timeout, redirects=self.redirects,
            inherited_sockets=inherited,
        )
        driver.launch()
        return driver

    async def drive(self, endpoint, driver, supervisor=None, schedule=()):
        """Insert → drain → burst, firing ``schedule``'s ``(at, victim)``
        kills from its start → autopsy → quiesce: (report, killed)."""
        boot = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
        for name in self.files:
            await boot.insert(name, f"payload of {name}")
        await boot.close()
        await endpoint.drain()
        loop = asyncio.get_running_loop()
        start, killed = loop.time(), []

        async def fire() -> None:
            for at, victim in schedule:
                await asyncio.sleep(start + at - loop.time())
                if victim is not None:
                    await supervisor.kill(victim)
                    killed.append(victim)

        kills = loop.create_task(fire())
        try:
            report = await self._burst(endpoint, driver)
            await kills
        finally:
            kills.cancel()
        for victim in killed:
            await supervisor.bootstrap.announce_crash(victim)
        await endpoint.quiesce()
        return report, tuple(killed)

    async def _burst(self, endpoint, driver) -> LoadReport:
        if driver is not None:
            driver.start()
            report = await driver.collect()
            report.served_by_node = await endpoint.served_counts()
            return report
        gen = LoadGenerator(endpoint, list(self.files), self.shape, seed=self.seed,
                            timeout=self.timeout, redirects=self.redirects)
        try:
            if self.closed_loop > 0:
                return await gen.run_closed_loop(
                    self.closed_loop, max(1, int(self.rps * self.duration))
                )
            if self.warmup > 0:
                await gen.run_open_loop(self.rps, self.warmup)
            return await gen.run_open_loop(self.rps, self.duration)
        finally:
            await gen.close()


def _run(driver: ShardedLoadDriver | None, probe) -> Any:
    """``asyncio.run(probe())``, then kill any shard still running."""
    try:
        return asyncio.run(probe())
    finally:
        if driver is not None:
            driver.kill()  # a no-op after a clean collect()


def run_fleet(
    config: RuntimeConfig, n_nodes: int, files: Sequence[str], *,
    rps: float, duration: float, warmup: float = 0.0,
    shape: WorkloadShape | None = None, seed: int | None = None,
    timeout: float = 5.0, redirects: int = 3, closed_loop: int = 0,
    client_shards: int = 0, kills: Sequence[ChurnEvent] = (),
    min_live: int = 1, spawn: str = "fork",
) -> FleetRun:
    """Fork ``n_nodes`` workers, insert ``files``, burst, tear down.

    Synchronous, because it owns the fork rule: the workers, then the
    load shards (``client_shards >= 2``), fork before any event loop
    exists; teardown runs in a ``finally``.  The burst is ``rps`` GETs a
    second for ``warmup`` + ``duration`` s (``seed`` defaults to the
    config's).  ``kills`` fire ``at`` s after it starts, warm-up
    included, on :func:`plan_kills`' victims.  The boot deadline is
    60 s + 0.5 s per worker.
    """
    load = _Load(files, rps, duration, warmup, shape,
                 config.seed if seed is None else seed, timeout, redirects,
                 closed_loop, client_shards)
    schedule = list(zip(sorted(e.at for e in kills),
                        plan_kills(range(n_nodes), kills, load.seed, min_live)))
    supervisor = ScaleoutSupervisor(config, n_nodes=n_nodes, mode=spawn)
    host, port = supervisor.launch()
    driver = load.launch(host, port, [supervisor.listen_socket])

    async def probe() -> tuple:
        try:
            await supervisor.start(boot_timeout=60.0 + 0.5 * n_nodes)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            try:
                report, killed = await load.drive(endpoint, driver, supervisor, schedule)
                snapshot, stats = await supervisor.bootstrap.collect_snapshot()
            finally:
                await endpoint.close()
            return verify_snapshot(snapshot), report, stats, snapshot, killed
        finally:
            await supervisor.shutdown()

    return FleetRun(
        *_run(driver, probe),
        goodbyes=dict(supervisor.bootstrap.goodbyes),
        shard_reports=tuple(driver.shard_reports) if driver is not None else (),
        left_running=tuple(sorted(o for o, up in supervisor.alive().items() if up)),
    )


def drive_fleet(
    host: str, port: int, files: Sequence[str], **load: Any
) -> tuple[LoadReport, tuple[LoadReport, ...], int]:
    """Run the drive stage on a fleet booted elsewhere.

    Connect → insert → drain → burst → quiesce, with :func:`run_fleet`'s
    load keywords and no kills.  Returns the report, the shard reports
    and how many workers the endpoint then knew.
    """
    spec = _Load(files, **load)
    driver = spec.launch(host, port)

    async def probe() -> tuple[LoadReport, int]:
        endpoint = await ScaleoutEndpoint.connect(host, port)
        try:
            report, _ = await spec.drive(endpoint, driver)
            return report, len(endpoint.nodes)
        finally:
            await endpoint.close()

    report, nodes = _run(driver, probe)
    return report, tuple(driver.shard_reports) if driver is not None else (), nodes
