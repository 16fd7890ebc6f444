"""Mid-burst fault injection: seeded churn against a live cluster.

The overload plane of :mod:`repro.runtime.overload` was proven under
flash-crowd load on a *stable* membership.  Real deployments are not so
polite: nodes crash in the middle of the burst, newcomers join while
the sweeper is mid-decision, and the most dangerous failure mode is the
silent one — a node that dies without announcing (``kill``), leaving
every peer's status word stale until the coordination plane catches up.

:class:`ChurnInjector` drives :meth:`LiveCluster.crash` /
:meth:`~LiveCluster.join` / :meth:`~LiveCluster.leave` on a seeded
schedule placed *inside* the burst window:

* ``kill`` events are silent crashes (``crash(pid, announce=False)``):
  the victim retires instantly, no REGISTER_DEAD broadcast goes out,
  and the cluster keeps serving against stale words — exactly the
  regime the stale-redirect machinery must survive.  The announce half
  (recovery, oplog ``recover`` record) runs as an *autopsy* in
  :meth:`finalize`, after the burst.
* ``crash`` / ``join`` / ``leave`` events are announced self-organizing
  ops (§5).  They drain the cluster internally, so they are serialized
  through a single background worker — membership flips land mid-burst,
  while the recovery/migration tail completes when the wire quiets.

Victims are picked at *fire time* from the then-live membership with a
seeded RNG, so schedules compose deterministically with the workload
seed while never naming an already-dead node.  ``min_live`` bounds the
carnage; events that would breach it are skipped and reported.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

from ..core.errors import ConfigurationError
from .cluster import LiveCluster

__all__ = ["ChurnEvent", "ChurnInjector"]


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled fault, ``at`` seconds after :meth:`ChurnInjector.start`.

    ``pid`` may pin the victim; ``None`` (the default) defers the pick
    to fire time, where the injector draws from the live set (dead set
    for ``join``) with its seeded RNG.
    """

    at: float
    action: str  # kill | crash | join | leave
    pid: int | None = None

    def __post_init__(self) -> None:
        if self.action not in ("kill", "crash", "join", "leave"):
            raise ConfigurationError(f"unknown churn action {self.action!r}")
        if self.at < 0:
            raise ConfigurationError(f"event time must be >= 0, got {self.at}")


class ChurnInjector:
    """Applies a :class:`ChurnEvent` schedule to a running cluster.

    Usage::

        injector = ChurnInjector.scheduled(cluster, duration=2.0,
                                           kills=1, crashes=1, seed=7)
        injector.start()
        report = await gen.run_open_loop(rate, 2.0)   # churn fires mid-burst
        applied = await injector.finalize()           # autopsies + worker tail

    ``applied`` is one dict per scheduled event: the planned time and
    action, the PID it resolved to (or ``None`` when skipped), and for
    kills whether the autopsy announce ran.
    """

    def __init__(
        self,
        cluster: LiveCluster,
        events: list[ChurnEvent],
        seed: int = 0,
        min_live: int = 3,
    ) -> None:
        if min_live < 1:
            raise ConfigurationError(f"min_live must be >= 1, got {min_live}")
        self.cluster = cluster
        self.events = sorted(events, key=lambda e: (e.at, e.action))
        self.min_live = min_live
        self._rng = random.Random(seed ^ 0xC0FFEE)
        self.applied: list[dict[str, object]] = []
        self._autopsies: list[int] = []
        self._runner: asyncio.Task[None] | None = None
        self._worker: asyncio.Task[None] | None = None
        self._queue: asyncio.Queue[tuple[str, int] | None] = asyncio.Queue()

    @classmethod
    def scheduled(
        cls,
        cluster: LiveCluster,
        duration: float,
        *,
        kills: int = 1,
        crashes: int = 0,
        joins: int = 0,
        leaves: int = 0,
        start_frac: float = 0.25,
        end_frac: float = 0.75,
        seed: int = 0,
        min_live: int = 3,
    ) -> "ChurnInjector":
        """A seeded schedule inside ``[start_frac, end_frac] * duration``.

        The window defaults to the middle half of the burst so every
        event lands while load is flowing — neither warm-up nor
        cool-down, the regime the churned overload gates care about.
        """
        if not 0.0 <= start_frac <= end_frac <= 1.0:
            raise ConfigurationError(
                f"need 0 <= start_frac <= end_frac <= 1, "
                f"got {start_frac}/{end_frac}"
            )
        rng = random.Random(seed ^ 0x5C4ED)
        lo, hi = start_frac * duration, end_frac * duration
        events = [
            ChurnEvent(at=lo + (hi - lo) * rng.random(), action=action)
            for action, count in (
                ("kill", kills), ("crash", crashes),
                ("join", joins), ("leave", leaves),
            )
            for _ in range(count)
        ]
        return cls(cluster, events, seed=seed, min_live=min_live)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Arm the schedule on the running loop (idempotent-unsafe: once)."""
        if self._runner is not None:
            raise ConfigurationError("injector already started")
        self._runner = asyncio.create_task(self._run(), name="churn-injector")
        self._worker = asyncio.create_task(self._work(), name="churn-worker")

    async def finalize(self) -> list[dict[str, object]]:
        """Wait out the schedule, drain the worker, announce autopsies.

        Call after the burst completes and before any quiesce /
        conformance diff: the autopsy announces reconcile every live
        node's status word with the silent deaths and close the
        ``kill``/``recover`` oplog pairs, so the oracle replay sees a
        fully self-organized membership.
        """
        if self._runner is None:
            raise ConfigurationError("injector was never started")
        await self._runner
        await self._queue.put(None)
        assert self._worker is not None
        await self._worker
        for pid in self._autopsies:
            # A mid-burst rejoin of the victim already ran its autopsy
            # (join refuses to resurrect an unannounced corpse).
            if pid in self.cluster._silent_deaths:
                await self.cluster.announce_crash(pid)
                self.applied.append({"at": None, "action": "autopsy", "pid": pid})
        self._autopsies.clear()
        return self.applied

    # -- internals ----------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        for event in self.events:
            delay = t0 + event.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            pid = self._pick(event)
            if pid is None:
                self.applied.append(
                    {"at": event.at, "action": event.action, "pid": None}
                )
                continue
            if event.action == "kill":
                # Silent: fast synchronous retire, no broadcast, no
                # recovery.  The announce half runs in finalize().
                await self.cluster.crash(pid, announce=False)
                self._autopsies.append(pid)
                self.applied.append({"at": event.at, "action": "kill", "pid": pid})
            else:
                # Announced §5 ops drain internally — serialize them on
                # the worker so two recoveries never interleave.
                await self._queue.put((event.action, pid))

    async def _work(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                return
            action, pid = item
            if action == "crash":
                await self.cluster.crash(pid)
            elif action == "join":
                await self.cluster.join(pid)
            else:
                await self.cluster.leave(pid)
            self.applied.append({"at": None, "action": action, "pid": pid})

    def _pick(self, event: ChurnEvent) -> int | None:
        """Resolve the event's victim against the *current* membership."""
        live = sorted(self.cluster.nodes)
        if event.action == "join":
            total = 1 << self.cluster.config.m
            dead = sorted(set(range(total)) - set(live))
            if event.pid is not None:
                return event.pid if event.pid in dead else None
            return self._rng.choice(dead) if dead else None
        if len(live) <= self.min_live:
            return None
        if event.pid is not None:
            return event.pid if event.pid in live else None
        return self._rng.choice(live)
