"""The scenario model: serializable event sequences over a live system.

A :class:`Scenario` is a fully deterministic script — a system header
(``m``, ``b``, initially dead PIDs, RNG seed) plus an ordered list of
:class:`ScenarioEvent`\\ s.  The same scenario always produces the same
system trajectory, which is what makes shrinking and replay possible.

Events are applied *best-effort*: an event whose preconditions no
longer hold (a get at a dead entry, a replicate of an uninserted file)
is deterministically skipped rather than raising.  That robustness is
what lets the delta-debugging shrinker delete arbitrary prefixes of a
failing sequence and still run the remainder.

A scenario may carry a ``mutation`` tag — a named, deliberately wrong
behaviour injected at the application layer (used by the test suite to
prove the fuzzer catches real bugs; never set in production runs).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any

from ..cluster.system import LessLogSystem
from ..core.errors import ConfigurationError, FileNotFoundInSystemError
from ..net.message import Message, MessageKind
from ..net.reliability import RequestTracker, RetryPolicy
from ..net.topology import ConstantLatency
from ..net.transport import Transport
from ..node.storage import FileOrigin
from ..sim.engine import Engine
from ..sim.rng import derive_seed
from ..sim.trace import Tracer

__all__ = [
    "MUTATIONS",
    "Scenario",
    "ScenarioEvent",
    "ScenarioHarness",
    "generate_scenario",
]

_FORMAT_VERSION = 1

#: Transport address of the client edge (matches the DES driver's).
_CLIENT = -1

#: Named fault injections the harness understands (test-only knobs).
MUTATIONS = (
    "misplace-replica",
    "skip-update",
    "conflate-drops",
    "drop-timeout",
    "phantom-shed",
    "stale-hint",
    "drop-admin-frame",
    "forget-placement",
)

#: Runtime counters a live op must leave at zero.  The runtime counts
#: a node handler that raised, or a frame that would not decode, and
#: carries on; a probe that ignored them would pass a swallowed bug.
_FAULT_COUNTERS = ("handler_errors", "wire_decode_errors")

#: Request timeouts (seconds) of the in-process and fleet bursts.
_LIVE_CLUSTER_TIMEOUT = 2.0
_LIVE_SCALEOUT_TIMEOUT = 5.0


def _traceback_tail(text: str) -> str:
    """A formatted traceback's last frame and exception line, joined."""
    lines = text.strip().splitlines()
    frames = [line.strip() for line in lines if line.lstrip().startswith("File ")]
    tail = lines[-1] if lines else "?"
    return f"{frames[-1]}: {tail}" if frames else tail


@dataclass(frozen=True)
class ScenarioEvent:
    """One step of a scenario: an operation plus its parameters."""

    op: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"op": self.op, **self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioEvent":
        params = {k: v for k, v in data.items() if k != "op"}
        return cls(op=str(data["op"]), params=params)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.op}({inner})"


@dataclass
class Scenario:
    """A deterministic script: system header + event list."""

    m: int
    b: int
    seed: int
    dead: list[int] = field(default_factory=list)
    mutation: str | None = None
    events: list[ScenarioEvent] = field(default_factory=list)

    def with_events(self, events: list[ScenarioEvent]) -> "Scenario":
        """A copy of this scenario running a different event list."""
        return Scenario(
            m=self.m, b=self.b, seed=self.seed, dead=list(self.dead),
            mutation=self.mutation, events=list(events),
        )

    def to_dict(self) -> dict:
        return {
            "format": _FORMAT_VERSION,
            "m": self.m,
            "b": self.b,
            "seed": self.seed,
            "dead": sorted(self.dead),
            "mutation": self.mutation,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if data.get("format") != _FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported scenario format {data.get('format')!r}"
            )
        return cls(
            m=int(data["m"]),
            b=int(data["b"]),
            seed=int(data["seed"]),
            dead=[int(p) for p in data.get("dead", [])],
            mutation=data.get("mutation"),
            events=[ScenarioEvent.from_dict(e) for e in data.get("events", [])],
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))


class ScenarioHarness:
    """Builds the system under test and applies scenario events to it.

    Owns the full stack the fuzzer exercises: the synchronous
    :class:`LessLogSystem` (with tracing enabled so metric/trace
    reconciliation is checkable), plus a :class:`Transport` over a
    discrete-event :class:`Engine` sharing the system's metrics and
    tracer — the ``net`` event drives lossy/dead deliveries through it.
    """

    def __init__(self, scenario: Scenario) -> None:
        if scenario.mutation is not None and scenario.mutation not in MUTATIONS:
            raise ConfigurationError(
                f"unknown mutation {scenario.mutation!r}; known: {MUTATIONS}"
            )
        self.scenario = scenario
        self.tracer = Tracer(enabled=True)
        self.system = LessLogSystem.build(
            m=scenario.m,
            b=scenario.b,
            dead=set(scenario.dead),
            seed=scenario.seed,
            tracer=self.tracer,
        )
        self.engine = Engine()
        self.transport = Transport(
            self.engine,
            latency=ConstantLatency(0.01),
            rng=random.Random(scenario.seed ^ 0x5EED),
            metrics=self.system.metrics,
            tracer=self.tracer,
        )
        self.reliability = RequestTracker(
            self.engine,
            metrics=self.system.metrics,
            tracer=self.tracer,
            seed=derive_seed(scenario.seed, "retry-jitter"),
            liveness=self.system.is_live,
        )
        self.transport.register(_CLIENT, self._client_edge)
        self.applied = 0
        self.skipped = 0
        self.last_replica_target: int | None = None
        self.live_reports: list[Any] = []
        """One conformance report per applied ``live_cluster`` /
        ``live_scaleout`` event, in order (audited by the
        runtime-oracle-conformance invariant)."""
        self.load_reports: list[dict[str, Any]] = []
        """One client-side ledger per burst those events fired, in order
        (audited by overload-shed-conservation, stale-redirect and
        scaleout-lifecycle-conservation)."""

    def _client_edge(self, message: Message) -> None:
        """The client endpoint: any reply settles its tracked request.

        An ``OVERLOAD`` reply is not a completion — it hands the tracker
        the shedder's redirect hint so the request either retries at the
        hinted replica or terminates in the shed-letter queue.
        """
        if message.kind in (MessageKind.GET_REPLY, MessageKind.GET_FAULT):
            self.reliability.complete(message.request_id)
        elif message.kind is MessageKind.OVERLOAD:
            payload = message.payload if isinstance(message.payload, dict) else {}
            redirect = payload.get("redirect")
            self.reliability.on_overload(
                message.request_id,
                redirect=redirect if isinstance(redirect, int) else None,
            )

    # -- precondition probes (shared with invariants) ----------------------

    def _usable_file(self, name: str) -> bool:
        system = self.system
        return name in system.catalog and name not in system.faults

    def peek_replicate(self, event: ScenarioEvent) -> tuple[str, int] | None:
        """The (file, source holder) a replicate event would act on.

        Deterministic and side-effect-free, so invariants can observe
        pre-step state (e.g. the pre-replication load) for exactly the
        replication the harness is about to perform.
        """
        name = event.params["file"]
        if not self._usable_file(name):
            return None
        holders = self.system.holders_of(name)
        if not holders:
            return None
        return name, holders[event.params.get("holder", 0) % len(holders)]

    # -- event application --------------------------------------------------

    def apply(self, event: ScenarioEvent) -> bool:
        """Apply one event; returns whether it ran (vs. was skipped)."""
        handler = getattr(self, f"_apply_{event.op}", None)
        if handler is None:
            raise ConfigurationError(f"unknown scenario op {event.op!r}")
        self.last_replica_target = None
        ran = bool(handler(event))
        if ran:
            self.applied += 1
        else:
            self.skipped += 1
        return ran

    def _apply_insert(self, event: ScenarioEvent) -> bool:
        name = event.params["file"]
        if name in self.system.catalog:
            return False
        self.system.insert(name, payload=f"{name}@v1")
        return True

    def _apply_get(self, event: ScenarioEvent) -> bool:
        name, entry = event.params["file"], event.params["entry"]
        if not self._usable_file(name) or not self.system.is_live(entry):
            return False
        try:
            self.system.get(name, entry=entry)
        except FileNotFoundInSystemError:
            # A routing fault on a non-lost file is a violation — the
            # routing invariant reports it; accounting stays consistent.
            pass
        return True

    def _apply_update(self, event: ScenarioEvent) -> bool:
        name = event.params["file"]
        if not self._usable_file(name):
            return False
        version = self.system.catalog[name].version + 1
        payload = f"{name}@v{version}"
        if self.scenario.mutation == "skip-update":
            return self._mutated_skip_update(name, payload)
        self.system.update(name, payload=payload)
        return True

    def _apply_replicate(self, event: ScenarioEvent) -> bool:
        resolved = self.peek_replicate(event)
        if resolved is None:
            return False
        name, source = resolved
        if self.scenario.mutation == "misplace-replica":
            return self._mutated_misplace(name, source)
        self.last_replica_target = self.system.replicate(name, overloaded=source)
        return True

    def _apply_remove_replica(self, event: ScenarioEvent) -> bool:
        name = event.params["file"]
        if not self._usable_file(name):
            return False
        system = self.system
        replicas = [
            pid
            for pid in system.holders_of(name)
            if system.stores[pid].get(name, count_access=False).origin
            is FileOrigin.REPLICATED
        ]
        if not replicas:
            return False
        system.remove_replica(name, replicas[event.params.get("index", 0) % len(replicas)])
        return True

    def _apply_join(self, event: ScenarioEvent) -> bool:
        pid = event.params["pid"]
        if self.system.is_live(pid):
            return False
        self.system.join(pid)
        return True

    def _apply_leave(self, event: ScenarioEvent) -> bool:
        pid = event.params["pid"]
        if not self.system.is_live(pid) or self.system.n_live <= 1:
            return False
        self.system.leave(pid)
        return True

    def _apply_fail(self, event: ScenarioEvent) -> bool:
        pid = event.params["pid"]
        if not self.system.is_live(pid) or self.system.n_live <= 1:
            return False
        self.system.fail(pid)
        return True

    def _apply_workload(self, event: ScenarioEvent) -> bool:
        """A burst of client gets: Zipf- or uniform-distributed files."""
        system = self.system
        names = sorted(n for n in system.catalog if n not in system.faults)
        live = sorted(system.membership.live_pids())
        if not names or not live:
            return False
        rng = random.Random(event.params.get("seed", 0))
        if event.params.get("dist", "uniform") == "zipf":
            s = float(event.params.get("zipf_s", 1.0))
            weights = [(rank + 1) ** (-s) for rank in range(len(names))]
        else:
            weights = [1.0] * len(names)
        for _ in range(int(event.params.get("requests", 8))):
            name = rng.choices(names, weights=weights)[0]
            entry = rng.choice(live)
            try:
                system.get(name, entry=entry)
            except FileNotFoundInSystemError:
                pass  # surfaced by the routing invariant
        return True

    def _apply_live_cluster(self, event: ScenarioEvent) -> bool:
        """One seeded probe of the *live asyncio runtime*.

        Boots a small `LiveCluster` (independent of the DES system under
        test — the probe is self-contained) through
        :func:`~repro.runtime.conformance.run_live`: a script over real
        wire frames, an optional burst, one quiesce, and the oracle
        replay of the cluster's op log.

        The script is a generated op sequence when the event names
        ``ops`` (``script_churn``, on by default, mixes in joins, leaves
        and crashes; ``batch_max`` sets the inbox batch depth), else one
        insert per file.  With ``rps`` a hot-skewed open-loop burst
        follows, against bounded inboxes under a shed × queue × victim
        policy cell.  ``burst_churn`` pre-seeds a replica of the hottest
        file (a recorded admin overload trigger) and silently kills
        every holder but one mid-burst — no REGISTER_DEAD goes out, so
        the survivor's shed hints name corpses until discovery catches
        up; ``crash`` / ``join`` add announced events to the same
        seeded schedule.  The autopsies run before the replay.

        Records the conformance report (``runtime-oracle-conformance``)
        and, with a burst, the client-side ledger
        (``overload-shed-conservation``, ``stale-redirect``).
        """
        import asyncio

        from ..runtime.churn import ChurnEvent, ChurnInjector
        from ..runtime.client import LoadGenerator, WorkloadShape
        from ..runtime.cluster import RuntimeConfig
        from ..runtime.conformance import Op, WorkloadSpec, generate_ops, run_live

        params = event.params
        m = max(2, min(int(params.get("m", 3)), 3))
        b = int(params.get("b", 1))
        if not 0 <= b < m:
            b = 0
        seed = int(params.get("seed", 0))
        files = max(1, min(int(params.get("files", 2)), 4))
        burst = "rps" in params
        knobs: dict[str, Any] = {}
        if burst:
            knobs = dict(
                inbox_limit=max(1, min(int(params.get("inbox_limit", 4)), 32)),
                shed_policy=str(params.get("shed", "conservative")),
                queue_policy=str(params.get("queue", "fcfs")),
                victim_policy=str(params.get("victim", "lifo")),
                slo_budget=float(params.get("slo_budget", 0.05)),
                service_time=max(
                    0.0, min(float(params.get("service_time", 0.002)), 0.01)
                ),
            )
        try:
            config = RuntimeConfig(
                m=m, b=b, seed=seed,
                batch_max=max(1, int(params.get("batch_max", 16))), **knobs,
            )
        except ConfigurationError:
            return False  # e.g. an unknown policy cell
        if "ops" in params:
            script = generate_ops(WorkloadSpec(
                m=m, b=b, seed=seed, files=files,
                ops=max(0, min(int(params["ops"]), 24)),
                churn=bool(params.get("script_churn", True)),
            ))
        else:
            script = [
                Op(kind="insert", name=name, payload=f"payload of {name}")
                for name in (f"hot-{i}.dat" for i in range(files))
            ]
        names = [op.name for op in script if op.kind == "insert"]
        churn = burst and bool(params.get("burst_churn"))
        if churn:
            script.append(Op(kind="overload", name=names[0], seed=seed))
        rps = max(20.0, min(float(params.get("rps", 400.0)), 1200.0))
        duration = max(0.05, min(float(params.get("duration", 0.2)), 0.5))

        async def load(cluster):
            schedule = []
            if churn:
                # Kill every holder of the hot file but one: the
                # survivor's fresh holder view goes empty, so its shed
                # hints fall back on cached — now stale — knowledge.
                victims = sorted(cluster.holders(names[0]))[:-1]
                schedule = [
                    ChurnEvent(at=(0.3 + 0.1 * i) * duration, action="kill", pid=v)
                    for i, v in enumerate(victims)
                ]
                if params.get("crash"):
                    schedule.append(ChurnEvent(at=0.55 * duration, action="crash"))
                if params.get("join"):
                    schedule.append(ChurnEvent(at=0.7 * duration, action="join"))
            injector = ChurnInjector(cluster, schedule, seed=seed, min_live=3)
            gen = LoadGenerator(
                cluster, names, WorkloadShape(kind="zipf", s=2.0), seed=seed,
                timeout=_LIVE_CLUSTER_TIMEOUT,
                churn_reroute=self.scenario.mutation != "stale-hint",
            )
            injector.start()
            report = await gen.run_open_loop(rps=rps, duration=duration)
            await gen.close()
            return report, await injector.finalize()

        booted = []

        def on_boot(cluster) -> None:
            booted.append(cluster)
            if self.scenario.mutation == "drop-admin-frame":
                self._mutated_drop_admin_frame(cluster)
            elif self.scenario.mutation == "forget-placement":
                self._mutated_forget_placement(cluster)

        conformance, result = asyncio.run(
            run_live(config, script, load if burst else None, on_boot=on_boot)
        )
        self._record_live(
            conformance, booted[0].counters, booted[0].handler_tracebacks
        )
        if result is not None:
            report, applied = result
            if self.scenario.mutation == "phantom-shed":
                # Bug injection: account a shed that never happened, so
                # the terminal buckets over-count the fired requests.
                report.shed += 1
            self._record_burst(
                report,
                timeout=_LIVE_CLUSTER_TIMEOUT,
                cell=config.overload_policy().cell,
                churn=[f"{e['action']}@P({e['pid']})"
                       for e in applied if e["pid"] is not None],
            )
        return True

    def _record_live(
        self, conformance, counters: dict[str, int], tracebacks
    ) -> None:
        """Keep a live op's verdict, failing it on a swallowed error;
        a handler error names where the first kept traceback raised."""
        for name in _FAULT_COUNTERS:
            if not counters.get(name):
                continue
            line = f"{name}: {counters[name]} swallowed by the runtime"
            if name == "handler_errors" and tracebacks:
                pid, text = tracebacks[0]
                line += f" (first, P({pid}): {_traceback_tail(text)})"
            conformance.mismatches.append(line)
        self.live_reports.append(conformance)

    def _record_burst(self, report, **extra: Any) -> None:
        """Keep a burst's client-side ledger: the report's counters and
        its shortest timeout (``extra`` names the request timeout)."""
        self.load_reports.append({
            **report.to_wire()["counters"], "conserved": report.conserved,
            "timeout_min_s": report.timeout_min_s, **extra,
        })

    def _apply_live_scaleout(self, event: ScenarioEvent) -> bool:
        """A burst against a fleet of *real worker OS processes*: one
        :func:`~repro.runtime.scaleout.run_fleet` probe over loopback TCP,
        optionally ``kill -9``-ing one worker mid-burst, and with
        ``client_shards >= 2`` driven by forked load processes whose
        merged ledger is audited like a single one.  The verdict feeds
        ``runtime-oracle-conformance``; the ledger feeds
        ``overload-shed-conservation`` and
        ``scaleout-lifecycle-conservation``.
        """
        from ..runtime.churn import ChurnEvent
        from ..runtime.cluster import RuntimeConfig
        from ..runtime.scaleout import run_fleet

        params = event.params
        n_nodes = max(3, min(int(params.get("nodes", 4)), 6))
        m = 2
        while (1 << m) < n_nodes:
            m += 1
        config = RuntimeConfig(
            m=m, b=1, seed=int(params.get("seed", 0)), tcp=True,
            capacity=40.0,
            service_time=max(0.0, min(float(params.get("service_time", 0.002)), 0.01)),
            cooldown=0.05,
        )
        files = max(1, min(int(params.get("files", 3)), 4))
        duration = max(0.1, min(float(params.get("duration", 0.3)), 0.5))
        client_shards = max(0, min(int(params.get("client_shards", 0)), 3))
        kills = [
            ChurnEvent(at=duration / 2, action="kill",
                       pid=int(params.get("victim", 0)) % n_nodes)
        ] if params.get("kill") and n_nodes > 3 else []
        run = run_fleet(
            config, n_nodes, [f"so-{i}" for i in range(files)],
            rps=max(20.0, min(float(params.get("rps", 60.0)), 200.0)),
            duration=duration, timeout=_LIVE_SCALEOUT_TIMEOUT,
            client_shards=client_shards, kills=kills,
        )
        self._record_live(
            run.conformance, run.stats.counters, run.stats.handler_tracebacks
        )
        self._record_burst(
            run.report, timeout=_LIVE_SCALEOUT_TIMEOUT, nodes=n_nodes,
            client_shards=client_shards if client_shards >= 2 else 1,
            killed=list(run.killed), goodbyes=len(run.goodbyes),
            expected_goodbyes=n_nodes - len(run.killed),
            left_running=list(run.left_running),
        )
        return True

    def _sync_endpoints(self, handler_factory) -> None:
        """(Re-)register every live PID on the transport; drop dead ones.

        ``handler_factory(pid)`` builds the message handler each live
        node runs for the next burst — a sink for raw net probes, the
        serving loop for reliable workloads.
        """
        for pid in range(1 << self.system.m):
            if self.system.is_live(pid):
                self.transport.register(pid, handler_factory(pid))
            elif self.transport.is_registered(pid):
                self.transport.unregister(pid)

    def _apply_net(self, event: ScenarioEvent) -> bool:
        """A burst of raw transport sends under loss, then drain.

        Destinations are drawn from the *whole* identifier space, so
        some deliveries hit unregistered (dead) endpoints — exercising
        both drop reasons that the reconciliation invariants audit.
        """
        system, transport = self.system, self.transport
        n = 1 << system.m
        self._sync_endpoints(lambda pid: lambda message: None)
        transport.loss_rate = float(event.params.get("loss_rate", 0.0))
        rng = random.Random(event.params.get("seed", 0))
        for _ in range(int(event.params.get("messages", 10))):
            transport.send(
                Message(
                    MessageKind.GET,
                    src=rng.randrange(n),
                    dst=rng.randrange(n),
                    file="net-probe",
                )
            )
        self.engine.run()
        if self.scenario.mutation == "conflate-drops":
            # Bug injection: account a dead-drop under the loss reason
            # without a matching trace record (the pre-fix conflation).
            system.metrics.counter("transport.dropped.loss").inc()
        return True

    def _serve_get(
        self, pid: int, shed_rate: float = 0.0, shed_rng=None,
        stale_rate: float = 0.0,
    ):
        """Handler a live node runs during a reliable workload: resolve
        the request through the system's own routing walk and reply to
        the client over the (lossy) transport.

        With ``shed_rate > 0`` the node models admission-control
        pressure: it refuses that fraction of GETs with an ``OVERLOAD``
        reply carrying a redirect hint (another live holder, or ``-1``
        when it knows none) — the DES dual of the live runtime's
        bounded-inbox shed path.  With ``stale_rate > 0`` that fraction
        of the hints instead names a *dead* PID, modelling a shedder
        whose status word has not yet processed a silent crash — the
        tracker's liveness oracle must dodge those (reroute or
        churn-lose), never fire at the corpse.
        """

        def handle(message: Message) -> None:
            if message.kind is not MessageKind.GET:
                return
            if shed_rate and shed_rng is not None and shed_rng.random() < shed_rate:
                alternates = sorted(
                    h
                    for h in self.system.holders_of(message.file)
                    if h != pid and self.system.is_live(h)
                ) if message.file in self.system.catalog else []
                redirect = (
                    alternates[shed_rng.randrange(len(alternates))]
                    if alternates
                    else -1
                )
                if stale_rate and shed_rng.random() < stale_rate:
                    dead = sorted(
                        p for p in range(1 << self.system.m)
                        if not self.system.is_live(p)
                    )
                    if dead:
                        redirect = dead[shed_rng.randrange(len(dead))]
                self.transport.send(
                    message.reply(
                        MessageKind.OVERLOAD,
                        payload={"shed_by": pid, "redirect": redirect},
                    )
                )
                return
            result = self.system.resolve(message.file, entry=pid)
            kind = (
                MessageKind.GET_FAULT if result is None else MessageKind.GET_REPLY
            )
            self.transport.send(message.reply(kind))

        return handle

    def _apply_reliable_workload(self, event: ScenarioEvent) -> bool:
        """Client GETs driven through the request-reliability layer.

        Each request rides the lossy transport with a per-attempt
        deadline; on timeout it retries with backoff, re-resolving its
        entry through ``LessLogSystem.retry_entry`` (the ``FINDLIVENODE``
        dual) — with ``entries="all"`` some requests deliberately enter
        at dead PIDs and must route around them.  The engine drains
        fully, so every request ends the event completed or
        dead-lettered; the ``request-lifecycle-conservation`` invariant
        audits exactly that.
        """
        system, transport = self.system, self.transport
        names = sorted(n for n in system.catalog if n not in system.faults)
        live = sorted(system.membership.live_pids())
        if not names or not live:
            return False
        shed_rate = max(0.0, min(float(event.params.get("shed_rate", 0.0)), 1.0))
        stale_rate = max(0.0, min(float(event.params.get("stale_hint_rate", 0.0)), 1.0))
        shed_rng = random.Random(int(event.params.get("seed", 0)) ^ 0x0F_F10AD)
        self._sync_endpoints(
            lambda pid: self._serve_get(
                pid, shed_rate=shed_rate, shed_rng=shed_rng, stale_rate=stale_rate
            )
        )
        transport.loss_rate = float(event.params.get("loss_rate", 0.0))
        policy = RetryPolicy(
            timeout=float(event.params.get("timeout", 0.05)),
            max_attempts=int(event.params.get("max_attempts", 5)),
            backoff_base=float(event.params.get("backoff", 0.01)),
            jitter=float(event.params.get("jitter", 0.1)),
        )
        pool = (
            live
            if event.params.get("entries", "live") == "live"
            else sorted(range(1 << system.m))
        )
        rng = random.Random(event.params.get("seed", 0))
        for _ in range(int(event.params.get("requests", 8))):
            name = rng.choice(names)
            entry = rng.choice(pool)
            self.reliability.issue(
                Message(MessageKind.GET, src=_CLIENT, dst=entry, file=name),
                send=transport.send,
                reroute=lambda e, name=name: self.system.retry_entry(name, e),
                policy=policy,
            )
        if self.scenario.mutation == "drop-timeout":
            self._mutated_drop_timeout(policy)
        self.engine.run()
        return True

    # -- mutations (deliberate bugs, test-only) ------------------------------

    @staticmethod
    def _mutated_drop_admin_frame(cluster) -> None:
        """Make the wire swallow the first copy the coordinator sends.

        One real store then never gets what the oplog says it got —
        exactly the kind of fault the conformance diff exists to find
        now that mirror and oplog agree by construction.
        """
        from ..runtime.cluster import ADMIN

        send, armed = cluster.send, [True]

        async def lossy_send(src: int, msg: Message) -> None:
            if armed and src == ADMIN and msg.kind in (
                MessageKind.REPLICATE, MessageKind.TRANSFER
            ):
                armed.clear()
                return
            await send(src, msg)

        cluster.send = lossy_send

    @staticmethod
    def _mutated_forget_placement(cluster) -> None:
        """Make every placement decision answer "no target" to its node.

        The copy is still placed, but the decider's placed set never
        records it, so its UPDATE fan-out skips the new holder — which
        keeps a stale version that the conformance diff must find.
        """
        decide = cluster.decide_replication

        async def forgetful_decide(name, holder, seed):
            await decide(name, holder, seed)
            return None

        cluster.decide_replication = forgetful_decide

    def _mutated_drop_timeout(self, policy: RetryPolicy) -> None:
        """Issue a doomed request, then lose its timeout event.

        The destination is never registered, so the GET always drops as
        ``dead``; with the deadline cancelled the request can neither
        complete nor expire — it is stuck inflight after the engine
        drains, which is exactly what the lifecycle invariant forbids.
        """
        message = Message(MessageKind.GET, src=_CLIENT, dst=-2, file="doomed")
        self.reliability.issue(message, send=self.transport.send, policy=policy)
        self.reliability._inflight[message.request_id].pending.cancel()

    def _mutated_misplace(self, name: str, source: int) -> bool:
        """Place an INSERTED-origin copy at a deterministic wrong node."""
        system = self.system
        from ..core.subtree import SubtreeView, subtree_of_pid

        entry = system.catalog[name]
        tree = system.tree(entry.target)
        for pid in sorted(system.membership.live_pids(), reverse=True):
            view = SubtreeView(tree, system.b, subtree_of_pid(tree, pid, system.b))
            if view.storage_node(system.membership) != pid and name not in system.stores[pid]:
                source_file = system.stores[source].get(name, count_access=False)
                system.stores[pid].store(
                    name, source_file.payload, source_file.version,
                    FileOrigin.INSERTED, system.now,
                )
                system.metrics.counter("system.replications").inc()
                system.tracer.emit(
                    system.now, "replicate", file=name, source=source, target=pid
                )
                self.last_replica_target = pid
                return True
        return False

    def _mutated_skip_update(self, name: str, payload: str) -> bool:
        """Run the update broadcast but skip the last reachable holder."""
        system = self.system
        catalog_entry = system.catalog[name]
        holders = system.reachable_holders(name)
        if len(holders) < 2:
            system.update(name, payload=payload)
            return True
        catalog_entry.version += 1
        for pid in holders[:-1]:
            system.stores[pid].update(name, payload, catalog_entry.version)
        system.metrics.counter("system.updates").inc()
        system.tracer.emit(
            system.now, "update", file=name, version=catalog_entry.version,
            updated=holders[:-1],
        )
        return True


def generate_scenario(
    seed: int,
    m: int = 5,
    b: int = 1,
    n_events: int = 40,
    mutation: str | None = None,
    max_files: int = 12,
) -> Scenario:
    """A seeded random scenario: churn, workloads, net bursts, file ops.

    Generation tracks a lightweight membership/catalog model so most
    events are applicable when they run, but the harness's best-effort
    semantics mean that is an optimization, not a requirement.
    """
    rng = random.Random(seed)
    n = 1 << m
    dead = sorted(rng.sample(range(n), rng.randint(0, max(1, n // 4))))
    live = set(range(n)) - set(dead)
    names: list[str] = []
    counter = 0
    events: list[ScenarioEvent] = []

    # Draw labels, not event ops: the three in-process live_* labels
    # all emit ``live_cluster`` events, but keep their own entries and
    # weights so every seed draws the stream it always drew.
    ops = ["insert", "get", "update", "replicate", "remove_replica",
           "join", "leave", "fail", "workload", "net", "reliable_workload",
           "live_segment", "live_overload", "live_churn_overload",
           "live_scaleout"]
    weights = [14, 18, 10, 12, 4, 8, 6, 6, 12, 10, 10, 2, 2, 2, 1]

    def any_file() -> str | None:
        return rng.choice(names) if names else None

    for _ in range(n_events):
        op = rng.choices(ops, weights=weights)[0]
        if op == "insert":
            if len(names) >= max_files:
                continue
            name = f"f{counter}"
            counter += 1
            names.append(name)
            events.append(ScenarioEvent("insert", {"file": name}))
        elif op in ("get", "update", "replicate", "remove_replica"):
            name = any_file()
            if name is None:
                continue
            params: dict[str, Any] = {"file": name}
            if op == "get":
                params["entry"] = rng.choice(sorted(live)) if live else 0
            elif op == "replicate":
                params["holder"] = rng.randrange(n)
            elif op == "remove_replica":
                params["index"] = rng.randrange(n)
            events.append(ScenarioEvent(op, params))
        elif op == "join":
            candidates = sorted(set(range(n)) - live)
            if not candidates:
                continue
            pid = rng.choice(candidates)
            live.add(pid)
            events.append(ScenarioEvent("join", {"pid": pid}))
        elif op in ("leave", "fail"):
            if len(live) <= 1:
                continue
            pid = rng.choice(sorted(live))
            live.discard(pid)
            events.append(ScenarioEvent(op, {"pid": pid}))
        elif op == "workload":
            dist = rng.choice(["zipf", "uniform"])
            params = {
                "dist": dist,
                "requests": rng.randint(4, 16),
                "seed": rng.randrange(1 << 30),
            }
            if dist == "zipf":
                params["zipf_s"] = round(rng.uniform(0.5, 1.5), 3)
            events.append(ScenarioEvent("workload", params))
        elif op == "net":
            events.append(
                ScenarioEvent(
                    "net",
                    {
                        "messages": rng.randint(5, 20),
                        "loss_rate": round(rng.uniform(0.0, 0.4), 3),
                        "seed": rng.randrange(1 << 30),
                    },
                )
            )
        elif op == "reliable_workload":
            events.append(
                ScenarioEvent(
                    "reliable_workload",
                    {
                        "requests": rng.randint(4, 12),
                        "loss_rate": round(rng.uniform(0.0, 0.3), 3),
                        "max_attempts": rng.randint(1, 6),
                        "entries": rng.choice(["live", "live", "all"]),
                        "shed_rate": rng.choice([0.0, 0.0, 0.15, 0.3]),
                        "stale_hint_rate": rng.choice([0.0, 0.0, 0.25]),
                        "seed": rng.randrange(1 << 30),
                    },
                )
            )
        elif op in ("live_overload", "live_churn_overload"):
            # A flash-crowd burst against one policy cell; the churned
            # label adds mid-burst kills (and maybe a crash or a join).
            params = {
                "shed": rng.choice(["conservative", "aggressive"]),
                "queue": rng.choice(["fcfs", "priority"]),
                "victim": rng.choice(["lifo", "fifo", "random"]),
                "inbox_limit": rng.randint(2, 8),
                "files": rng.randint(1, 3),
                "rps": float(rng.choice([200, 400, 800])),
                "duration": 0.15,
            }
            if op == "live_churn_overload":
                params.update(
                    duration=0.25, burst_churn=True,
                    crash=rng.random() < 0.5, join=rng.random() < 0.3,
                )
            params["seed"] = rng.randrange(1 << 30)
            events.append(ScenarioEvent("live_cluster", params))
        elif op == "live_scaleout":  # real worker OS processes over TCP
            params = {
                "nodes": rng.randint(4, 6),
                "files": rng.randint(2, 4),
                "rps": float(rng.choice([40, 60, 100])),
                "duration": 0.3,
                "kill": rng.random() < 0.5,
                "victim": rng.randrange(8),
                "seed": rng.randrange(1 << 30),
            }
            # Derived, not drawn: an extra rng draw here would shift
            # every op choice after this one and invalidate
            # seed-pinned regressions.
            params["client_shards"] = 2 if params["seed"] % 3 == 0 else 0
            events.append(ScenarioEvent("live_scaleout", params))
        else:  # live_segment — a scripted live-runtime probe
            params = {
                "m": 3,
                "b": rng.choice([0, 1]),
                "files": rng.randint(2, 4),
                "ops": rng.randint(6, 14),
            }
            # Two retired parameters' draws, still taken: skipping them
            # would shift every choice after them, like the extra draw
            # above.
            rng.random()
            rng.choice([0, 4096])
            params["seed"] = rng.randrange(1 << 30)
            events.append(ScenarioEvent("live_cluster", params))
    return Scenario(
        m=m, b=b, seed=seed, dead=dead, mutation=mutation, events=events
    )
