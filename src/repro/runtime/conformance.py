"""Oracle conformance: the live runtime must equal the synchronous model.

The live cluster's `Coordinator` records every placement-mutating
decision in its operation log (:class:`repro.runtime.coordinator.OpRecord`):
inserts, updates (with the assigned version), replicate decisions (with
the deciding holder and the rng seed the policy drew from), and churn.
:func:`replay_oplog` feeds that log, in decision order, through a fresh
coordinator's :class:`LessLogSystem` — the oracle — and
:func:`diff_states` compares final state field by field, with
placement and per-node words read off the real node stores:

* **replica placement** — file → {holder PID → inserted/replicated},
* **version map** — file → catalog version, and the version each real
  holder keeps against its oracle copy (a missed UPDATE shows here),
* **membership** — the authoritative §5 status word, and every live
  node's own word (broadcasts must have converged),
* **faults** — files lost to churn.

A clean diff means the asyncio service — frames, per-node tasks,
reroutes and all — implements exactly the paper's algorithms as the
synchronous model states them.

Determinism caveat: replication decisions taken *concurrently* with an
in-flight update can copy the pre-update version, which the sequential
oracle cannot express.  :func:`apply_ops` therefore drains the cluster
between operations; load *bursts* (many concurrent GETs) are fine —
GETs do not mutate placement, and recorded holders/seeds make the
sweeper's autonomous decisions replayable.

:func:`run_live` is the one in-process run every caller shares — the
conformance driver, ``lesslog loadgen`` and the fuzzer's
``live_cluster`` op: boot, apply a script, optionally drive load,
quiesce once, and return the oracle verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from ..cluster.system import LessLogSystem
from ..core.errors import ConfigurationError
from .client import RuntimeClient
from .cluster import LiveCluster, RuntimeConfig
from .coordinator import Coordinator, OpRecord

__all__ = [
    "Op",
    "WorkloadSpec",
    "generate_ops",
    "apply_ops",
    "replay_oplog",
    "ClusterStateSnapshot",
    "snapshot_of",
    "diff_snapshot",
    "diff_states",
    "verify_snapshot",
    "ConformanceReport",
    "run_live",
    "run_conformance",
]


@dataclass(frozen=True)
class Op:
    """One scripted operation against the live cluster."""

    kind: str  # insert | get | update | overload | join | leave | crash
    name: str = ""
    payload: Any = None
    pid: int = -1
    seed: int = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """A seeded conformance scenario."""

    m: int
    b: int = 0
    seed: int = 0
    files: int = 6
    ops: int = 40
    churn: bool = True
    min_live: int = 3

    def __post_init__(self) -> None:
        if self.files < 1 or self.ops < 0:
            raise ConfigurationError("files must be >= 1 and ops >= 0")
        if self.min_live < 1:
            raise ConfigurationError("min_live must be >= 1")


def generate_ops(spec: WorkloadSpec) -> list[Op]:
    """A seeded op sequence: inserts first, then a mixed tail.

    Tracks the live set so churn ops stay legal (join a dead PID,
    leave/crash a live one, never below ``min_live``) and entry nodes
    are live at issue time.
    """
    rng = random.Random(spec.seed)
    total = 1 << spec.m
    live = set(range(total))
    names = [f"file-{spec.seed}-{i}" for i in range(spec.files)]
    ops = [Op(kind="insert", name=name, payload=f"v1:{name}") for name in names]
    kinds = ["get", "get", "get", "update", "overload"]
    if spec.churn:
        kinds += ["join", "leave", "crash"]
    for step in range(spec.ops):
        kind = rng.choice(kinds)
        if kind in ("leave", "crash") and len(live) <= spec.min_live:
            kind = "get"
        if kind == "join" and len(live) == total:
            kind = "get"
        name = rng.choice(names)
        if kind == "get":
            ops.append(Op(kind="get", name=name))
        elif kind == "update":
            ops.append(Op(kind="update", name=name, payload=f"v@{step}:{name}"))
        elif kind == "overload":
            ops.append(Op(kind="overload", name=name, seed=rng.randrange(1 << 30)))
        elif kind == "join":
            pid = rng.choice(sorted(set(range(total)) - live))
            live.add(pid)
            ops.append(Op(kind="join", pid=pid))
        else:  # leave | crash
            pid = rng.choice(sorted(live))
            live.discard(pid)
            ops.append(Op(kind=kind, pid=pid))
    return ops


async def apply_ops(cluster: LiveCluster, ops: list[Op], seed: int = 0) -> None:
    """Drive a live cluster through ``ops``, draining between each.

    Client operations enter at a seeded live node over a real client
    connection; OVERLOAD ops resolve their holder deterministically
    (sorted holders, indexed by the op seed) and fire the admin knob.
    Autonomous replication stays on: :func:`run_live` quiesces once,
    after any load that follows the script.
    """
    rng = random.Random(seed ^ 0x5EED)
    for op in ops:
        if op.kind in ("insert", "get", "update"):
            entry = rng.choice(sorted(cluster.nodes))
            client = await RuntimeClient(cluster, entry).connect()
            try:
                if op.kind == "insert":
                    await client.insert(op.name, op.payload)
                elif op.kind == "get":
                    await client.get(op.name)
                else:
                    await client.update(op.name, op.payload)
            finally:
                await client.close()
            await cluster.drain()
        elif op.kind == "overload":
            holders = sorted(cluster.holders(op.name))
            if not holders:
                continue
            holder = holders[op.seed % len(holders)]
            await cluster.trigger_overload(holder, op.name, op.seed)
            await cluster.drain()
        elif op.kind == "join":
            await cluster.join(op.pid)
        elif op.kind == "leave":
            await cluster.leave(op.pid)
        elif op.kind == "crash":
            await cluster.crash(op.pid)
        else:  # pragma: no cover - generator never emits others
            raise ConfigurationError(f"unknown op kind {op.kind!r}")


def replay_oplog(
    oplog: list[OpRecord], config: RuntimeConfig, initial_live: tuple[int, ...]
) -> LessLogSystem:
    """Replay a live cluster's operation log through the oracle: a
    fresh `Coordinator` applies each record, in order, exactly as the
    live one did (:meth:`Coordinator.apply` knows every record kind)."""
    oracle = Coordinator(config, initial_live)
    for rec in oplog:
        oracle.apply(rec)
    return oracle.mirror


@dataclass
class ConformanceReport:
    """Field-by-field comparison of live cluster vs oracle."""

    mismatches: list[str] = field(default_factory=list)
    ops_replayed: int = 0
    files: int = 0
    replicas: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        head = (
            f"conformance: {self.ops_replayed} ops replayed, "
            f"{self.files} files, {self.replicas} replicas created"
        )
        if self.ok:
            return f"{head} -- OK"
        lines = [f"{head} -- {len(self.mismatches)} MISMATCH(ES)"]
        lines += [f"  - {m}" for m in self.mismatches]
        return "\n".join(lines)


@dataclass
class ClusterStateSnapshot:
    """Everything the conformance diff reads, detached from live objects.

    A single-process run takes it straight off the `LiveCluster`
    (:func:`snapshot_of`); a scale-out run assembles the same shape
    from per-worker store reports plus the bootstrap's catalog and
    oplog, then both flow through :func:`diff_snapshot`.  The snapshot
    also carries the oplog and replay inputs so :func:`verify_snapshot`
    is self-contained.
    """

    config: RuntimeConfig
    initial_live: tuple[int, ...]
    oplog: list[OpRecord]
    live_pids: set[int]
    node_words: dict[int, set[int]]
    """PID → that node's *own* word's live set (broadcast convergence)."""
    catalog: set[str]
    versions: dict[str, int]
    placement: dict[str, dict[int, str]]
    faults: list[str]
    replicas_created: int = 0
    held: dict[str, dict[int, int]] = field(default_factory=dict)
    """File → {holder PID → the version its real store keeps}."""


def snapshot_of(cluster: LiveCluster) -> ClusterStateSnapshot:
    """Freeze a quiesced in-process cluster for the conformance diff."""
    mirror = cluster.coordinator.mirror
    placement = cluster.placement()
    return ClusterStateSnapshot(
        config=cluster.config,
        initial_live=cluster.initial_live,
        oplog=list(cluster.oplog),
        live_pids=set(mirror.membership.live_pids()),
        node_words={
            pid: set(node.word.live_pids())
            for pid, node in sorted(cluster.nodes.items())
        },
        catalog=set(mirror.catalog),
        versions=cluster.version_map(),
        placement=placement,
        faults=list(mirror.faults),
        replicas_created=cluster.replicas_created(),
        held={
            name: {
                pid: cluster.nodes[pid].store.get(name, count_access=False).version
                for pid in holders
            }
            for name, holders in placement.items()
        },
    )


def diff_snapshot(
    snap: ClusterStateSnapshot, system: LessLogSystem
) -> ConformanceReport:
    """Compare a cluster-state snapshot against a replayed oracle."""
    report = ConformanceReport(
        ops_replayed=len(snap.oplog),
        files=len(snap.catalog),
        replicas=snap.replicas_created,
    )
    bad = report.mismatches

    live_pids = snap.live_pids
    oracle_pids = set(system.membership.live_pids())
    if live_pids != oracle_pids:
        bad.append(
            f"membership: live word {sorted(live_pids)} != "
            f"oracle {sorted(oracle_pids)}"
        )
    for pid in sorted(snap.node_words):
        node_view = snap.node_words[pid]
        if node_view != live_pids:
            bad.append(
                f"membership: P({pid})'s word {sorted(node_view)} diverges "
                f"from authoritative {sorted(live_pids)}"
            )

    live_files = snap.catalog
    oracle_files = set(system.catalog)
    if live_files != oracle_files:
        bad.append(
            f"catalog: live {sorted(live_files)} != oracle {sorted(oracle_files)}"
        )

    oracle_versions = {n: e.version for n, e in system.catalog.items()}
    for name in sorted(live_files & oracle_files):
        if snap.versions[name] != oracle_versions[name]:
            bad.append(
                f"version: {name!r} live v{snap.versions[name]} != "
                f"oracle v{oracle_versions[name]}"
            )

    for name in sorted(live_files & oracle_files):
        oracle_holders = {
            pid: system.stores[pid].get(name, count_access=False).origin.value
            for pid in system.holders_of(name)
        }
        if snap.placement.get(name, {}) != oracle_holders:
            bad.append(
                f"placement: {name!r} live {snap.placement.get(name, {})} != "
                f"oracle {oracle_holders}"
            )
        for pid, version in sorted(snap.held.get(name, {}).items()):
            if pid not in oracle_holders:
                continue
            want = system.stores[pid].get(name, count_access=False).version
            if version != want:
                bad.append(
                    f"version: {name!r} at P({pid}) live v{version} != "
                    f"oracle v{want}"
                )

    if sorted(snap.faults) != sorted(system.faults):
        bad.append(
            f"faults: live {sorted(snap.faults)} != oracle {sorted(system.faults)}"
        )
    return report


def verify_snapshot(snap: ClusterStateSnapshot) -> ConformanceReport:
    """Replay a snapshot's own oplog through a fresh oracle and diff it.

    The one call the scale-out bench and supervisor need: the snapshot
    carries config, initial membership, and the decision-ordered oplog,
    so central replay needs nothing else from the (now dead) processes.
    """
    system = replay_oplog(snap.oplog, snap.config, snap.initial_live)
    system.check_invariants()
    return diff_snapshot(snap, system)


def diff_states(cluster: LiveCluster, system: LessLogSystem) -> ConformanceReport:
    """Compare a quiesced live cluster against a replayed oracle."""
    return diff_snapshot(snapshot_of(cluster), system)


async def run_live(
    config: RuntimeConfig,
    script: list[Op],
    load: Callable[[LiveCluster], Awaitable[Any]] | None = None,
    *,
    on_boot: Callable[[LiveCluster], None] | None = None,
) -> tuple[ConformanceReport, Any]:
    """Boot a cluster, run ``script`` then ``load``, and diff it.

    In order: boot a `LiveCluster` (handed to ``on_boot`` first, if
    given), apply the scripted ops with :func:`apply_ops`, await
    ``load(cluster)`` (a burst plus any churn schedule), quiesce once,
    and replay the oplog through the oracle.  Returns the conformance
    report and whatever ``load`` returned (``None`` without one); the
    cluster is shut down however the run ends.
    """
    cluster = await LiveCluster.start(config)
    try:
        if on_boot is not None:
            on_boot(cluster)
        await apply_ops(cluster, script, seed=config.seed)
        result = None if load is None else await load(cluster)
        await cluster.quiesce()
        return verify_snapshot(snapshot_of(cluster)), result
    finally:
        await cluster.shutdown()


async def run_conformance(
    spec: WorkloadSpec, config: RuntimeConfig | None = None
) -> ConformanceReport:
    """End to end: generate, run live, replay through the oracle, diff.

    ``config`` overrides the cluster's runtime knobs (batching,
    service time, ...); its ``m``/``b``/``seed`` must match the
    spec's so the generated workload stays legal.
    """
    if config is None:
        config = RuntimeConfig(m=spec.m, b=spec.b, seed=spec.seed)
    elif (config.m, config.b, config.seed) != (spec.m, spec.b, spec.seed):
        raise ConfigurationError(
            "run_conformance: config m/b/seed must match the workload spec"
        )
    report, _ = await run_live(config, generate_ops(spec))
    return report
