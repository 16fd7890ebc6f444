"""The invariant registry: system-wide checks the fuzzer audits.

Each :class:`Invariant` inspects a :class:`~repro.verify.scenario.ScenarioHarness`
through side-effect-free hooks (``system.resolve``, ``audit`` helpers,
snapshots) and raises :class:`InvariantViolation` on the first breach.
``observe_before`` runs before an event is applied so before/after
properties (e.g. the load-monotonicity of a replication round) can be
stated exactly.

The default registry encodes the paper's claims:

=============================  ==========================================
``routing-reaches-live-holder`` every (live requester, live file) pair
                               resolves to a live node holding a copy
``placement-binomial-subtree`` one INSERTED copy per non-empty subtree,
                               at the storage node; stores only at live
                               PIDs; catalog targets match ψ
``fault-tolerant-partition``   the ``2**b`` subtrees partition the space
                               into isomorphic width-``m-b`` trees (§4)
``update-reaches-every-copy``  the top-down broadcast reaches the whole
                               holder set (no orphaned replicas)
``replication-load-monotonic`` a replication round never increases the
                               fluid load of the source or the max
``version-coherence``          every copy of a live file carries the
                               catalog version
``metrics-trace-reconcile``    operation counters move in lockstep with
                               their trace records (drops by reason)
``transport-conserves``        sent = delivered + dropped.loss +
                               dropped.dead once the engine drains
``snapshot-round-trips``       snapshot → restore → snapshot is the
                               identity on durable state
``request-lifecycle-conservation`` every tracked client request is
                               conserved (``issued == completed +
                               inflight + dead_letter + shed +
                               churn_lost``) and, once the engine
                               drains, terminated — no request may lose
                               its timeout and hang forever;
                               OVERLOAD-shed and churn loss are
                               distinct terminal states with their own
                               letter queues
``runtime-oracle-conformance`` a ``live_cluster`` / ``live_scaleout``
                               event's live cluster must replay to the
                               synchronous oracle's exact final state,
                               with no handler or decode error counted
``overload-shed-conservation`` every burst such an event fires must
                               keep the client-side ledger conserved
                               (requests == completed + faults +
                               errors + timeouts + shed + churn_lost)
``stale-redirect``             no admitted request terminally sheds
                               *solely* because its redirect hint named
                               a dead node — a stale hint is a reroute
                               (FINDLIVENODE) or a churn loss, never a
                               wasted attempt
``scaleout-lifecycle-conservation`` every worker a ``live_scaleout``
                               burst did not kill ships a goodbye
                               snapshot on the clean shutdown path,
                               and none outlives the teardown
=============================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..cluster.audit import metric_trace_reconciliation
from ..cluster.snapshot import restore_from_json, snapshot_to_dict, snapshot_to_json
from ..core.subtree import SubtreeView, SvidLiveness, identity_tree, subtree_of_pid
from ..engine.fluid import FluidSimulation
from .scenario import ScenarioEvent, ScenarioHarness

__all__ = [
    "AuditContext",
    "Invariant",
    "InvariantViolation",
    "default_invariants",
]

_EPS = 1e-9

#: Cap on per-step routing probes (entries sampled per file).
_MAX_PROBE_ENTRIES = 16


class InvariantViolation(Exception):
    """An invariant failed at a specific step of a scenario."""

    def __init__(self, invariant: str, message: str, step: int | None = None) -> None:
        self.invariant = invariant
        self.message = message
        self.step = step
        super().__init__(f"[{invariant}] {message}")


@dataclass
class AuditContext:
    """What an invariant sees: the harness, the step, scratch space."""

    harness: ScenarioHarness
    step: int = -1
    event: ScenarioEvent | None = None
    before: dict[str, Any] = field(default_factory=dict)
    """Per-step scratch written by ``observe_before``, read by ``check``."""

    @property
    def system(self):
        return self.harness.system


class Invariant:
    """Base class: named check with optional pre-step observation."""

    name = "invariant"

    def observe_before(self, ctx: AuditContext) -> None:
        """Record pre-event state (called before the event applies)."""

    def check(self, ctx: AuditContext) -> None:
        """Raise :class:`InvariantViolation` if the system is in breach."""
        raise NotImplementedError

    def fail(self, ctx: AuditContext, message: str) -> None:
        raise InvariantViolation(self.name, message, step=ctx.step)


def _live_files(system) -> list[str]:
    return sorted(n for n in system.catalog if n not in system.faults)


class RoutingReachability(Invariant):
    """Every request from a live entry reaches a live copy holder."""

    name = "routing-reaches-live-holder"

    def check(self, ctx: AuditContext) -> None:
        system = ctx.system
        live = sorted(system.membership.live_pids())
        if len(live) > _MAX_PROBE_ENTRIES:
            # Deterministic stride sample keeps the probe bounded.
            stride = len(live) / _MAX_PROBE_ENTRIES
            live = [live[int(i * stride)] for i in range(_MAX_PROBE_ENTRIES)]
        for name in _live_files(system):
            holders = set(system.holders_of(name))
            for entry in live:
                result = system.resolve(name, entry)
                if result is None:
                    self.fail(
                        ctx,
                        f"get({name!r}) from live P({entry}) found no copy; "
                        f"holders={sorted(holders)}",
                    )
                if result.server not in holders or not system.is_live(result.server):
                    self.fail(
                        ctx,
                        f"get({name!r}) from P({entry}) served by P({result.server}) "
                        f"which is not a live holder",
                    )


class PlacementInvariant(Invariant):
    """Binomial-subtree placement of the inserted copies, store hygiene."""

    name = "placement-binomial-subtree"

    def check(self, ctx: AuditContext) -> None:
        system = ctx.system
        live = set(system.membership.live_pids())
        if set(system.stores) != live:
            self.fail(
                ctx,
                f"stores exist at {sorted(set(system.stores) ^ live)} "
                f"where liveness disagrees",
            )
        for name, entry in system.catalog.items():
            if entry.target != system.psi(name):
                self.fail(
                    ctx,
                    f"catalog target P({entry.target}) for {name!r} != "
                    f"psi -> P({system.psi(name)})",
                )
        try:
            system.check_invariants()
        except AssertionError as exc:
            self.fail(ctx, str(exc))


class SubtreePartition(Invariant):
    """§4: the ``2**b`` subtrees stay an isomorphic partition."""

    name = "fault-tolerant-partition"

    def check(self, ctx: AuditContext) -> None:
        system = ctx.system
        targets = sorted({e.target for e in system.catalog.values()})[:4]
        if not targets:
            targets = [0]
        expected_size = 1 << (system.m - system.b)
        for target in targets:
            tree = system.tree(target)
            seen: set[int] = set()
            for sid in range(1 << system.b):
                view = SubtreeView(tree, system.b, sid)
                members = view.members()
                if len(members) != expected_size:
                    self.fail(
                        ctx,
                        f"subtree {sid} of tree P({target}) has {len(members)} "
                        f"members, expected {expected_size}",
                    )
                if identity_tree(view).m != system.m - system.b:
                    self.fail(
                        ctx,
                        f"subtree {sid} of tree P({target}) is not isomorphic "
                        f"to a width-{system.m - system.b} tree",
                    )
                for pid in members:
                    if subtree_of_pid(tree, pid, system.b) != sid:
                        self.fail(
                            ctx,
                            f"P({pid}) is a member of subtree {sid} but "
                            f"subtree_of_pid disagrees",
                        )
                seen.update(members)
            if seen != set(range(1 << system.m)):
                self.fail(
                    ctx,
                    f"subtrees of tree P({target}) do not partition the "
                    f"identifier space (covered {len(seen)}/{1 << system.m})",
                )


class UpdateReach(Invariant):
    """The top-down update broadcast reaches every live copy."""

    name = "update-reaches-every-copy"

    def check(self, ctx: AuditContext) -> None:
        system = ctx.system
        for name in _live_files(system):
            holders = set(system.holders_of(name))
            reachable = set(system.reachable_holders(name))
            if holders != reachable:
                self.fail(
                    ctx,
                    f"update broadcast for {name!r} reaches {sorted(reachable)} "
                    f"but copies live at {sorted(holders)} "
                    f"(orphans: {sorted(holders - reachable)})",
                )


class LoadMonotonic(Invariant):
    """A replication round never increases the source's or max load.

    Load is the fluid steady-state served rate under unit demand at
    every live member of the source's subtree — the §6 model.  The new
    replica absorbs flow that previously passed through it, so both the
    source's and the maximum served rate must be non-increasing.
    """

    name = "replication-load-monotonic"

    def observe_before(self, ctx: AuditContext) -> None:
        if ctx.event is None or ctx.event.op != "replicate":
            return
        resolved = ctx.harness.peek_replicate(ctx.event)
        if resolved is None:
            return
        name, source = resolved
        flows = self._flows(ctx.system, name, source)
        if flows is None:
            return
        served, source_svid = flows
        ctx.before[self.name] = {
            "file": name,
            "source": source,
            "max": max(served.values(), default=0.0),
            "source_served": served.get(source_svid, 0.0),
        }

    def check(self, ctx: AuditContext) -> None:
        observed = ctx.before.get(self.name)
        if observed is None or ctx.harness.last_replica_target is None:
            return
        system = ctx.system
        name, source = observed["file"], observed["source"]
        if not system.is_live(source) or name in system.faults:
            return
        flows = self._flows(system, name, source)
        if flows is None:
            return
        served, source_svid = flows
        max_after = max(served.values(), default=0.0)
        source_after = served.get(source_svid, 0.0)
        if max_after > observed["max"] + _EPS:
            self.fail(
                ctx,
                f"replicating {name!r} raised the max subtree load "
                f"{observed['max']:.6f} -> {max_after:.6f}",
            )
        if source_after > observed["source_served"] + _EPS:
            self.fail(
                ctx,
                f"replicating {name!r} raised P({source})'s load "
                f"{observed['source_served']:.6f} -> {source_after:.6f}",
            )

    @staticmethod
    def _flows(system, name: str, source: int) -> tuple[dict[int, float], int] | None:
        """Served rates (by SVID) in ``source``'s subtree, or None."""
        entry = system.catalog.get(name)
        if entry is None:
            return None
        tree = system.tree(entry.target)
        view = SubtreeView(tree, system.b, subtree_of_pid(tree, source, system.b))
        itree = identity_tree(view)
        sliveness = SvidLiveness(view, system.membership)
        rates = np.zeros(1 << itree.m)
        for svid in sliveness.live_pids():
            rates[svid] = 1.0
        holders = {
            view.svid_of(pid)
            for pid in system.holders_of(name)
            if view.contains(pid)
        }
        try:
            sim = FluidSimulation(
                itree, sliveness, rates, capacity=1.0, holders=holders
            )
        except Exception:
            # Placement already broken (storage node not a holder) or the
            # subtree emptied — the placement invariant owns that report.
            return None
        served = {int(k): float(v) for k, v in sim.compute_flows().served.items()}
        return served, view.svid_of(source)


class VersionCoherence(Invariant):
    """Every copy of a live file carries exactly the catalog version."""

    name = "version-coherence"

    def check(self, ctx: AuditContext) -> None:
        system = ctx.system
        for name in _live_files(system):
            catalog_version = system.catalog[name].version
            for pid in system.holders_of(name):
                version = system.stores[pid].get(name, count_access=False).version
                if version != catalog_version:
                    self.fail(
                        ctx,
                        f"copy of {name!r} at P({pid}) is v{version}, "
                        f"catalog says v{catalog_version}",
                    )


class MetricsReconcile(Invariant):
    """Operation counters and trace records move in lockstep."""

    name = "metrics-trace-reconcile"

    def check(self, ctx: AuditContext) -> None:
        system = ctx.system
        for counter, (value, traced) in metric_trace_reconciliation(system).items():
            if value != traced:
                self.fail(
                    ctx,
                    f"counter {counter} = {value} but {traced} matching "
                    f"trace records",
                )
        gets = system.metrics.counter("system.gets").value
        hops = system.metrics.histogram("system.get_hops").count
        if gets != hops:
            self.fail(
                ctx,
                f"system.gets = {gets} but get_hops histogram has {hops} samples",
            )


class TransportConservation(Invariant):
    """Once the engine drains: sent = delivered + dropped (by reason)."""

    name = "transport-conserves"

    def check(self, ctx: AuditContext) -> None:
        harness = ctx.harness
        if harness.engine.pending:
            return  # messages legitimately in flight
        metrics = ctx.system.metrics
        sent = metrics.counter("transport.sent").value
        delivered = metrics.counter("transport.delivered").value
        loss = metrics.counter("transport.dropped.loss").value
        dead = metrics.counter("transport.dropped.dead").value
        if sent != delivered + loss + dead:
            self.fail(
                ctx,
                f"transport.sent = {sent} but delivered({delivered}) + "
                f"dropped.loss({loss}) + dropped.dead({dead}) = "
                f"{delivered + loss + dead}",
            )


class SnapshotRoundTrip(Invariant):
    """snapshot → restore → snapshot is the identity on durable state."""

    name = "snapshot-round-trips"

    def check(self, ctx: AuditContext) -> None:
        try:
            first = snapshot_to_json(ctx.system)
        except (TypeError, ValueError) as exc:
            self.fail(ctx, f"durable state is not JSON-serializable: {exc}")
        try:
            restored = restore_from_json(first, check=False)
        except Exception as exc:
            self.fail(ctx, f"snapshot failed to restore: {exc}")
        second = snapshot_to_json(restored)
        if first != second:
            a, b = snapshot_to_dict(ctx.system), snapshot_to_dict(restored)
            diff_keys = [key for key in a if a.get(key) != b.get(key)]
            self.fail(
                ctx,
                f"snapshot round-trip changed state (differing sections: "
                f"{diff_keys})",
            )


class RequestLifecycle(Invariant):
    """Tracked requests are conserved and always terminate.

    At any instant ``request.issued == completed + inflight +
    dead_letter + shed + churn_lost``; the dead-letter queue matches
    the ``request.expired`` counter, the shed-letter queue matches
    ``request.shed``, and the churn-letter queue matches
    ``request.churn_lost``, with no duplicates and no overlap between
    the terminal sets; every terminal letter stayed within its attempt
    budget.  OVERLOAD-shed and churn loss are *distinct* terminal
    states from expiry: a shed means the server explicitly refused the
    work, a churn loss means the membership moved underneath the
    request (its redirect hint died and no live entry remained) — a
    request may land in at most one of the three queues.  Once the
    engine drains, nothing may remain inflight — a request stuck
    without a pending timeout has lost its deadline event and will
    never reach a defined outcome.
    """

    name = "request-lifecycle-conservation"

    def check(self, ctx: AuditContext) -> None:
        tracker = getattr(ctx.harness, "reliability", None)
        if tracker is None:
            return
        metrics = ctx.system.metrics
        issued = metrics.counter("request.issued").value
        completed = metrics.counter("request.completed").value
        expired = metrics.counter("request.expired").value
        shed = metrics.counter("request.shed").value
        churn_lost = metrics.counter("request.churn_lost").value
        inflight = tracker.inflight_count
        terminal = completed + inflight + expired + shed + churn_lost
        if issued != terminal:
            self.fail(
                ctx,
                f"request.issued = {issued} but completed({completed}) + "
                f"inflight({inflight}) + dead_letter({expired}) + "
                f"shed({shed}) + churn_lost({churn_lost}) = {terminal}",
            )
        letters = tracker.dead_letters
        if len(letters) != expired:
            self.fail(
                ctx,
                f"request.expired = {expired} but the dead-letter queue "
                f"holds {len(letters)} records",
            )
        shed_letters = getattr(tracker, "shed_letters", [])
        if len(shed_letters) != shed:
            self.fail(
                ctx,
                f"request.shed = {shed} but the shed-letter queue "
                f"holds {len(shed_letters)} records",
            )
        churn_letters = getattr(tracker, "churn_letters", [])
        if len(churn_letters) != churn_lost:
            self.fail(
                ctx,
                f"request.churn_lost = {churn_lost} but the churn-letter "
                f"queue holds {len(churn_letters)} records",
            )
        ids = [letter.request_id for letter in letters]
        shed_ids = [letter.request_id for letter in shed_letters]
        churn_ids = [letter.request_id for letter in churn_letters]
        pools = (
            ("dead-lettered", ids),
            ("shed", shed_ids),
            ("churn-lost", churn_ids),
        )
        for label, pool in pools:
            if len(set(pool)) != len(pool):
                dupes = sorted({i for i in pool if pool.count(i) > 1})
                self.fail(ctx, f"requests {label} more than once: {dupes}")
        for i, (label_a, pool_a) in enumerate(pools):
            for label_b, pool_b in pools[i + 1:]:
                overlap = set(pool_a) & set(pool_b)
                if overlap:
                    self.fail(
                        ctx,
                        f"requests both {label_a} and {label_b}: "
                        f"{sorted(overlap)}",
                    )
        for label, pool in pools:
            both = set(pool) & tracker.completed_ids
            if both:
                self.fail(
                    ctx,
                    f"requests both completed and {label}: {sorted(both)}",
                )
        for letter in (*letters, *shed_letters, *churn_letters):
            if not 1 <= len(letter.attempts) <= letter.budget:
                self.fail(
                    ctx,
                    f"terminal letter {letter.request_id} records "
                    f"{len(letter.attempts)} attempts against a budget "
                    f"of {letter.budget}",
                )
        if not ctx.harness.engine.pending and inflight:
            self.fail(
                ctx,
                f"engine drained with {inflight} request(s) still inflight "
                f"({sorted(tracker.inflight_ids)}) — a timeout event was lost",
            )


class _LiveRecords(Invariant):
    """Audits the records a live op appended to one harness list.

    ``observe_before`` notes the list's length, so ``check`` sees only
    this event's records — none when the event was skipped or fired no
    burst.
    """

    records = "live_reports"
    ops = ("live_cluster", "live_scaleout")

    def observe_before(self, ctx: AuditContext) -> None:
        ctx.before[self.records] = len(getattr(ctx.harness, self.records))

    def check(self, ctx: AuditContext) -> None:
        if ctx.event is None or ctx.event.op not in self.ops:
            return
        for record in getattr(ctx.harness, self.records)[ctx.before[self.records]:]:
            self.audit(ctx, record)

    def audit(self, ctx: AuditContext, record: Any) -> None:
        raise NotImplementedError


def _burst_name(ledger: dict[str, Any]) -> str:
    """How a violation names the burst behind a ledger."""
    if "cell" in ledger:
        return f"overload burst ({ledger['cell']})"
    return f"scale-out burst ({ledger['nodes']} workers)"


class RuntimeConformance(_LiveRecords):
    """A live-runtime event must land in the oracle's exact state.

    The harness records one :class:`~repro.runtime.conformance.ConformanceReport`
    per applied ``live_cluster`` (in-process asyncio cluster) or
    ``live_scaleout`` (fleet of real worker OS processes) event; a
    report with mismatches means the live runtime (wire codec,
    batching, cached routing, cross-process coordination and all)
    diverged from the synchronous model on that seeded workload — or
    swallowed an error it only counted: a nonzero ``handler_errors``
    or ``wire_decode_errors`` counter is a mismatch too.
    """

    name = "runtime-oracle-conformance"

    def audit(self, ctx: AuditContext, record: Any) -> None:
        if not record.ok:
            self.fail(ctx, record.render())


class OverloadAccounting(_LiveRecords):
    """A live burst must conserve the client-side ledger.

    The harness records one ledger (the
    :class:`~repro.runtime.client.LoadReport` counters) per burst a
    ``live_cluster`` or ``live_scaleout`` event fires.  Shedding is
    load *control*, not load *loss*; churn — a silent kill, a ``kill
    -9``ed worker — is membership *movement*, not accounting leakage:
    every fired request must land in exactly one terminal bucket
    (``requests == completed + faults + errors + timeouts + shed +
    churn_lost``).  That the cluster still replays to the oracle is
    ``runtime-oracle-conformance``'s to check.
    """

    name = "overload-shed-conservation"
    records = "load_reports"

    def audit(self, ctx: AuditContext, record: Any) -> None:
        if not record["conserved"]:
            self.fail(
                ctx,
                f"{_burst_name(record)} leaked requests: "
                f"requests({record['requests']}) != "
                f"completed({record['completed']}) + faults({record['faults']}) "
                f"+ errors({record['errors']}) + timeouts({record['timeouts']}) "
                f"+ shed({record['shed']}) + churn_lost({record['churn_lost']})",
            )


class StaleRedirect(_LiveRecords):
    """A dead redirect hint is a reroute, never a terminal shed.

    Under churn a shedder's hint can name a node that died after the
    FINDLIVENODE discovery that produced it — most dangerously after a
    *silent* crash, when no status word has processed the retirement
    yet.  The admitted request must not pay for that staleness with its
    life: the client reroutes to a live entry (consuming redirect
    budget) or, when no live node remains, terminates as a churn loss.
    A ``live_cluster`` burst's ledger counts ``stale_sheds`` — requests
    that terminally shed *solely* because their hint was dead — and
    this invariant pins that count to zero.
    """

    name = "stale-redirect"
    records = "load_reports"
    ops = ("live_cluster",)

    def audit(self, ctx: AuditContext, record: Any) -> None:
        stale = record["stale_sheds"]
        if stale:
            self.fail(
                ctx,
                f"{_burst_name(record)} terminally shed "
                f"{stale} request(s) solely because their redirect hint "
                f"named a dead node (churn: {record.get('churn', [])}) — "
                f"a stale hint must reroute or churn-lose, never shed",
            )


class TimeoutTakesItsTime(_LiveRecords):
    """No request counts as a timeout before its deadline.

    A request resolved by a dropped connection is a churn loss, whatever
    the client's membership view says at that moment; only a request
    that sat out its deadline is a timeout.  A burst's ledger carries
    its shortest timed-out latency (``timeout_min_s``) and its request
    timeout: the first may not undercut the second.
    """

    name = "timeout-takes-its-time"
    records = "load_reports"

    #: Slack for the clock reads either side of the deadline.
    SLACK_S = 1e-3

    def audit(self, ctx: AuditContext, record: Any) -> None:
        shortest = record.get("timeout_min_s")
        if shortest is not None and shortest < record["timeout"] - self.SLACK_S:
            self.fail(
                ctx,
                f"{_burst_name(record)} counted {record['timeouts']} "
                f"timeout(s), the shortest after {shortest:.3f} s, against a "
                f"{record['timeout']:.1f} s deadline — a request resolved "
                f"early is a churn loss, not a timeout",
            )


class ScaleoutLifecycle(_LiveRecords):
    """Every worker a scale-out burst did not kill leaves cleanly.

    A ``live_scaleout`` ledger counts the goodbye snapshots the
    bootstrap collected: every worker that was *not* ``kill -9``ed
    must terminate through the clean path — SIGTERM, local drain,
    goodbye snapshot shipped to the bootstrap.  A missing goodbye means
    a worker died outside the supervisor's accounting; an OS pid in
    ``left_running`` means one outlived the teardown.  (The burst's
    request conservation is ``overload-shed-conservation``'s.)
    """

    name = "scaleout-lifecycle-conservation"
    records = "load_reports"
    ops = ("live_scaleout",)

    def audit(self, ctx: AuditContext, record: Any) -> None:
        if record["goodbyes"] != record["expected_goodbyes"]:
            self.fail(
                ctx,
                f"scale-out burst expected {record['expected_goodbyes']} "
                f"goodbye snapshot(s) (killed: {record['killed']}) but "
                f"collected {record['goodbyes']} — a worker died outside "
                f"the clean SIGTERM-drain-goodbye path",
            )
        if record["left_running"]:
            self.fail(
                ctx,
                f"scale-out burst left OS pid(s) {record['left_running']} "
                f"running after its teardown",
            )


def default_invariants() -> list[Invariant]:
    """Fresh instances of the full registry (order = check order)."""
    return [
        PlacementInvariant(),
        SubtreePartition(),
        RoutingReachability(),
        UpdateReach(),
        LoadMonotonic(),
        VersionCoherence(),
        MetricsReconcile(),
        TransportConservation(),
        SnapshotRoundTrip(),
        RequestLifecycle(),
        RuntimeConformance(),
        OverloadAccounting(),
        StaleRedirect(),
        TimeoutTakesItsTime(),
        ScaleoutLifecycle(),
    ]
