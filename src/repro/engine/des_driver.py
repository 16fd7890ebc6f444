"""Request-level discrete-event simulation of the §6 experiments.

Where the fluid engine computes steady-state flows, this driver plays
the same experiment as actual traffic: Poisson client requests enter at
nodes, GET messages climb the lookup tree over a latency-delayed
transport, nodes measure their own service rate over a sliding window,
and an overloaded holder autonomously fires one replication (through
the same policy objects) with a cooldown while the measurement settles.

It exists to validate the fluid engine's shapes dynamically — the two
engines agree on orderings and approximate replica counts — and to
exercise the transport / load-monitor / membership substrates end to
end, including node failure mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..baselines.base import PlacementContext, ReplicationPolicy
from ..core.errors import ConfigurationError
from ..core.routing import retry_entry
from ..core.subtree import (
    SubtreeView,
    check_b,
    get_next_hop,
    insert_targets,
    subtree_children_list,
    subtree_of_pid,
    update_starts,
)
from ..core.tree import LookupTree
from ..net.message import Message, MessageKind
from ..net.reliability import RequestTracker, RetryPolicy
from ..net.topology import ConstantLatency, LatencyModel
from ..node.loadmon import LoadMonitor
from ..node.membership import StatusWord
from ..node.storage import FileOrigin, FileStore
from ..sim.engine import Engine
from ..sim.metrics import MetricsRegistry
from ..sim.rng import RngHub

__all__ = ["DesResult", "DesExperiment"]

CLIENT = -1
"""Transport address representing the client edge."""


@dataclass
class DesResult:
    """Outcome of one DES run."""

    replicas_created: int
    requests_sent: int
    requests_served: int
    faults: int
    max_observed_rate: float
    """Peak windowed service rate any node saw during the run."""

    final_max_rate: float = 0.0
    """Highest per-node service rate at the end of the workload."""

    replica_events: list[tuple[float, int, int]] = field(default_factory=list)
    """(time, source, target) for every replication."""

    hop_mean: float = 0.0
    hop_max: float = 0.0
    latency_mean: float = 0.0
    """Mean client-observed response time (request sent → reply)."""
    latency_p95: float = 0.0

    requests_completed: int = 0
    """Requests the reliability layer saw through to a reply (0 when
    the layer is off — fire-and-forget runs don't track completion)."""
    requests_retried: int = 0
    dead_letters: int = 0
    """Requests that exhausted their retry budget."""


class _DesNode:
    """One message-driven node of the experiment."""

    def __init__(self, pid: int, exp: "DesExperiment") -> None:
        self.pid = pid
        self.exp = exp
        self.store = FileStore()
        self.monitor = LoadMonitor(capacity=exp.capacity, window=exp.window)
        self.last_replication = -float("inf")
        self.overload_streak = 0
        # In oracle mode every node shares the ground-truth status
        # word; in gossip mode each node routes on its own copy, kept
        # fresh only by REGISTER_* broadcasts (§5.1).
        if exp.gossip:
            from ..node.gossip import MembershipAgent

            self.agent = MembershipAgent(
                pid, exp.membership.copy(), exp.transport
            )
            self.membership = self.agent.word
        else:
            self.agent = None
            self.membership = exp.membership
        exp.transport.register(pid, self.on_message)

    # -- message handling -------------------------------------------------

    def on_message(self, msg: Message) -> None:
        if self.agent is not None and self.agent.handle(msg):
            return
        if msg.kind is MessageKind.GET:
            self._handle_get(msg)
        elif msg.kind is MessageKind.REPLICATE:
            payload, version = msg.payload
            self.store.store(
                msg.file, payload, version, FileOrigin.REPLICATED,
                now=self.exp.engine.now,
            )
        elif msg.kind is MessageKind.INSERT:
            payload, version = msg.payload
            self.store.store(
                msg.file, payload, version, FileOrigin.INSERTED,
                now=self.exp.engine.now,
            )
        elif msg.kind is MessageKind.UPDATE:
            self._handle_update(msg)
        # Replies to clients are terminal; nothing else reaches nodes here.

    def _handle_update(self, msg: Message) -> None:
        """§2.2 top-down update: refresh and re-broadcast, or discard."""
        exp = self.exp
        if msg.file not in self.store:
            exp.metrics.counter("des.update_discards").inc()
            return
        self.store.update(msg.file, msg.payload, msg.version)
        exp.metrics.counter("des.update_applied").inc()
        children = subtree_children_list(
            exp.tree, exp.b, self.pid, self.membership
        )
        for child in children:
            exp.transport.send(msg.forwarded(self.pid, child))

    def _handle_get(self, msg: Message) -> None:
        exp = self.exp
        now = exp.engine.now
        if msg.file in self.store:
            self.store.get(msg.file)
            self.monitor.record_served(msg.file, msg.src, now)
            exp.metrics.counter("des.served").inc()
            exp.metrics.histogram("des.hops").observe(float(msg.hops))
            # §2.2: the file is returned *directly to the client*, not
            # back down the forwarding chain.
            exp.transport.send(
                replace(msg.reply(MessageKind.GET_REPLY), dst=CLIENT)
            )
            return
        hop = get_next_hop(exp.tree, exp.b, self.pid, msg.payload, self.membership)
        if hop is None:
            # Every subtree tried and its storage node holds no copy (§3/§4).
            self._fault(msg)
            return
        dst, carried = hop
        if carried != msg.payload:
            msg = replace(msg, payload=carried)
        if carried and carried[0] != subtree_of_pid(exp.tree, self.pid, exp.b):
            # Migrated by changing the subtree identifier (§4).
            exp.metrics.counter("des.migrations").inc()
        exp.transport.send(msg.forwarded(self.pid, dst))

    def _fault(self, msg: Message) -> None:
        self.exp.metrics.counter("des.faults").inc()
        self.exp.transport.send(
            replace(msg.reply(MessageKind.GET_FAULT), dst=CLIENT)
        )

    # -- autonomous overload control ---------------------------------------

    def _maybe_drop_cold_replicas(self, now: float) -> None:
        """§2.2's counter-based removal, run locally by each node.

        A *replicated* copy whose served rate stayed below the removal
        threshold (and that has been held for at least one measurement
        window) is dropped; inserted copies are never touched.
        """
        exp = self.exp
        if exp.removal_threshold <= 0:
            return
        for copy in list(self.store.replicated_files()):
            if now - copy.stored_at < exp.window:
                continue  # too young to judge
            if self.monitor.file_rate(copy.name, now) < exp.removal_threshold:
                self.store.discard(copy.name)
                exp.metrics.counter("des.replicas_removed").inc()
                exp.removal_events.append((now, self.pid, copy.name))

    def overload_check(self):
        """Generator process: periodically shed load when overloaded."""
        exp = self.exp
        while True:
            yield exp.check_interval
            now = exp.engine.now
            self._maybe_drop_cold_replicas(now)
            rate = self.monitor.total_rate(now)
            if rate > exp.max_rate_seen:
                exp.max_rate_seen = rate
            if now - self.last_replication < exp.cooldown:
                continue
            if self.monitor.total_rate(now) <= exp.detection_threshold:
                self.overload_streak = 0
                continue
            # Require sustained overload before replicating: a Poisson
            # stream at exactly the capacity crosses the threshold in
            # many windows by chance alone.
            self.overload_streak += 1
            if self.overload_streak < exp.streak_required:
                continue
            self.overload_streak = 0
            file = self.monitor.hottest_file(now)
            if file is None or file not in self.store:
                continue
            target = exp.choose_target(
                self.pid, file, self.monitor.source_rates(file, now)
            )
            if target is None:
                continue
            copy = self.store.get(file, count_access=False)
            exp.transport.send(
                Message(
                    kind=MessageKind.REPLICATE,
                    src=self.pid,
                    dst=target,
                    file=file,
                    payload=(copy.payload, copy.version),
                )
            )
            self.last_replication = now
            exp.replica_events.append((now, self.pid, target))


class DesExperiment:
    """One single-popular-file experiment over the DES substrate."""

    def __init__(
        self,
        m: int,
        target: int,
        entry_rates: np.ndarray,
        capacity: float = 100.0,
        policy: ReplicationPolicy | None = None,
        dead: set[int] | None = None,
        b: int = 0,
        latency: LatencyModel | None = None,
        window: float = 1.0,
        check_interval: float = 0.25,
        cooldown: float = 1.0,
        streak_required: int = 3,
        detection_margin: float = 2.0,
        gossip: bool = False,
        detection_delay: float = 0.5,
        removal_threshold: float = 0.0,
        seed: int = 0,
        file: str = "popular-file",
        loss_rate: float = 0.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        from ..baselines.lesslog_policy import LessLogPolicy
        from ..net.transport import Transport

        dead = dead or set()
        check_b(b, m)
        self.m = m
        self.b = b
        self.gossip = gossip
        self.detection_delay = detection_delay
        if removal_threshold < 0:
            raise ConfigurationError("removal_threshold must be non-negative")
        self.removal_threshold = removal_threshold
        self.removal_events: list[tuple[float, int, str]] = []
        self.tree = LookupTree(target, m)
        self.membership = StatusWord(
            m, (p for p in range(1 << m) if p not in dead)
        )
        if self.membership.live_count() == 0:
            raise ConfigurationError("no live nodes")
        self.capacity = capacity
        self.window = window
        self.check_interval = check_interval
        self.cooldown = cooldown
        if streak_required < 1:
            raise ConfigurationError("streak_required must be at least 1")
        self.streak_required = streak_required
        # A window at true rate = capacity counts Poisson(capacity *
        # window) events; declare overload only beyond a detection
        # margin of sampling standard deviations above capacity so
        # at-capacity holders do not keep splitting on noise.
        self.detection_margin = detection_margin
        self.detection_threshold = capacity + detection_margin * (
            (capacity * window) ** 0.5 / window
        )
        self.policy = policy if policy is not None else LessLogPolicy()
        self.file = file
        self.rng_hub = RngHub(seed)
        self.metrics = MetricsRegistry()
        self.engine = Engine()
        self.transport = Transport(
            self.engine,
            latency=latency if latency is not None else ConstantLatency(0.001),
            loss_rate=loss_rate,
            rng=self.rng_hub.stream("transport-loss"),
            metrics=self.metrics,
        )
        # Request-reliability layer (net.reliability): without it, a
        # lost GET or reply simply never completes; with it, every
        # client request retries with backoff and a re-resolved entry,
        # or lands in the dead-letter record.
        self.reliability = (
            None
            if retry is None
            else RequestTracker(
                self.engine,
                retry,
                metrics=self.metrics,
                seed=self.rng_hub.stream("retry-jitter").randrange(1 << 62),
            )
        )
        self.replica_events: list[tuple[float, int, int]] = []
        self.requests_sent = 0
        self.max_rate_seen = 0.0

        entry_rates = np.asarray(entry_rates, dtype=float)
        if entry_rates.shape != (1 << m,):
            raise ConfigurationError(
                f"entry rates must have shape ({1 << m},), got {entry_rates.shape}"
            )
        self._entry_rates = entry_rates

        self.nodes: dict[int, _DesNode] = {
            pid: _DesNode(pid, self) for pid in self.membership.live_pids()
        }
        # The client edge measures response times: request_id → send
        # time, resolved when the reply or fault lands.
        self._inflight: dict[int, float] = {}

        def client_edge(msg: Message) -> None:
            sent_at = self._inflight.pop(msg.request_id, None)
            if sent_at is not None:
                self.metrics.histogram("des.latency").observe(
                    self.engine.now - sent_at
                )
            if self.reliability is not None:
                # A fault reply is still a defined outcome: the request
                # terminated, it just found no copy.
                self.reliability.complete(msg.request_id)

        self.transport.register(CLIENT, client_edge)

        # Seed the file at its 2**b storage nodes and start checkers.
        for home in insert_targets(self.tree, self.b, self.membership):
            self.nodes[home].store.store(file, b"payload", 1, FileOrigin.INSERTED)
        for node in self.nodes.values():
            self.engine.spawn(node.overload_check(), label=f"check:{node.pid}")

    def retry_entry(self, entry: int) -> int | None:
        """Where a retried request should re-enter the overlay
        (:func:`repro.core.routing.retry_entry` on the ground truth)."""
        return retry_entry(self.tree, entry, self.membership)

    def holders(self, file: str) -> set[int]:
        """Live PIDs currently holding a copy (the oracle view).

        A real node cannot read this set; policies only receive it to
        skip already-replicated targets, mirroring the fluid engine.
        """
        return {pid for pid, node in self.nodes.items() if file in node.store}

    def choose_target(
        self, overloaded: int, file: str, source_rates: dict[int, float]
    ) -> int | None:
        """Run the placement policy for an overloaded holder.

        For ``b = 0`` the policy sees the whole tree; for ``b > 0`` it
        runs inside the holder's subtree via the §4 identity reduction
        (the same mechanism ``LessLogSystem.replicate`` uses).
        """
        rng = self.rng_hub.stream(f"policy:{overloaded}")
        local_view = self.nodes[overloaded].membership
        if self.b == 0:
            context = PlacementContext(rng=rng, forwarder_rates=source_rates)
            return self.policy.choose(
                self.tree, overloaded, local_view, self.holders(file), context
            )
        from ..core.subtree import SvidLiveness, identity_tree

        sid = subtree_of_pid(self.tree, overloaded, self.b)
        view = SubtreeView(self.tree, self.b, sid)
        itree = identity_tree(view)
        sliveness = SvidLiveness(view, local_view)
        holders_svid = {
            view.svid_of(pid)
            for pid in self.holders(file)
            if view.contains(pid)
        }
        rates_svid = {
            (view.svid_of(src) if src >= 0 and view.contains(src) else -1): rate
            for src, rate in source_rates.items()
        }
        context = PlacementContext(rng=rng, forwarder_rates=rates_svid)
        target_svid = self.policy.choose(
            itree, view.svid_of(overloaded), sliveness, holders_svid, context
        )
        if target_svid is None:
            return None
        return view.pid_of_svid(target_svid)

    def _workload(self, duration: float, rate_scale: float = 1.0, phase: int = 0):
        """Generator process emitting Poisson client GETs."""
        from ..sim.rng import derive_seed
        from ..workloads.generator import RequestStream

        stream = RequestStream(
            self._entry_rates * rate_scale,
            self.file,
            seed=derive_seed(self.rng_hub.seed, f"workload:{phase}"),
        )
        last = 0.0
        for request in stream.generate(duration):
            yield request.time - last
            last = request.time
            if not self.membership.is_live(request.entry):
                continue  # entry died mid-run; client retries elsewhere
            self.requests_sent += 1
            message = Message(
                kind=MessageKind.GET,
                src=CLIENT,
                dst=request.entry,
                file=self.file,
            )
            self._inflight[message.request_id] = self.engine.now
            if self.reliability is not None:
                self.reliability.issue(
                    message, send=self.transport.send, reroute=self.retry_entry
                )
            else:
                self.transport.send(message)

    def run_schedule(
        self,
        phases: list[tuple[float, float]],
        settle: float = 2.0,
        sample_replicas_every: float = 1.0,
    ) -> tuple[DesResult, list[tuple[float, int]]]:
        """Drive a time-varying workload: ``phases`` = [(duration, scale)].

        Each phase replays the base rate vector scaled by ``scale`` for
        ``duration`` seconds, back to back.  Returns the usual result
        plus a sampled (time, replica count) series — the view needed
        to watch the counter-based removal breathe.
        """
        if not phases:
            raise ConfigurationError("at least one phase is required")
        total = 0.0
        for index, (duration, scale) in enumerate(phases):
            if duration <= 0 or scale < 0:
                raise ConfigurationError(
                    f"bad phase {index}: duration={duration}, scale={scale}"
                )
            start = total

            def launch(index=index, duration=duration, scale=scale):
                self.engine.spawn(
                    self._workload(duration, rate_scale=scale, phase=index),
                    label=f"workload:{index}",
                )

            self.engine.schedule_at(start, launch, label=f"phase:{index}")
            total += duration

        series: list[tuple[float, int]] = []

        def sampler():
            while True:
                series.append(
                    (self.engine.now, len(self.holders(self.file)) - 1)
                )
                yield sample_replicas_every

        self.engine.spawn(sampler(), label="replica-sampler")
        result = self._finish(total, settle)
        return result, series

    def update_file(self, payload, version: int, at_time: float) -> None:
        """Schedule a §2.2 top-down update broadcast over the transport.

        One UPDATE message is injected at each subtree's root position
        (bypassing a dead root to its children list, per §3); holders
        re-broadcast, non-holders discard.
        """

        def fire() -> None:
            for start in update_starts(self.tree, self.b, self.membership):
                self.transport.send(
                    Message(
                        kind=MessageKind.UPDATE,
                        src=CLIENT,
                        dst=start,
                        file=self.file,
                        payload=payload,
                        version=version,
                    )
                )

        self.engine.schedule_at(at_time, fire, label="update")

    def join_node(self, pid: int, at_time: float) -> None:
        """Schedule a §5.1 join: the node registers live everywhere and
        the files its absence displaced are transferred to it.

        The transfer rides the transport as an INSERT message, so there
        is a realistic window (one network latency) during which
        requests that already route to the newcomer can fault.
        """

        def arrive() -> None:
            if self.membership.is_live(pid):
                raise ConfigurationError(f"P({pid}) is already live")
            neighbour = min(self.nodes, default=None)
            self.membership.register_live(pid)
            node = _DesNode(pid, self)
            self.nodes[pid] = node
            self.engine.spawn(node.overload_check(), label=f"check:{pid}")
            if self.gossip:
                # §5.1: adopt a neighbour's status word, then broadcast
                # the join to everyone it lists.
                if neighbour is not None:
                    node.agent.adopt(self.nodes[neighbour].membership)
                node.agent.broadcast(MessageKind.REGISTER_LIVE, pid)
            # Migrate the file if the newcomer is now a storage node.
            for home in insert_targets(self.tree, self.b, self.membership):
                if home != pid:
                    continue
                donor = next(
                    (p for p, n in self.nodes.items()
                     if p != pid and self.file in n.store),
                    None,
                )
                if donor is None:
                    continue
                copy = self.nodes[donor].store.get(self.file, count_access=False)
                self.transport.send(
                    Message(
                        kind=MessageKind.INSERT,
                        src=donor,
                        dst=pid,
                        file=self.file,
                        payload=(copy.payload, copy.version),
                    )
                )

        self.engine.schedule_at(at_time, arrive, label=f"join:{pid}")

    def fail_node(self, pid: int, at_time: float) -> None:
        """Schedule a crash: the node drops off the transport and every
        node's status word flips (instant §5.3 broadcast)."""

        def crash() -> None:
            self.membership.register_dead(pid)
            self.transport.unregister(pid)
            self.nodes.pop(pid, None)
            if self.gossip:
                self.engine.schedule(
                    self.detection_delay,
                    lambda: self._broadcast_membership(
                        MessageKind.REGISTER_DEAD, pid
                    ),
                    label=f"detect:{pid}",
                )

        self.engine.schedule_at(at_time, crash, label=f"fail:{pid}")

    def _broadcast_membership(self, kind: MessageKind, subject: int) -> None:
        """§5: a surviving node broadcasts a registration to everyone.

        The detector is the live node with the lowest PID (any live
        node works; the choice only fixes determinism).
        """
        detector = min(self.nodes, default=None)
        if detector is None:
            return
        self.nodes[detector].agent.broadcast(kind, subject)

    def run(self, duration: float, settle: float = 2.0) -> DesResult:
        """Drive the workload for ``duration`` plus a settle tail."""
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        self.engine.spawn(self._workload(duration), label="workload")
        return self._finish(duration, settle)

    def _finish(self, duration: float, settle: float) -> DesResult:
        """Run the engine to the end of the workload and collect results."""
        final_max_box = [0.0]

        def sample_final() -> None:
            final_max_box[0] = max(
                (
                    node.monitor.total_rate(self.engine.now)
                    for node in self.nodes.values()
                ),
                default=0.0,
            )

        self.engine.schedule_at(duration, sample_final, label="final-sample")
        self.engine.run_until(duration + settle)
        self.engine.clear()  # drop the infinite overload checkers

        hops = self.metrics.histogram("des.hops")
        latency = self.metrics.histogram("des.latency")
        return DesResult(
            replicas_created=len(self.replica_events),
            requests_sent=self.requests_sent,
            requests_served=self.metrics.counter("des.served").value,
            faults=self.metrics.counter("des.faults").value,
            max_observed_rate=self.max_rate_seen,
            final_max_rate=final_max_box[0],
            replica_events=list(self.replica_events),
            hop_mean=hops.mean() if hops.count else 0.0,
            hop_max=hops.max() if hops.count else 0.0,
            latency_mean=latency.mean() if latency.count else 0.0,
            latency_p95=latency.quantile(0.95) if latency.count else 0.0,
            requests_completed=self.metrics.counter("request.completed").value,
            requests_retried=self.metrics.counter("request.retried").value,
            dead_letters=(
                len(self.reliability.dead_letters)
                if self.reliability is not None
                else 0
            ),
        )
