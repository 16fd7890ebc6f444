"""`LiveCluster`: boot and operate N `NodeServer`s as one deployment.

The cluster is two planes:

* **Data plane** — every file operation and membership fact crosses a
  real stream connection as a wire frame (`repro.runtime.wire`).  By
  default connections are in-process ``socket.socketpair`` streams; with
  ``RuntimeConfig(tcp=True)`` every node listens on a real TCP port on
  loopback and the exact same frames flow through the kernel's stack.
* **Coordination plane** — one `Coordinator` (`repro.runtime.coordinator`)
  owns the authoritative §5 status word, the file catalog and the
  decision-ordered ``oplog``.  The cluster calls its verbs and puts the
  admin frames they return (REPLICATE / TRANSFER / DEMOTE / REMOVE) on
  the coordinator's own stream to each node; node stores only ever
  change when a frame arrives.  What the cluster adds is sequencing:
  booting and retiring nodes, REGISTER_* broadcasts, draining.

``repro.runtime.conformance`` replays the oplog through a fresh
``LessLogSystem`` oracle and diffs it against the real node stores.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, ClassVar

from ..core.bits import check_id, check_width
from ..core.errors import ConfigurationError, MembershipError
from ..core.subtree import check_b
from ..net.message import Message, MessageKind
from ..node.membership import StatusWord
from .addressing import PeerUnreachableError, dial_node, start_listener
from .coordinator import ADMIN, Coordinator, OpRecord
from .host import NodeHost
from .node import CLIENT, NodeServer
from .overload import OverloadPolicy
from .wire import WIRE_VERSION, FrameConnection, WireError

__all__ = [
    "ADMIN",
    "RuntimeConfig",
    "PeerUnreachableError",
    "OpRecord",
    "LiveCluster",
]

_NEVER_SATURATED = 10**9
"""The default ``inflight_limit``: an inbox depth no run reaches."""


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs for a live cluster."""

    m: int
    b: int = 0
    seed: int = 0
    tcp: bool = False
    capacity: float = float("inf")
    """Served requests/second beyond which a node is overloaded
    (``inf`` disables rate-triggered replication — the conformance
    default, so sequential replays stay deterministic)."""
    window: float = 1.0
    cooldown: float = 0.1
    inflight_limit: int = _NEVER_SATURATED
    """Inbox depth at which the in-flight window counts as saturated."""
    service_time: float = 0.0
    """Simulated per-GET service latency (seconds); lets small bursts
    actually queue so the load monitor has something to measure."""
    drain_timeout: float = 30.0
    batch_max: int = 16
    """``> 1`` pipelines ``service_time``: a node's served GETs wait
    out their service latency together on one due-time queue instead
    of one after another in the consumer (``1`` serializes them)."""
    idle_timeout: float = float("inf")
    """Counter-based removal: a REPLICATED copy whose access counter
    sits still this long is REMOVEd (``inf`` disables decay)."""
    inbox_limit: int = 0
    """Bounded-inbox admission control: the most queued data GETs a
    node accepts before the shed/queue/victim policy evicts one and
    answers OVERLOAD (``0`` disables admission control — the default,
    so existing profiles are untouched)."""
    shed_policy: str = "conservative"
    """How much to evict when the bound trips: ``conservative`` sheds
    the minimum, ``aggressive`` clears backlog to half the limit."""
    queue_policy: str = "fcfs"
    """``fcfs`` treats queued requests equally; ``priority`` protects
    peer-forwarded requests and sheds fresh client entries first."""
    victim_policy: str = "lifo"
    """Which candidate is evicted: ``lifo`` (newest), ``fifo``
    (oldest / drop-head), or ``random`` (seeded)."""
    slo_budget: float = float("inf")
    """SLO-aware replication: replicate away load when a node's
    windowed response-latency p99 drifts past this budget (seconds),
    not just when the raw hit counter trips (``inf`` disables)."""

    # Read-only constants, not fields: every link speaks the one wire
    # version, fixed lane on.  ``bench/layers.py`` reads both.
    wire_version: ClassVar[int] = WIRE_VERSION
    fixed_frames: ClassVar[bool] = True

    def __post_init__(self) -> None:
        check_width(self.m)
        check_b(self.b, self.m)
        if self.capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.window <= 0:
            raise ConfigurationError("window must be positive")
        if self.service_time < 0:
            raise ConfigurationError("service_time must be non-negative")
        if self.inflight_limit < 1:
            raise ConfigurationError("inflight_limit must be at least 1")
        if self.batch_max < 1:
            raise ConfigurationError("batch_max must be at least 1")
        if self.idle_timeout <= 0:
            raise ConfigurationError("idle_timeout must be positive")
        if self.inbox_limit < 0:
            raise ConfigurationError("inbox_limit must be non-negative")
        if self.slo_budget <= 0:
            raise ConfigurationError("slo_budget must be positive")
        try:
            self.overload_policy()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None

    @property
    def needs_sweeper(self) -> bool:
        """Whether a node's load sweeper can ever act: a finite
        ``capacity``, ``slo_budget`` or ``idle_timeout``, or an
        ``inflight_limit`` an inbox can reach.  Otherwise its tick could
        only find nothing to do, so no node starts one."""
        inf = float("inf")
        return (
            self.capacity != inf or self.slo_budget != inf
            or self.idle_timeout != inf
            or self.inflight_limit < _NEVER_SATURATED
        )

    def overload_policy(self) -> OverloadPolicy:
        """The validated shed × queue × victim cell this config names."""
        return OverloadPolicy(
            shed=self.shed_policy,
            queue=self.queue_policy,
            victim=self.victim_policy,
        )


class LiveCluster(NodeHost):
    """N live LessLog nodes over streams, hosting one `Coordinator`."""

    def __init__(self, config: RuntimeConfig, live: set[int] | None = None) -> None:
        super().__init__(config)
        total = 1 << config.m
        pids = set(live) if live is not None else set(range(total))
        if not pids:
            raise ConfigurationError("a cluster needs at least one live node")
        for pid in pids:
            check_id(pid, config.m)
        self.coordinator = Coordinator(config, tuple(pids))
        self.initial_live = self.coordinator.initial_live
        self.oplog = self.coordinator.oplog
        self.nodes: dict[int, NodeServer] = {}
        self._silent_deaths: set[int] = set()
        self._inflight_to: dict[int, int] = {}
        self._peer_conns: dict[tuple[int, int], FrameConnection] = {}
        self._outbox: asyncio.Queue[Message] = asyncio.Queue()
        self._undelivered = 0
        self._pump: asyncio.Task[None] | None = None
        self._servers: dict[int, asyncio.base_events.Server] = {}
        self.addresses: dict[int, tuple[str, int]] = {}

    @property
    def word(self) -> StatusWord:
        """The authoritative §5 status word (the coordinator's)."""
        return self.coordinator.mirror.membership

    # -- boot / teardown ----------------------------------------------------

    @classmethod
    async def start(
        cls, config: RuntimeConfig, live: set[int] | None = None
    ) -> "LiveCluster":
        cluster = cls(config, live)
        for pid in sorted(cluster.word.live_pids()):
            await cluster._boot_node(pid)
        cluster._pump = asyncio.get_running_loop().create_task(
            cluster._deliver_posted(), name="coordinator-frames"
        )
        return cluster

    async def _boot_node(self, pid: int) -> None:
        node = NodeServer(pid, self)
        self.nodes[pid] = node
        node.start()
        if self.config.tcp:
            server, address = await start_listener(node.attach)
            self._servers[pid] = server
            self.addresses[pid] = address

    async def shutdown(self) -> None:
        """Stop every node and close every connection and listener."""
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass
            self._pump = None
        closing = [sink.close() for sink in self._peer_conns.values()]
        self._peer_conns.clear()
        if closing:
            await asyncio.wait(closing)
        for server in self._servers.values():
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for node in list(self.nodes.values()):
            await node.shutdown()
        self.nodes.clear()

    # -- connections --------------------------------------------------------

    async def open_connection(
        self, pid: int, factory: Callable[[], FrameConnection]
    ) -> FrameConnection:
        """A fresh connection to ``P(pid)``, run by ``factory``'s protocol."""
        node = self.nodes.get(pid)
        if node is None:
            raise PeerUnreachableError(f"P({pid}) is not serving")
        address = self.addresses.get(pid) if self.config.tcp else None
        return await dial_node(address, factory, attach=node.attach)

    async def send(self, src: int, msg: Message) -> None:
        """Deliver one frame from ``src`` (a PID or ``ADMIN``) to ``msg.dst``.

        Raises :class:`PeerUnreachableError` when the destination is
        not serving — the moment a sender discovers a §3 dead node.
        """
        dst = msg.dst
        node = self.nodes.get(dst)
        if node is None:
            raise PeerUnreachableError(f"P({dst}) is not serving")
        if dst == src:
            node.deliver_local(msg)
            return
        sink = self._peer_conns.get((src, dst))
        if sink is None:
            fresh = await self.open_connection(dst, self.peer_connection)
            # The dial yielded.  The destination may have been retired
            # meanwhile (a frame counted in flight now would never be
            # enqueued, and ``drain()`` would wait on it for ever), or
            # another sender may have dialled the same pair (one stream
            # per (src, dst), or its frames could reorder).
            if self.nodes.get(dst) is not node:
                fresh.close()
                raise PeerUnreachableError(f"P({dst}) is not serving")
            sink = self._peer_conns.setdefault((src, dst), fresh)
            if sink is not fresh:
                fresh.close()
        self._inflight_to[dst] = self._inflight_to.get(dst, 0) + 1
        try:
            t0 = perf_counter()
            try:
                sink.add(msg)
            finally:
                self.stage_seconds["encode"] += perf_counter() - t0
            sink.flush()
            if sink.paused:
                await sink.drained()
        except WireError:
            self._inflight_to[dst] = max(0, self._inflight_to.get(dst, 0) - 1)
            raise
        except (ConnectionError, OSError):
            self._inflight_to[dst] = max(0, self._inflight_to.get(dst, 0) - 1)
            self._peer_conns.pop((src, dst), None)
            sink.close()
            raise PeerUnreachableError(f"connection to P({dst}) failed") from None

    def count_client_send(self, pid: int) -> None:
        """In-process clients account their sends so drain() sees them.

        A send addressed to a retired node is never enqueued, so
        counting it would leave ``_inflight_to`` stuck above zero and
        ``drain()`` blocked until its timeout — under mid-burst churn a
        client can race the retirement, so the count is gated on the
        node still serving.
        """
        if pid in self.nodes:
            self._inflight_to[pid] = self._inflight_to.get(pid, 0) + 1

    def msg_enqueued(self, pid: int, src: int = CLIENT) -> None:
        """A frame landed in ``P(pid)``'s inbox (accounting settles).

        ``src`` is the sender the frame named — unused here (one shared
        loop sees both ends), but the scale-out worker counts receipts
        per source so quiescence survives a sender that is ``kill -9``ed
        along with its send counters.
        """
        self._inflight_to[pid] = max(0, self._inflight_to.get(pid, 0) - 1)

    # -- quiescence ---------------------------------------------------------

    def _quiet(self) -> bool:
        if self._undelivered:
            return False
        if any(count > 0 for count in self._inflight_to.values()):
            return False
        return not any(node.active for node in self.nodes.values())

    async def drain(self) -> None:
        """Wait until no message is in flight, queued, or being handled.

        Sender-side accounting (``_inflight_to``) covers the window
        between a write and the receiver's enqueue; inbox depth and the
        per-node busy flag cover the rest.  Requires several
        consecutive quiet checks so a handler that is about to fan out
        cannot slip through.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        quiet = 0
        while quiet < 3:
            if loop.time() > deadline:
                raise TimeoutError(
                    f"cluster did not drain within {self.config.drain_timeout}s"
                )
            if self._quiet():
                quiet += 1
                await asyncio.sleep(0)
            else:
                quiet = 0
                await asyncio.sleep(0.001)

    async def quiesce(self) -> None:
        """Disable autonomous replication, then drain: a stable snapshot."""
        self.replication_enabled = False
        await self.drain()

    # -- views over the real node stores ------------------------------------

    def holders(self, name: str) -> set[int]:
        """Live PIDs whose store holds a copy right now."""
        return {pid for pid, node in self.nodes.items() if name in node.store}

    def placement(self) -> dict[str, dict[int, str]]:
        """Snapshot: file → {holder PID → origin} over live stores."""
        out: dict[str, dict[int, str]] = {}
        for name in self.coordinator.mirror.catalog:
            out[name] = {
                pid: node.store.get(name, count_access=False).origin.value
                for pid, node in sorted(self.nodes.items())
                if name in node.store
            }
        return out

    def version_map(self) -> dict[str, int]:
        return {
            name: entry.version
            for name, entry in self.coordinator.mirror.catalog.items()
        }

    def served_counts(self) -> dict[int, int]:
        return {pid: node.served_total for pid, node in sorted(self.nodes.items())}

    def replicas_created(self) -> int:
        return sum(
            1 for rec in self.oplog
            if rec.kind == "replicate" and rec.target is not None
        )

    # -- coordination interface (what a NodeServer talks to) ----------------
    #
    # Each call is one `Coordinator` verb and resolves without yielding.

    def _post(self, frames: list[Message]) -> list[Message]:
        """Queue a verb's frames for delivery, in the step that made them.

        Posting is synchronous so record and frames stay one step, and
        delivery runs on the cluster's own task: the caller is often a
        node's task, and that node being killed mid-delivery must not
        take the copies it decided with it.
        """
        for msg in frames:
            self._outbox.put_nowait(msg)
        self._undelivered += len(frames)
        return frames

    async def _deliver_posted(self) -> None:
        """Send posted frames in order: one FIFO stream per destination."""
        while True:
            msg = await self._outbox.get()
            try:
                await self.send(ADMIN, msg)
            except PeerUnreachableError:
                pass  # died since the verb ran; its store went with it
            finally:
                self._undelivered -= 1

    async def catalog_claim(self, name: str, entry: int, payload: Any) -> bool:
        return self.coordinator.claim(name, payload, entry)

    async def catalog_advance(self, name: str, payload: Any) -> int | None:
        return self.coordinator.advance(name, payload)

    async def decide_replication(self, name: str, holder: int, seed: int) -> int | None:
        frames = self._post(self.coordinator.decide(name, holder, seed))
        return frames[0].dst if frames else None

    async def record_removal(self, name: str, pid: int) -> None:
        self._post(self.coordinator.remove(name, pid))

    async def trigger_overload(self, pid: int, name: str, seed: int) -> None:
        """Admin knob: tell a holder it is overloaded (conformance driver)."""
        await self.send(
            ADMIN,
            Message(
                kind=MessageKind.OVERLOAD, src=ADMIN, dst=pid, file=name,
                payload={"seed": seed},
            ),
        )

    # -- membership (§5) ----------------------------------------------------

    async def _broadcast_register(self, kind: MessageKind, pid: int) -> None:
        for other in sorted(self.nodes):
            if other == pid:
                continue
            await self.send(
                ADMIN,
                Message(kind=kind, src=ADMIN, dst=other, payload={"pid": pid}),
            )
        await self.drain()

    async def _churn_step(
        self, verb: Callable[[int], list[Message]], pid: int
    ) -> list[str]:
        """The second half of a §5 operation: the coordinator's plan,
        delivered and landed with autonomous replication paused.
        Returns the names of the files that found a new home."""
        was_replicating = self.replication_enabled
        self.replication_enabled = False
        try:
            frames = self._post(verb(pid))
            await self.drain()
        finally:
            self.replication_enabled = was_replicating
        return [msg.file for msg in frames if msg.kind is MessageKind.TRANSFER]

    async def join(self, pid: int) -> list[str]:
        """§5.1: boot ``P(pid)``, register it, migrate its files to it."""
        check_id(pid, self.config.m)
        if self.word.is_live(pid):
            raise MembershipError(f"P({pid}) is already live")
        if pid in self._silent_deaths:
            # No resurrection before the coroner files: the pending
            # autopsy (announce, §5.3 recovery, the closing ``recover``
            # oplog record) must land first, or the rejoin would leave
            # the victim's lost files unrecovered and the oracle replay
            # would see a live node being recovered from.
            await self.announce_crash(pid)
        # The arrival record lands with the membership flip, so
        # replication decisions taken while the migration plan is still
        # pending replay against a word that already knows the newcomer.
        self.coordinator.arrive(pid)
        await self._boot_node(pid)
        await self._broadcast_register(MessageKind.REGISTER_LIVE, pid)
        return await self._churn_step(self.coordinator.settle, pid)

    async def leave(self, pid: int) -> list[str]:
        """§5.2: ``P(pid)`` leaves; its inserted files are re-inserted."""
        if not self.word.is_live(pid) or pid not in self.nodes:
            raise MembershipError(f"P({pid}) is not live")
        self.coordinator.depart(pid)
        await self._retire_node(pid)
        await self._broadcast_register(MessageKind.REGISTER_DEAD, pid)
        return await self._churn_step(self.coordinator.reinsert, pid)

    async def crash(self, pid: int, announce: bool = True) -> list[str]:
        """§5.3: ``P(pid)`` dies; storage lost; recover homes from donors.

        ``announce=False`` models an *undetected* failure: the node
        stops serving but no REGISTER_DEAD circulates and no recovery
        runs — peers discover the death through failed sends, the
        message-level ``FINDLIVENODE`` (used by the reroute tests).
        :meth:`announce_crash` runs the deferred detection + recovery
        later (the autopsy), which the churn harness calls post-burst
        so per-node words reconcile before a conformance diff.
        """
        if not self.word.is_live(pid) or pid not in self.nodes:
            raise MembershipError(f"P({pid}) is not live")
        # The kill record lands with the retirement, so replication
        # decisions taken between death and detection replay against a
        # word that already lost the victim.
        self.coordinator.kill(pid)
        await self._retire_node(pid)
        if not announce:
            self._silent_deaths.add(pid)
            return []
        return await self._announce_crash_effects(pid)

    async def announce_crash(self, pid: int) -> list[str]:
        """The autopsy: deferred §5.3 detection for a silent crash.

        Models the failure detector eventually catching up with a
        ``crash(announce=False)``: REGISTER_DEAD circulates, recovery
        re-homes the victim's files, and the ``recover`` record lands —
        after which every per-node word agrees with the authoritative
        one again and a conformance diff is meaningful.
        """
        if pid not in self._silent_deaths:
            raise MembershipError(f"P({pid}) has no unannounced crash")
        self._silent_deaths.discard(pid)
        return await self._announce_crash_effects(pid)

    async def _announce_crash_effects(self, pid: int) -> list[str]:
        """REGISTER_DEAD broadcast + §5.3 recovery for a retired node."""
        await self._broadcast_register(MessageKind.REGISTER_DEAD, pid)
        return await self._churn_step(self.coordinator.recover, pid)

    async def _retire_node(self, pid: int) -> None:
        """Take a node off the wire: no new frames can reach it."""
        node = self.nodes.pop(pid)
        self._inflight_to[pid] = 0
        server = self._servers.pop(pid, None)
        if server is not None:
            server.close()
            await server.wait_closed()
        for key in [k for k in self._peer_conns if pid in k]:
            sink = self._peer_conns.pop(key)
            src, dst = key
            if src == pid and dst != pid:
                # A crashing sender loses its socket buffer: frames
                # still buffered in the sink (only a paused sink holds
                # any) were counted in-flight
                # at ``send()`` but will never reach ``dst`` — reverse
                # the accounting or ``drain()`` waits on them forever.
                lost = sink.encoder.pending
                if lost:
                    self._inflight_to[dst] = max(
                        0, self._inflight_to.get(dst, 0) - lost
                    )
            sink.close()
        # Bounce the GETs stranded in the victim's queues back to their
        # origin entries: each re-forwards, and the failed send to the
        # now-dead node is its FINDLIVENODE moment (§3) — the request
        # reroutes instead of stranding its client until timeout.
        for msg in node.drain_lost_gets():
            origin = msg.origin
            if origin != pid and origin in self.nodes:
                self.nodes[origin].deliver_local(msg)
        await node.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "tcp" if self.config.tcp else "streams"
        return (
            f"LiveCluster(m={self.config.m}, b={self.config.b}, "
            f"live={self.word.live_count()}, "
            f"files={len(self.coordinator.mirror.catalog)}, "
            f"{mode})"
        )
