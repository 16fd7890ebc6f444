"""`NodeServer`: one live LessLog node as an asyncio service.

Every connection is a :class:`~repro.runtime.wire.FrameConnection`,
and a frame is served where it lands: the ``data_received`` callback
that decoded it admits it and runs its handler on the spot, as long as
nothing is ahead of it — the node's consumer task is parked on an empty
inbox.  A handler that has to wait (a first-contact dial, a paused
stream, a ``service_time`` sleep, a control RPC) is handed, half-run, to
the consumer, and later arrivals queue in the inbox behind it, so a
node still handles one message at a time, in arrival order.  One
housekeeping task (the overload sweeper) runs beside the consumer when
the config gives it a trigger to watch.  No handler
blocks on a reply — multi-message flows (an INSERT fanning out to its
``2**b`` homes, a GET climbing the lookup tree) park their state in a
pending table keyed by ``request_id`` and resume when the matching
ACK / GET_REPLY frame arrives, so a node can always make progress on
its inbox: deadlock-free by construction.

The node serves the paper's four flows with the *existing core
algebra* — the same :mod:`repro.core.subtree` decisions
`LessLogSystem` and the DES take, just spread across messages:

* **GET** (§2.2/§3/§4): a node without a copy forwards to
  :func:`~repro.core.subtree.get_next_hop` of its own word — up the
  entry's subtree, migrating across the remaining ``2**b - 1``
  subtrees on a fault; the serving node replies toward the request's
  ``origin`` node, which relays to the client connection.
* **INSERT** (§3/§4) fans out to
  :func:`~repro.core.subtree.insert_targets`, one storage node per
  subtree, acking the client once every home confirmed.
* **UPDATE** (§2.2) broadcasts top-down from
  :func:`~repro.core.subtree.update_starts` (each subtree root, a dead
  one bypassed to its children list); a holder re-broadcasts to the
  members of :func:`~repro.core.subtree.subtree_children_list` of its
  own word on which it placed a copy — its per-file *placed set*, kept
  from its own INSERT/REPLICATE/decision history, no log — or to the
  whole list while that set is unknown (a TRANSFER, a changed word, a
  decision in flight).  Every child's frame is the one the holder
  received, copied and re-addressed (the wire's carried body).
* **REPLICATE** (§2.2/§3): an overloaded holder — its served rate
  over capacity; the node counts served requests per file and in
  total, and keeps no access log — reports the file and its seed to
  the coordination plane, which runs ``LessLogSystem.replicate`` on
  its mirror and sends the chosen node its copy as a REPLICATE frame.

Dead peers are discovered the §3 way: a failed send marks the peer
dead in this node's own status word and the routing step recomputes —
the message-level ``FINDLIVENODE``.

**Overload control plane.**  With ``RuntimeConfig(inbox_limit=N)`` the
node consults an :class:`~repro.runtime.overload.AdmissionController`
for every wire arrival: data GETs beyond the bound are shed per the
configured shed × queue × victim policy cell, and every victim is
answered with an OVERLOAD frame naming the shedding node and a
redirect hint — never silently dropped, so dropped-vs-rerouted-vs-
served accounting stays conserved.  Control traffic is never shed.
With a finite ``slo_budget`` the sweeper also watches a windowed
enqueue-to-serve latency p99 and replicates away load when it drifts
past budget, before the raw hit counter trips.

**Fast path.**  The node keeps no routing state of its own beyond its
status word.  The ``core.subtree`` decisions are memoized on the word's
*content* (``cache_token``), so a next hop or a children list is one
dict lookup per message, shared by every node whose word reads the
same, and any word mutation (a failed send, a REGISTER frame) changes
the token, so a stale answer cannot be served; a miss is the scalar
bitwise walk.  Every frame a handler makes — a forwarded hop, a
client reply — is written before the handler moves on (write-through;
only a paused connection holds frames back).  The sweeper
optionally runs counter-based idle decay: a REPLICATED copy
whose access counter has not moved for ``idle_timeout`` seconds is
reported to the coordination plane, which records the removal and
answers with the REMOVE frame.
"""

from __future__ import annotations

import asyncio
import random
import types
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

from ..core.subtree import (
    get_next_hop,
    insert_targets,
    subtree_children_list,
    subtree_of_pid,
    update_starts,
)
from ..net.message import Message, MessageKind, fast_message
from ..node.loadmon import ServedLoad
from ..node.storage import FileOrigin, FileStore
from .addressing import PeerUnreachableError
from .overload import AdmissionController, LatencyTracker
from .wire import FrameConnection

if TYPE_CHECKING:  # pragma: no cover
    from .host import NodeHost

__all__ = ["CLIENT", "NodeServer"]

CLIENT = -1
"""``src`` of a request arriving straight from a client connection."""

SWEEP_INTERVAL = 0.02
"""Seconds between two ticks of a node's load sweeper."""

_SLO_MIN_SAMPLES = 8
"""Windowed latency samples required before the p99 SLO trigger can
fire — a lone slow request must not cause a replication round."""


@types.coroutine
def _resume(coro, yielded):
    """Finish a coroutine that was already stepped to a suspension:
    re-yield what it yielded, then relay sends and throws until it ends."""
    while True:
        try:
            sent = yield yielded
        except BaseException as exc:  # noqa: BLE001 - relayed, never kept
            step, arg = coro.throw, exc
        else:
            step, arg = coro.send, sent
        try:
            yielded = step(arg)
        except StopIteration:
            return


class _Inbox(deque):
    """Arrivals that found something ahead of them, oldest first."""

    qsize = deque.__len__


@dataclass
class _PendingGet:
    """A client GET this node entered into the overlay, awaiting a reply."""

    conn: FrameConnection


@dataclass
class _PendingInsert:
    """A client INSERT awaiting ACKs from its remote homes."""

    conn: FrameConnection
    awaiting: int
    reply: Message


class NodeServer:
    """One live node: storage, membership view, and the four flows."""

    def __init__(self, pid: int, cluster: "NodeHost") -> None:
        self.pid = pid
        self.cluster = cluster
        config = cluster.config
        self.m = config.m
        self.b = config.b
        self.word = cluster.word.copy()
        self.store = FileStore()
        self.monitor = ServedLoad(window=config.window)
        self.inbox = _Inbox()  # (message, connection) pairs
        self._wake: asyncio.Future | None = None
        """Set exactly while the consumer is parked with nothing queued
        — the one condition under which an arrival is served inline."""
        self._parked: tuple | None = None
        """A handler that suspended inline, with what it yielded; the
        consumer finishes it before it looks at the inbox."""
        self.pending: dict[int, _PendingGet | _PendingInsert] = {}
        self.admission = (
            AdmissionController(
                config.overload_policy(), config.inbox_limit,
                seed=(config.seed * 69_069 + pid) & 0x7FFFFFFF,
            )
            if config.inbox_limit > 0
            else None
        )
        self.latency = LatencyTracker(window=config.window)
        self._track_latency = config.slo_budget != float("inf")
        self._arrivals: dict[int, float] = {}
        self.busy = False
        self.served_total = 0
        self.shed_total = 0
        self.decode_errors = 0
        self.last_replication = -float("inf")
        self._decision_count = 0
        # file → last observed alternative-holder set; the (lagging)
        # knowledge _redirect_hint falls back on when the fresh holder
        # view offers no alternative.
        self._hint_cache: dict[str, tuple[int, ...]] = {}
        self._placed: dict[str, set[int]] = {}
        """File → the members of this node's children list it placed a
        copy on; no entry means unknown.  Read through :meth:`_placement`,
        which forgets every set once the word's ``epoch`` moves."""
        self._placed_epoch = self.word.epoch
        self._deciding: dict[str, int] = {}
        """File → placement decisions awaiting their outcome."""
        self._access_marks: dict[str, tuple[int, float]] = {}
        self._conns: set[FrameConnection] = set()
        self._tasks: set[asyncio.Task] = set()
        self._serve_queue: deque[tuple[float, Message, float | None]] = deque()
        self._serve_waiter: asyncio.Future | None = None
        self._serving = False
        self._pipelined = config.batch_max > 1
        self._running = True

    def start(self) -> None:
        """Spawn the consumer task, the sweeper when the config gives it
        something to trip on (``RuntimeConfig.needs_sweeper``), and the
        serve worker when GETs have a service time to pipeline."""
        loop = asyncio.get_running_loop()
        config = self.cluster.config
        self._tasks.add(loop.create_task(self._consume(), name=f"node:{self.pid}"))
        if config.needs_sweeper:
            self._tasks.add(loop.create_task(self._sweep(), name=f"sweep:{self.pid}"))
        if self._pipelined and config.service_time > 0:
            self._tasks.add(
                loop.create_task(self._serve_worker(), name=f"serve:{self.pid}")
            )

    # -- connection plumbing ------------------------------------------------

    def attach(self) -> FrameConnection:
        """Protocol factory for an accepted connection (client or peer):
        it lives in ``_conns`` until it is lost."""
        conn = FrameConnection(self._on_frames, self._conns.discard)
        self._conns.add(conn)
        return conn

    def _on_frames(self, conn: FrameConnection, frames: list, errors: int) -> None:
        """Admit and serve one decoded batch, inside ``data_received``.

        Well-framed bodies that failed to decode were counted and
        skipped by the connection (framing stays aligned).  Shed
        replies leave in arrival order, before the next arrival is
        looked at.  An admitted frame is dispatched here and now when
        nothing is ahead of it (see :meth:`_inline`), else it queues.
        """
        cluster = self.cluster
        pid = self.pid
        if errors:
            self.decode_errors += errors
            for _ in range(errors):
                cluster.note_decode_error(pid)
        enqueued = cluster.msg_enqueued
        admission = self.admission
        track = self._track_latency
        now = asyncio.get_running_loop().time() if track or admission else 0.0
        for msg in frames:
            if track and msg.kind is MessageKind.GET:
                self._arrivals[msg.request_id] = now
            if admission is not None:
                accepted, victims = admission.admit(msg, conn)
                for victim_msg, victim_conn in victims:
                    self._start(self._shed(victim_msg, victim_conn))
                if not accepted:
                    self._start(self._shed(msg, conn))
                    # The shed arrival is never dispatched, but the
                    # sender's in-flight accounting must still settle
                    # or drain() hangs on this frame forever.
                    enqueued(pid, msg.src)
                    continue
            enqueued(pid, msg.src)
            if self._wake is not None:
                self._inline(self._dispatch(msg, conn))
            else:
                self.inbox.append((msg, conn))
        cluster.stage_seconds["decode"] += conn.decode_seconds
        conn.decode_seconds = 0.0

    def _inline(self, coro) -> None:
        """Run a handler in the callback its frame arrived in — only
        with the consumer parked on an empty inbox, i.e. when it would
        have run this handler next.  One that suspends becomes the
        consumer's first job and, the consumer no longer being parked,
        everything after it queues: dispatch order is arrival order."""
        try:
            yielded = coro.send(None)
        except StopIteration:
            return
        except Exception:  # noqa: BLE001 - must not escape data_received
            self.cluster.note_handler_error(self.pid)
            return
        self._parked = (coro, yielded)
        self.busy = True
        self._rouse()

    def _rouse(self) -> None:
        """Wake a parked consumer; arrivals queue until it parks again."""
        wake = self._wake
        if wake is not None:
            self._wake = None
            wake.set_result(None)

    def _start(self, coro) -> None:
        """Run ``coro`` now, up to its first suspension — what 3.12's
        eager task start does.  A shed reply almost always completes
        here; one that must dial or wait out backpressure finishes on a
        task, and the arrivals behind it are not held up."""
        try:
            yielded = coro.send(None)
        except StopIteration:
            return
        task = asyncio.ensure_future(_resume(coro, yielded))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def deliver_local(self, msg: Message) -> None:
        """Enqueue a message this node addressed to itself."""
        self.inbox.append((msg, None))
        self._rouse()

    async def _write_client(self, conn: FrameConnection, msg: Message) -> None:
        """Best-effort reply to a client connection.

        Written before this returns, like every frame; on a paused
        connection it waits in the encoder, and the handler waits for
        the transport to drain.
        """
        if conn.closed:
            return
        t0 = perf_counter()
        conn.add(msg)
        self.cluster.stage_seconds["encode"] += perf_counter() - t0
        conn.flush()
        if conn.paused:
            try:
                await conn.drained()
            except ConnectionError:
                pass  # the client died; its connection is already closed

    async def _send(self, msg: Message) -> bool:
        """Send toward a peer; a dead peer is marked in our own word.

        Returning ``False`` is the §3 fault-discovery moment: the
        caller recomputes its routing step against the updated word.
        """
        try:
            await self.cluster.send(self.pid, msg)
            return True
        except PeerUnreachableError:
            if 0 <= msg.dst < (1 << self.m) and msg.dst != self.pid:
                self.word.register_dead(msg.dst)
            return False

    # -- main loop ----------------------------------------------------------

    async def _consume(self) -> None:
        """Serve what could not be served where it landed.

        Parked on ``_wake`` while there is nothing to do — the state in
        which :meth:`_on_frames` dispatches inline.  Woken, it finishes
        the handler that suspended inline, if any, then drains the
        inbox.
        """
        inbox = self.inbox
        loop = asyncio.get_running_loop()
        while self._running:
            if self._parked is None and not inbox:
                self.busy = False
                self._wake = loop.create_future()
                try:
                    await self._wake
                finally:
                    self._wake = None
                continue
            self.busy = True
            parked, self._parked = self._parked, None
            if parked is not None:
                await self._guarded(_resume(*parked))
            while inbox:
                await self._guarded(self._dispatch(*inbox.popleft()))

    async def _guarded(self, handler) -> None:
        """Await one handler; its failure is counted, not propagated."""
        try:
            await handler
        except Exception:  # pragma: no cover - defensive
            self.cluster.note_handler_error(self.pid)

    async def _dispatch(self, msg: Message, conn: FrameConnection | None) -> None:
        kind = msg.kind
        if kind is MessageKind.GET:
            await self._handle_get(msg, conn)
        elif kind in (MessageKind.GET_REPLY, MessageKind.GET_FAULT,
                      MessageKind.ERROR):
            await self._handle_reply(msg)
        elif kind is MessageKind.ACK:
            await self._handle_ack(msg)
        elif kind is MessageKind.INSERT:
            await self._handle_insert(msg, conn)
        elif kind is MessageKind.UPDATE:
            await self._handle_update(msg, conn)
        elif kind is MessageKind.REPLICATE:
            self._handle_replicate(msg)
        elif kind is MessageKind.OVERLOAD:
            payload = msg.payload if isinstance(msg.payload, dict) else {}
            if "shed_by" in payload:
                # A shed reply travelling back toward its entry node:
                # relay it to the waiting client like any terminal reply.
                await self._handle_reply(msg)
            else:
                # Admin trigger (src == ADMIN): treat this node as
                # overloaded and run one placement decision.
                await self._replicate_decision(msg.file, seed=payload.get("seed"))
        elif kind is MessageKind.TRANSFER:
            self._handle_transfer(msg)
        elif kind is MessageKind.DEMOTE:
            if msg.file in self.store:
                self.store.get(msg.file, count_access=False).origin = (
                    FileOrigin.REPLICATED
                )
        elif kind is MessageKind.REMOVE:
            self.store.discard(msg.file)
            self._placed.pop(msg.file, None)
        elif kind is MessageKind.REGISTER_LIVE:
            self.word.register_live(int(msg.payload["pid"]))
        elif kind is MessageKind.REGISTER_DEAD:
            self.word.register_dead(int(msg.payload["pid"]))

    # -- GET ----------------------------------------------------------------

    async def _handle_get(self, msg: Message, conn: FrameConnection | None) -> None:
        admission = self.admission
        if admission is not None and admission.release(msg):
            return  # shed while queued; its OVERLOAD reply already left
        arrival = (
            self._arrivals.pop(msg.request_id, None)
            if self._track_latency else None
        )
        if msg.src == CLIENT:
            # Entry node: stamp the origin and remember the client.
            # (fast_message — this runs for every client GET and both
            # dataclasses.replace and the frozen __init__ cost more.)
            msg = fast_message(
                msg.kind, msg.src, msg.dst, msg.file, msg.payload,
                msg.version, msg.hops, self.pid, msg.request_id,
            )
            if conn is not None:
                self.pending[msg.request_id] = _PendingGet(conn)
        if msg.file in self.store:
            if self._pipelined and self.cluster.config.service_time > 0:
                # Fast path: overlap the (simulated) service latencies
                # instead of serializing them through the consumer.
                # Arrivals are FIFO and the service time is constant,
                # so due times are monotonic: one worker task with one
                # timer per wake replaces a task + sleep per request,
                # and requests due in the same wake share the tick.
                self._serve_queue.append(
                    (asyncio.get_running_loop().time()
                     + self.cluster.config.service_time, msg, arrival)
                )
                waiter = self._serve_waiter
                if waiter is not None:
                    self._serve_waiter = None
                    if not waiter.done():
                        waiter.set_result(None)
            else:
                await self._serve(msg, arrival=arrival)
            return
        await self._forward(msg)
        if admission is not None:
            # Forwarded (or faulted) away: the GET's stay here is over.
            admission.finish(msg)

    async def _serve_worker(self) -> None:
        """Drain the due-time serve queue with one timer per wake."""
        loop = asyncio.get_running_loop()
        queue = self._serve_queue
        while self._running:
            if not queue:
                waiter = loop.create_future()
                self._serve_waiter = waiter
                await waiter
                continue
            delay = queue[0][0] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
                continue
            self._serving = True
            try:
                while queue and queue[0][0] <= loop.time():
                    _, msg, arrival = queue.popleft()
                    await self._guarded(
                        self._serve(msg, slept=True, arrival=arrival)
                    )
            finally:
                self._serving = False

    async def _serve(
        self, msg: Message, slept: bool = False, arrival: float | None = None
    ) -> None:
        service_time = self.cluster.config.service_time
        if service_time > 0 and not slept:
            await asyncio.sleep(service_time)
        t0 = perf_counter()
        copy = self.store.get(msg.file)
        now = asyncio.get_running_loop().time()
        self.monitor.record(msg.file, now)
        if arrival is not None:
            # Enqueue-to-serve latency: the windowed p99 the SLO-aware
            # replication trigger watches.
            self.latency.record(now, now - arrival)
        if self.admission is not None:
            self.admission.finish(msg)
        self.served_total += 1
        reply = fast_message(
            MessageKind.GET_REPLY, msg.dst, msg.origin, msg.file,
            {"payload": copy.payload, "server": self.pid},
            copy.version, msg.hops, msg.origin, msg.request_id,
        )
        self.cluster.stage_seconds["serve"] += perf_counter() - t0
        await self._finish(msg, reply)

    async def _fault(self, msg: Message) -> None:
        self.cluster.count("get_faults")
        await self._finish(
            msg,
            fast_message(
                MessageKind.GET_FAULT, msg.dst, msg.origin, msg.file, None,
                msg.version, msg.hops, msg.origin, msg.request_id,
            ),
        )

    async def _shed(self, msg: Message, conn: FrameConnection | None) -> None:
        """Answer a shed GET with an OVERLOAD reply — never a silent drop.

        The reply names the shedding node and a redirect hint (another
        live holder of the file, when one exists) so the client — or
        the DES reliability layer's ``RequestTracker`` — reroutes with
        backoff instead of waiting out its timeout.  Shedding happens
        pre-dispatch, so a client-entry GET (``src == CLIENT``) was
        never stamped and is answered straight down its connection; a
        peer-forwarded GET is answered toward its origin node, which
        relays like any terminal reply.
        """
        self.shed_total += 1
        self.cluster.count("overload_shed")
        self._arrivals.pop(msg.request_id, None)
        payload = {"shed_by": self.pid, "redirect": self._redirect_hint(msg.file)}
        if msg.src == CLIENT:
            if conn is not None:
                await self._write_client(
                    conn,
                    fast_message(
                        MessageKind.OVERLOAD, self.pid, CLIENT, msg.file,
                        payload, msg.version, msg.hops, msg.origin,
                        msg.request_id,
                    ),
                )
            return
        await self._send(
            fast_message(
                MessageKind.OVERLOAD, self.pid, msg.origin, msg.file,
                payload, msg.version, msg.hops, msg.origin, msg.request_id,
            )
        )  # a dead origin drops the reply: the client times out

    def _redirect_hint(self, name: str) -> int:
        """A live alternative holder of ``name``, or ``-1`` when there is
        none — a coordination-plane read, like the placement policies'
        documented oracle view.

        When the fresh view offers no alternative the node falls back
        on the last holder set it observed — what a real peer, with no
        oracle, actually knows.  That cached knowledge lags churn, so
        the candidates are intersected with this node's *own* status
        word: a hint names the client's next attempt, and under churn
        this node can know a replica is dead (a failed send — the §3
        FINDLIVENODE discovery) before the coordination plane has
        processed the retirement.  Never hand out a hint the sender
        itself would refuse to route to.  A *silent* crash defeats even
        the word filter — nobody was told — which is why the client
        treats a dead hint as a reroute, not a verdict.
        """
        holders = self.cluster.holders(name)
        holders.discard(self.pid)
        if holders:
            self._hint_cache[name] = tuple(sorted(holders))
        else:
            holders = set(self._hint_cache.get(name, ()))
        choices = sorted(p for p in holders if self.word.is_live(p))
        if not choices:
            return -1
        if len(choices) == 1:
            return choices[0]
        rng = self.admission.rng if self.admission is not None else random
        return choices[rng.randrange(len(choices))]

    async def _finish(self, request: Message, reply: Message) -> None:
        """Route a terminal reply: direct to our client, or via origin."""
        if request.origin == self.pid:
            pend = self.pending.pop(request.request_id, None)
            if isinstance(pend, _PendingGet):
                await self._write_client(
                    pend.conn,
                    fast_message(
                        reply.kind, reply.src, CLIENT, reply.file,
                        reply.payload, reply.version, reply.hops,
                        reply.origin, reply.request_id,
                    ),
                )
            return
        await self._send(reply)  # a dead origin drops the reply: client times out

    async def _handle_reply(self, msg: Message) -> None:
        pend = self.pending.pop(msg.request_id, None)
        if isinstance(pend, (_PendingGet, _PendingInsert)):
            await self._write_client(
                pend.conn,
                fast_message(
                    msg.kind, msg.src, CLIENT, msg.file, msg.payload,
                    msg.version, msg.hops, msg.origin, msg.request_id,
                ),
            )

    async def _forward(self, msg: Message) -> None:
        """§3/§4: pass on a GET this node cannot serve, or fault it.

        :func:`~repro.core.subtree.get_next_hop` decides against this
        node's own word, from the subtree list the GET arrived with (its
        payload; ``None`` fresh from a client).  A failed send marks the
        peer dead in that word (:meth:`_send`) and the decision is taken
        again from the same list.  Sends happen outside the ``route``
        stage window.
        """
        cluster = self.cluster
        tree = cluster.tree(cluster.psi_of(msg.file))
        stage = cluster.stage_seconds
        while True:
            t0 = perf_counter()
            hop = get_next_hop(tree, self.b, self.pid, msg.payload, self.word)
            stage["route"] += perf_counter() - t0
            if hop is None:
                await self._fault(msg)
                return
            dst, carried = hop
            out = msg
            if carried is not None:
                remaining = list(carried)
                if remaining != msg.payload:
                    out = fast_message(
                        msg.kind, msg.src, msg.dst, msg.file, remaining,
                        msg.version, msg.hops, msg.origin, msg.request_id,
                    )
                if carried[0] != subtree_of_pid(tree, self.pid, self.b):
                    cluster.count("migrations")
            if await self._send(out.forwarded(self.pid, dst)):
                return

    # -- INSERT -------------------------------------------------------------

    async def _handle_insert(self, msg: Message, conn: FrameConnection | None) -> None:
        if msg.src != CLIENT:
            # A home receiving its copy: store and confirm to the origin.
            self.store.store(
                msg.file, msg.payload, msg.version, FileOrigin.INSERTED,
                now=asyncio.get_running_loop().time(),
            )
            self._placement()[msg.file] = set()
            await self._send(
                fast_message(
                    MessageKind.ACK, self.pid, msg.origin, msg.file, None,
                    msg.version, 0, msg.origin, msg.request_id,
                )
            )
            return
        # Entry node: the client-facing ADVANCEDINSERTFILE (§3/§4).
        name = msg.file
        r = self.cluster.psi_of(name)
        tree = self.cluster.tree(r)
        t0 = perf_counter()
        homes = insert_targets(tree, self.b, self.word)
        self.cluster.stage_seconds["route"] += perf_counter() - t0
        if not homes:
            await self._client_error(msg, conn, f"no live storage node for {name!r}")
            return
        if not await self.cluster.catalog_claim(name, self.pid, msg.payload):
            await self._client_error(msg, conn, f"file {name!r} already inserted")
            return
        reply = fast_message(
            MessageKind.ACK, msg.dst, CLIENT, name,
            {"homes": homes, "target": r}, 1, msg.hops, msg.origin,
            msg.request_id,
        )
        remote = [h for h in homes if h != self.pid]
        if self.pid in homes:
            self.store.store(
                name, msg.payload, 1, FileOrigin.INSERTED,
                now=asyncio.get_running_loop().time(),
            )
            self._placement()[name] = set()
        stamped = fast_message(
            msg.kind, msg.src, msg.dst, name, msg.payload, 1, msg.hops,
            self.pid, msg.request_id,
        )
        for home in remote:
            await self._send(stamped.forwarded(self.pid, home))
        if not remote:
            if conn is not None:
                await self._write_client(conn, reply)
            return
        if conn is not None:
            self.pending[msg.request_id] = _PendingInsert(conn, len(remote), reply)

    async def _handle_ack(self, msg: Message) -> None:
        pend = self.pending.get(msg.request_id)
        if not isinstance(pend, _PendingInsert):
            return
        pend.awaiting -= 1
        if pend.awaiting <= 0:
            del self.pending[msg.request_id]
            await self._write_client(pend.conn, pend.reply)

    async def _client_error(
        self, msg: Message, conn: FrameConnection | None, reason: str
    ) -> None:
        self.cluster.count("client_errors")
        if conn is not None:
            await self._write_client(
                conn,
                fast_message(
                    MessageKind.ERROR, msg.dst, CLIENT, msg.file,
                    {"reason": reason}, msg.version, msg.hops, msg.origin,
                    msg.request_id,
                ),
            )

    # -- UPDATE -------------------------------------------------------------

    async def _handle_update(self, msg: Message, conn: FrameConnection | None) -> None:
        cluster = self.cluster
        name = msg.file
        if msg.src != CLIENT:
            # §2.2 top-down broadcast step: refresh + re-broadcast, or discard.
            if name not in self.store:
                cluster.count("update_discards")
                return
            self.store.update(name, msg.payload, msg.version)
            children = subtree_children_list(
                cluster.tree(cluster.psi_of(name)), self.b, self.pid, self.word
            )
            placed = self._placement().get(name)
            if placed is not None and name not in self._deciding:
                # Only where this node put a copy: the rest would discard.
                children = [child for child in children if child in placed]
            # ``forwarded`` hands each child's copy the body this frame
            # arrived in: one encode (the sender's) per fan-out.
            for child in children:
                await self._send(msg.forwarded(self.pid, child))
            return
        # Entry node: assign the next version, start the broadcast (§2.2/§3).
        version = await cluster.catalog_advance(name, msg.payload)
        if version is None:
            await self._client_error(msg, conn, f"file {name!r} not inserted")
            return
        tree = cluster.tree(cluster.psi_of(name))
        stamped = fast_message(
            msg.kind, msg.src, msg.dst, name, msg.payload, version, msg.hops,
            self.pid, msg.request_id,
        )
        for target in update_starts(tree, self.b, self.word):
            hop = stamped.forwarded(self.pid, target)
            if target == self.pid:
                self.deliver_local(hop)
            else:
                await self._send(hop)
        if conn is not None:
            await self._write_client(
                conn,
                fast_message(
                    MessageKind.ACK, msg.dst, CLIENT, name, {}, version,
                    msg.hops, msg.origin, msg.request_id,
                ),
            )

    # -- REPLICATE ----------------------------------------------------------

    def _handle_replicate(self, msg: Message) -> None:
        payload = msg.payload if isinstance(msg.payload, dict) else {}
        self.store.store(
            msg.file, payload.get("payload"), msg.version,
            FileOrigin.REPLICATED, now=asyncio.get_running_loop().time(),
        )
        self._placement()[msg.file] = set()

    def _handle_transfer(self, msg: Message) -> None:
        """§5 churn migration: adopt an original copy as its new home.
        The copies below it were not placed here: the set is unknown."""
        payload = msg.payload if isinstance(msg.payload, dict) else {}
        self.store.store(
            msg.file, payload.get("payload"), msg.version,
            FileOrigin.INSERTED, now=asyncio.get_running_loop().time(),
        )
        self._placed.pop(msg.file, None)

    def _placement(self) -> dict[str, set[int]]:
        """The per-file placed sets, valid for this node's current word.

        Invariant: while ``word.epoch`` reads what it read when a set
        was started, the set holds every member of this node's children
        list that holds the file — copies there are only ever placed by
        this node's own decisions.  Any word change (a splice after a
        death, a join, a failed send) forgets every set; the epoch only
        grows, so an old set can never look current again.
        """
        epoch = self.word.epoch
        if epoch != self._placed_epoch:
            self._placed.clear()
            self._placed_epoch = epoch
        return self._placed

    def _note_placed(self, name: str, target: int) -> None:
        """Record a decision's target in ``name``'s placed set.

        A target outside this node's children list that is not an
        update start means the coordinator's membership and this node's
        word disagree: the set can no longer vouch for the list, so it
        is forgotten.
        """
        placed = self._placement().get(name)
        if placed is None:
            return
        cluster = self.cluster
        tree = cluster.tree(cluster.psi_of(name))
        if target in subtree_children_list(tree, self.b, self.pid, self.word):
            placed.add(target)
        elif target not in update_starts(tree, self.b, self.word):
            del self._placed[name]

    async def _replicate_decision(self, name: str, seed: int | None = None) -> int | None:
        """One placement decision for this (overloaded) holder.

        The node contributes what only it knows — whether it still
        holds the copy, and the derived rng seed — and the coordination
        plane runs the ``LessLogSystem.replicate`` computation from the
        tree shape and its mirror's holders, records the decision
        and sends the target its copy in the same step
        (:meth:`Coordinator.decide`), so no crash can land between the
        record and the copy.
        """
        if name not in self.store:
            return None
        if seed is None:
            seed = self._derived_seed()
        self._decision_count += 1
        # While the outcome is out, the target may already hold its copy:
        # ``name``'s UPDATEs fan out to the whole children list.
        deciding = self._deciding
        deciding[name] = deciding.get(name, 0) + 1
        try:
            target = await self.cluster.decide_replication(name, self.pid, seed)
        except ConnectionError:
            self._placed.pop(name, None)  # the outcome never came back
            return None
        finally:
            left = deciding.pop(name) - 1
            if left:
                deciding[name] = left
        if target is not None:
            self._note_placed(name, target)
        return target

    # -- overload sweeper ---------------------------------------------------

    async def _sweep(self) -> None:
        """The per-node overload trigger: replicate away sustained pressure.

        Overload is either a saturated in-flight window (inbox depth at
        or beyond ``inflight_limit``) or a served rate above
        ``capacity`` — the paper's requests-per-second threshold.  The
        replica goes toward the max-traffic child subtree by the
        logless argument: the policy's children-list choice.

        With a finite ``idle_timeout`` the same tick also runs
        counter-based removal (§5-adjacent, the live dual of
        ``LessLogSystem.remove_replica``): a REPLICATED copy whose
        access counter has not advanced for ``idle_timeout`` seconds is
        reported for removal (:meth:`Coordinator.remove`).
        """
        config = self.cluster.config
        decay = config.idle_timeout != float("inf")
        while self._running:
            await asyncio.sleep(SWEEP_INTERVAL)
            if not self.cluster.replication_enabled:
                continue
            now = asyncio.get_running_loop().time()
            if decay:
                await self._decay_idle(now)
            rate = self.monitor.total_rate(now)
            saturated = self.inbox.qsize() >= config.inflight_limit
            slo_breach = (
                self._track_latency
                and self.latency.count(now) >= _SLO_MIN_SAMPLES
                and self.latency.p99(now) > config.slo_budget
            )
            if not saturated and not slo_breach and rate <= config.capacity:
                continue
            if now - self.last_replication < config.cooldown:
                continue
            name = self.monitor.hottest_file(now)
            if name is None or name not in self.store:
                continue
            self.last_replication = now
            await self._replicate_decision(name)

    async def _decay_idle(self, now: float) -> None:
        """Counter-based idle decay over this node's REPLICATED copies.

        Each tick compares every replica's access counter against the
        last observed mark; a counter that moved resets the clock, one
        that sat still past ``idle_timeout`` makes the copy cold.  The
        copy stays until the coordination plane's REMOVE frame lands:
        the plane records the removal, runs the oracle's orphan GC and
        answers with one REMOVE per copy dropped — none at all when
        the copy was already gone in decision order.
        """
        config = self.cluster.config
        cold: list[str] = []
        for copy in self.store.replicated_files():
            count = copy.access_count
            mark = self._access_marks.get(copy.name)
            if mark is None or mark[0] != count:
                self._access_marks[copy.name] = (count, now)
                continue
            if now - mark[1] >= config.idle_timeout:
                cold.append(copy.name)
        for name in cold:
            self._access_marks.pop(name, None)
            await self.cluster.record_removal(name, self.pid)

    def _derived_seed(self) -> int:
        """Deterministic per-decision rng seed (pid- and count-keyed)."""
        return (
            self.cluster.config.seed * 1_000_003
            + self.pid * 8_191
            + self._decision_count
        ) & 0x7FFFFFFF

    # -- lifecycle ----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Is any work pending here?  (Used by the cluster's drain.)"""
        return bool(
            self.busy or self.inbox.qsize() or self._serve_queue or self._serving
        )

    def drain_lost_gets(self) -> list[Message]:
        """GETs queued here at crash time, for the cluster to bounce.

        A crashing node takes its inbox and serve queue down with it,
        but the client GETs inside are not its to lose: each has an
        origin entry still holding the client's connection, and had the
        death landed one frame earlier the entry's failed send
        (FINDLIVENODE, §3) would have rerouted around this node.  The
        cluster re-injects these at their origins — the moral
        equivalent of the entry's retransmit-on-connection-reset — so
        a mid-burst crash costs the request latency, not the client.
        """
        lost = [
            msg for msg, _conn in self.inbox
            if msg.kind is MessageKind.GET and msg.src != CLIENT
        ]
        self.inbox.clear()
        for _due, msg, _arrival in self._serve_queue:
            if msg.src != CLIENT:
                lost.append(msg)
        self._serve_queue.clear()
        return lost

    async def shutdown(self) -> None:
        """Stop serving: cancel tasks, close every connection."""
        self._running = False
        self._wake = None  # nothing is dispatched from here on
        self._serve_queue.clear()
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks.clear()
        parked, self._parked = self._parked, None
        if parked is not None:
            parked[0].close()  # suspended inline, never picked up: unwind it
        for conn in list(self._conns):
            await conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeServer(pid={self.pid}, files={len(self.store)}, "
            f"served={self.served_total})"
        )
