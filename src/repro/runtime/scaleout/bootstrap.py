"""The scale-out bootstrap: identifier assignment, address book, and
the coordination plane for a cluster of per-node worker processes.

In the single-process runtime the `LiveCluster` object hosts the
coordination plane.  Split across OS processes, that role moves here:
the bootstrap process listens on one TCP endpoint, assigns each
connecting worker its LessLog identifier, hands out the address book
once everyone has registered, and serves every coordination decision
over :class:`ControlLink` RPCs.

**The coordination plane** is the same `Coordinator` the in-process
cluster holds (`repro.runtime.coordinator`): every RPC below is one of
its verbs, and the admin frames a verb returns leave through
:meth:`BootstrapServer._deliver` — a ``deliver`` cast on the
destination's control link — in the same synchronous step that appended
the oplog record, so a ``kill -9`` can never land between a decision and
the copy it made.  Every worker's decisions flow through these RPCs in
true decision order, so the central log needs no post-hoc merge —
shutdown only ships final stores and counters for the conformance
snapshot.

**Quiescence** across processes is a per-(source, dest) ledger: each
worker counts its sends per destination and its receipts per source,
the bootstrap counts its own admin delivers, and client endpoints ship
their per-destination send counts with their drain call.  The cluster
is quiet when, for every ordered pair of *live* nodes, sends equal
receipts, every inbox is empty, and nobody is busy — three consecutive
stable rounds, exactly `LiveCluster.drain`'s discipline.  Counting
receipts per source is what makes the ledger churn-proof: a victim's
send counters die with it, but its frames land in receivers'
``recv_from[victim]`` buckets, which the quiet check simply ignores
once the victim is dead.

Scale-out v1 scope: crash churn only (no join/leave over the wire),
silent kills with a post-burst autopsy, as `ChurnInjector` runs them
in process.  A crash works as in process, too: the victim's load
counts die with it, and each heir learns its load from its own
arrivals.
"""

from __future__ import annotations

import asyncio
import traceback
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from ...core.errors import ConfigurationError, MembershipError
from ...net.message import Message, MessageKind
from ..addressing import Address
from ..cluster import RuntimeConfig
from ..conformance import ClusterStateSnapshot
from ..coordinator import ADMIN, Coordinator
from ..host import HANDLER_TRACEBACKS_KEPT
from ..node import CLIENT
from ..wire import FrameConnection, encode_message
from .control import ControlLink, config_to_wire

__all__ = ["BootstrapServer", "ScaleoutStats"]


@dataclass
class ScaleoutStats:
    """Aggregated per-worker runtime stats, collected with the snapshot."""

    served_by_node: dict[int, int] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    decisions: dict[int, int] = field(default_factory=dict)
    handler_tracebacks: list[tuple[int, str]] = field(default_factory=list)
    """Each worker's last handler tracebacks, ``(pid, traceback)``, then
    the bootstrap's own control handlers' under ``ADMIN``."""


@dataclass
class _Peer:
    """One control connection's identity (worker / client endpoint)."""

    link: ControlLink
    kind: str = "unknown"  # unknown | worker | client
    pid: int = -1
    ospid: int = -1


class BootstrapServer:
    """The coordination plane of a multi-process LessLog deployment."""

    def __init__(self, config: RuntimeConfig, n_nodes: int | None = None) -> None:
        total = 1 << config.m
        n = total if n_nodes is None else n_nodes
        if not 1 <= n <= total:
            raise ConfigurationError(
                f"n_nodes must be in [1, {total}] for m={config.m}"
            )
        self.config = config
        self.expected = n
        self.initial_live: tuple[int, ...] = tuple(range(n))
        self.coordinator = Coordinator(config, self.initial_live)
        self.mirror = self.coordinator.mirror
        self.oplog = self.coordinator.oplog
        self.book: dict[int, Address] = {}
        self.paused = False
        self.ready = asyncio.Event()
        """Set once every expected worker has registered its address."""
        self._unassigned = list(reversed(self.initial_live))
        self._workers: dict[int, _Peer] = {}
        self._ospids: dict[int, int] = {}
        self._clients: list[_Peer] = []
        self._silent_deaths: set[int] = set()
        self._admin_sent: dict[int, int] = {}
        self._client_sent: dict[int, dict[int, int]] = {}
        """Per-endpoint cumulative client sends per destination PID."""
        self._goodbyes: dict[int, dict[str, Any]] = {}
        self._book_epoch = 0
        self._server: asyncio.base_events.Server | None = None
        self._link_errors = 0
        self._link_tracebacks: deque[tuple[int, str]] = deque(
            maxlen=HANDLER_TRACEBACKS_KEPT
        )

    # -- serving ------------------------------------------------------------

    async def serve(self, sock: Any = None, host: str = "127.0.0.1",
                    port: int = 0) -> Address:
        """Start accepting control connections; returns the address."""
        where = {"sock": sock} if sock is not None else {"host": host, "port": port}
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, **where
        )
        name = self._server.sockets[0].getsockname()
        return (name[0], name[1])

    async def shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for peer in list(self._workers.values()) + list(self._clients):
            await peer.link.close()
        self._workers.clear()
        self._clients.clear()

    def _accept(self) -> FrameConnection:
        """Protocol factory: one control link per accepted connection."""
        peer = _Peer(link=None)  # type: ignore[arg-type]
        peer.link = ControlLink(partial(self._handle, peer), label="bootstrap")
        peer.link.on_error = self._note_link_error
        return peer.link.conn

    def _note_link_error(self) -> None:
        """A bootstrap control handler raised: count it as a handler
        error and keep its traceback for :meth:`collect_snapshot`."""
        self._link_errors += 1
        self._link_tracebacks.append((ADMIN, traceback.format_exc()))

    # -- the control protocol ----------------------------------------------

    async def _handle(self, peer: _Peer, op: str, body: dict) -> dict | None:
        if op == "hello":
            return self._op_hello(peer, body)
        if op == "register":
            return self._op_register(peer, body)
        if op == "client_hello":
            return self._op_client_hello(peer, body)
        if op == "ping":
            return {"ok": True}
        # The four mutating ops are synchronous — verb, then frames
        # cast — and the control link starts handlers in arrival order,
        # so they apply in the order workers issued them.
        if op == "catalog_claim":
            return self._op_claim(body)
        if op == "catalog_advance":
            return {"version": self.coordinator.advance(
                str(body["name"]), body.get("payload"))}
        if op == "decide":
            return self._op_decide(body)
        if op == "record_removal":
            self._deliver(
                *self.coordinator.remove(str(body["name"]), int(body["pid"]))
            )
            return None
        if op == "goodbye":
            self._goodbyes[peer.pid] = dict(body)
            return {"ok": True}
        if op == "client_sent":
            self._note_client_sent(peer, body)
            return None
        if op == "client_drain":
            self._note_client_sent(peer, body)
            await self.drain()
            return {"ok": True}
        if op == "client_quiesce":
            self._note_client_sent(peer, body)
            await self.quiesce()
            return {"ok": True}
        if op == "served_counts":
            stats = await self.collect_stats()
            return {"counts": {str(p): c for p, c in stats.served_by_node.items()}}
        return {"error": f"unknown control op {op!r}"}

    def _op_hello(self, peer: _Peer, body: dict) -> dict:
        if not self._unassigned:
            return {"error": "cluster is fully assigned"}
        pid = self._unassigned.pop()
        peer.kind = "worker"
        peer.pid = pid
        peer.ospid = int(body.get("ospid", -1))
        self._workers[pid] = peer
        self._ospids[pid] = peer.ospid
        return {
            "pid": pid,
            "config": config_to_wire(self.config),
            "live": sorted(self.initial_live),
        }

    def _op_register(self, peer: _Peer, body: dict) -> dict:
        self.book[peer.pid] = (str(body["host"]), int(body["port"]))
        if len(self.book) == self.expected and not self.ready.is_set():
            self.ready.set()
            book = self._wire_book()
            for worker in self._workers.values():
                worker.link.cast("go", book=book)
        return {"ok": True}

    def _op_client_hello(self, peer: _Peer, body: dict) -> dict:
        peer.kind = "client"
        peer.pid = -len(self._clients) - 1
        self._clients.append(peer)
        return {
            "config": config_to_wire(self.config),
            "book": self._wire_book(),
            "epoch": self._book_epoch,
        }

    def _op_claim(self, body: dict) -> dict:
        name = str(body["name"])
        if not self.coordinator.claim(
            name, body.get("payload"), entry=int(body.get("pid", -1))
        ):
            return {"ok": False}
        # Placement delta piggyback: the claimer learns where the
        # mirror actually put the copy, warming its holder-hint cache.
        return {"ok": True, "holders": self.mirror.holders_of(name)}

    def _op_decide(self, body: dict) -> dict:
        name = str(body["name"])
        frames: list[Message] = []
        if not self.paused:
            frames = self.coordinator.decide(
                name, int(body["holder"]), int(body["seed"])
            )
            self._deliver(*frames)
        # Placement delta piggyback: the decider learns the full holder
        # set in decision order — its next shed of this file can emit a
        # real redirect hint instead of ``-1``.
        return {
            "target": frames[0].dst if frames else None,
            "holders": self.mirror.holders_of(name),
        }

    # -- admin frame delivery ------------------------------------------------

    def _deliver(self, *frames: Message) -> None:
        """Push admin frames to their workers' control channels, in the
        order given (a cast is synchronous: one FIFO per destination)."""
        for msg in frames:
            peer = self._workers.get(msg.dst)
            if peer is None:  # pragma: no cover - racing death
                continue
            self._admin_sent[msg.dst] = self._admin_sent.get(msg.dst, 0) + 1
            peer.link.cast("deliver", msg=encode_message(msg))

    async def trigger_overload(self, pid: int, name: str, seed: int) -> None:
        """Admin knob: tell a holder it is overloaded (conformance driver)."""
        self._deliver(
            Message(kind=MessageKind.OVERLOAD, src=ADMIN, dst=pid, file=name,
                    payload={"seed": seed}),
        )

    def set_replication(self, enabled: bool) -> None:
        """Gate autonomous replication: the bootstrap's decide gate is
        authoritative (an unrecorded ``None``), the cast keeps worker
        sweepers from spinning against it."""
        self.paused = not enabled
        for peer in self._workers.values():
            peer.link.cast("resume" if enabled else "pause")

    # -- crash churn (§5.3 over real processes) -----------------------------

    async def note_killed(self, pid: int) -> None:
        """A worker was ``kill -9``ed (the supervisor already reaped it).

        Mirrors `LiveCluster.crash(announce=False)`: the kill record
        lands with the membership flip and the store pop, no
        REGISTER_DEAD circulates (peers will discover the death through
        failed dials — message-level FINDLIVENODE), and client
        endpoints get the shrunk address book, exactly like
        `LoadGenerator` watching ``cluster.nodes`` shrink.
        """
        if not self.mirror.membership.is_live(pid):
            raise MembershipError(f"P({pid}) is not live")
        self.coordinator.kill(pid)
        self._silent_deaths.add(pid)
        peer = self._workers.pop(pid, None)
        self.book.pop(pid, None)
        self._admin_sent.pop(pid, None)
        self._push_book()
        if peer is not None:
            await peer.link.close()

    async def announce_crash(self, pid: int) -> None:
        """The autopsy: deferred §5.3 detection + recovery for a kill.

        REGISTER_DEAD circulates to every live worker, then the
        coordinator's ``recover`` closes the kill/recover pair and its
        TRANSFER / DEMOTE / REMOVE frames put live stores exactly where
        the oracle says recovery puts them.
        """
        if pid not in self._silent_deaths:
            raise MembershipError(f"P({pid}) has no unannounced crash")
        self._silent_deaths.discard(pid)
        for other in sorted(self._workers):
            self._deliver(
                Message(kind=MessageKind.REGISTER_DEAD, src=ADMIN, dst=other,
                        payload={"pid": pid}),
            )
        frames = self.coordinator.recover(pid)
        self._deliver(*frames)
        self._push_holders({
            name: self.mirror.holders_of(name)
            for name in sorted({msg.file for msg in frames})
        })
        # No drain here: the quiescence ledger's CLIENT column balances
        # only once endpoints ship their send counts (their drain RPC
        # does) — callers drain through an endpoint after the autopsy.

    def _push_book(self) -> None:
        """Membership changed: push the shrunk book to clients AND
        workers.  For a worker the push only refreshes its dial table
        (and scrubs cached holder hints naming the victim) — its
        status word is untouched, so silent-kill semantics hold: the
        death is still only *observable* as a failed send, it just
        fails at the dial instead of at the dead peer's socket."""
        self._book_epoch += 1
        book = self._wire_book()
        for peer in self._clients:
            peer.link.cast("book", book=book, epoch=self._book_epoch)
        for peer in self._workers.values():
            peer.link.cast("book", book=book, epoch=self._book_epoch)

    def _push_holders(self, deltas: dict[str, list[int]]) -> None:
        """Piggyback placement deltas on a book-channel cast to every
        worker (no membership payload — dial tables are already
        current), warming holder-hint caches after recovery moved
        copies around."""
        if not deltas:
            return
        for peer in self._workers.values():
            peer.link.cast("book", holders=deltas)

    def _wire_book(self) -> dict[str, list]:
        return {str(pid): [host, port] for pid, (host, port) in self.book.items()}

    def _note_client_sent(self, peer: _Peer, body: dict) -> None:
        sent = {int(k): int(v) for k, v in (body.get("sent") or {}).items()}
        self._client_sent[peer.pid] = sent

    # -- quiescence ----------------------------------------------------------

    async def _quiet(self) -> bool:
        live = sorted(self._workers)
        try:
            reports = await asyncio.gather(
                *(self._workers[pid].link.call("probe") for pid in live)
            )
        except (ConnectionError, RuntimeError):  # pragma: no cover - racing death
            return False
        by_pid = dict(zip(live, reports))
        if not all(rep.get("idle") for rep in by_pid.values()):
            return False
        client_sent: dict[int, int] = {}
        for sent in self._client_sent.values():
            for dst, count in sent.items():
                client_sent[dst] = client_sent.get(dst, 0) + count
        for dst in live:
            recv = by_pid[dst].get("recv") or {}
            for src in live:
                if src == dst:
                    continue
                want = int((by_pid[src].get("sent") or {}).get(str(dst), 0))
                if want != int(recv.get(str(src), 0)):
                    return False
            if self._admin_sent.get(dst, 0) != int(recv.get(str(ADMIN), 0)):
                return False
            if client_sent.get(dst, 0) != int(recv.get(str(CLIENT), 0)):
                return False
        return True

    async def drain(self, timeout: float | None = None) -> None:
        """`LiveCluster.drain` across processes: three stable rounds of
        a fully balanced send/receive ledger with idle workers."""
        loop = asyncio.get_running_loop()
        limit = self.config.drain_timeout if timeout is None else timeout
        deadline = loop.time() + limit
        stable = 0
        while stable < 3:
            if loop.time() > deadline:
                raise TimeoutError(f"cluster did not drain within {limit}s")
            if await self._quiet():
                stable += 1
                await asyncio.sleep(0.005)
            else:
                stable = 0
                await asyncio.sleep(0.02)

    async def quiesce(self) -> None:
        self.set_replication(False)
        await self.drain()

    # -- conformance snapshot ------------------------------------------------

    async def collect_snapshot(self) -> tuple[ClusterStateSnapshot, ScaleoutStats]:
        """Freeze the deployment for central oracle replay.

        Catalog, versions, faults, and the oplog come from the
        coordination plane; **placement and per-node words come from
        the workers' real stores** — that is the claim under test.
        Call on a quiesced cluster.
        """
        live = sorted(self._workers)
        raw = await asyncio.gather(
            *(self._workers[pid].link.call("snapshot") for pid in live)
        )
        snaps = dict(zip(live, raw))
        placement: dict[str, dict[int, str]] = {name: {} for name in self.mirror.catalog}
        held: dict[str, dict[int, int]] = {}
        stats = ScaleoutStats()
        for pid in live:
            snap = snaps[pid]
            for name, _payload, version, origin in snap.get("store", []):
                placement.setdefault(name, {})[pid] = origin
                held.setdefault(name, {})[pid] = int(version)
            stats.served_by_node[pid] = int(snap.get("served", 0))
            stats.decisions[pid] = int(snap.get("decisions", 0))
            for key, value in (snap.get("stage") or {}).items():
                stats.stage_seconds[key] = (
                    stats.stage_seconds.get(key, 0.0) + float(value)
                )
            for key, value in (snap.get("counters") or {}).items():
                stats.counters[key] = stats.counters.get(key, 0) + int(value)
            stats.handler_tracebacks += [
                (int(where), str(text))
                for where, text in snap.get("handler_tracebacks", [])
            ]
        if self._link_errors:
            stats.counters["handler_errors"] = (
                stats.counters.get("handler_errors", 0) + self._link_errors
            )
            stats.handler_tracebacks += self._link_tracebacks
        snapshot = ClusterStateSnapshot(
            config=self.config,
            initial_live=self.initial_live,
            oplog=list(self.oplog),
            live_pids=set(self.mirror.membership.live_pids()),
            node_words={pid: set(snaps[pid].get("word", [])) for pid in live},
            catalog=set(self.mirror.catalog),
            versions={n: e.version for n, e in self.mirror.catalog.items()},
            placement=placement,
            faults=list(self.mirror.faults),
            replicas_created=sum(
                1 for rec in self.oplog
                if rec.kind == "replicate" and rec.target is not None
            ),
            held=held,
        )
        return snapshot, stats

    async def collect_stats(self) -> ScaleoutStats:
        _snapshot, stats = await self.collect_snapshot()
        return stats

    @property
    def n_live(self) -> int:
        return self.mirror.membership.live_count()

    @property
    def goodbyes(self) -> dict[int, dict[str, Any]]:
        """Final snapshots shipped by cleanly terminated workers."""
        return self._goodbyes

    def worker_pids(self) -> list[int]:
        """Node PIDs with a live control connection."""
        return sorted(self._workers)

    def ospid_of(self, pid: int) -> int:
        """The OS process id ``P(pid)`` reported in its hello (-1 if
        unknown) — the supervisor's ``kill -9`` target."""
        return self._ospids.get(pid, -1)
