"""One LessLog node as its own OS process.

:class:`WorkerRuntime` is the `NodeHost` of one worker process: every
coordination call is an RPC to the bootstrap's `Coordinator` and every
data-plane send dials the address book.  The node code itself —
routing, the four flows, the overload plane, the zero-copy fast lane —
runs *unchanged*; admin frames (REPLICATE, TRANSFER, REMOVE, ...)
arrive as ``deliver`` casts on the control link.

:meth:`WorkerRuntime.holders` unions the own-store view with a bounded
holder-hint cache fed by placement deltas piggybacked on
``decide``/``catalog_claim`` replies and book pushes; staleness is
handled by the status-word filter in ``NodeServer._redirect_hint`` and
the client's FINDLIVENODE reroute.

:class:`WorkerProcess` is the process entrypoint: connect (with
retry) → ``hello`` (identifier assignment) → boot the `NodeServer` and
its TCP listener → ``register`` the address → serve until SIGTERM,
then drain the local inbox and ship a ``goodbye`` snapshot (store,
word, ledgers) before exiting — the clean half of the lifecycle the
supervisor's ``kill -9`` deliberately skips.
"""

from __future__ import annotations

import asyncio
import os
import signal
from functools import partial
from typing import Any

from ...net.message import Message
from ...node.membership import StatusWord
from ..addressing import Address, PeerUnreachableError, dial_peer, start_listener
from ..cluster import ADMIN, RuntimeConfig
from ..host import NodeHost, _BoundedCache
from ..node import CLIENT, NodeServer
from ..wire import FrameConnection, decode_message
from .control import ControlLink, config_from_wire

__all__ = ["WorkerRuntime", "WorkerProcess", "run_worker"]

HOLDER_CACHE_CAP = 4096
"""Upper bound on cached holder hints per worker."""


class WorkerRuntime(NodeHost):
    """The coordination plane, as seen from inside one worker process."""

    def __init__(
        self,
        config: RuntimeConfig,
        pid: int,
        live: list[int],
        link: ControlLink,
    ) -> None:
        super().__init__(config)
        self.pid = pid
        self.link = link
        self.word = StatusWord(config.m, set(live))
        self.book: dict[int, Address] = {}
        self.node: NodeServer | None = None
        self.sent_to: dict[int, int] = {}
        """Cumulative data-plane frames sent per destination PID."""
        self.recv_from: dict[int, int] = {}
        """Cumulative frames received per source bucket (peer PID,
        ``CLIENT``, or ``ADMIN`` for control-channel delivers).  Counted
        per *source* so quiescence survives a sender that is killed
        along with its send counters: the victim's column is simply
        ignored once it leaves the live set."""
        self._holder_cache: _BoundedCache = _BoundedCache(HOLDER_CACHE_CAP)
        """name -> sorted tuple of holder PIDs, as last reported by the
        bootstrap (piggybacked on decide/claim replies and book
        pushes).  Possibly stale; see :meth:`holders`."""
        self._sinks: dict[int, FrameConnection] = {}

    def holders(self, name: str) -> set[int]:
        """Own store ∪ the holder-hint cache.

        The cache is best-effort: an entry can name a holder that has
        since removed its copy or silently died.  That is safe by the
        same argument the whole redirect plane rests on —
        ``NodeServer._redirect_hint`` filters candidates through the
        status word, and a hint that is stale anyway triggers the
        client's FINDLIVENODE reroute.  What a warm entry buys is a
        real pid where the old own-store-only view produced ``-1``
        and forced a blind client-side reroute on every shed."""
        out = set(self._holder_cache.get(name, ()))
        node = self.node
        if node is not None and name in node.store:
            out.add(self.pid)
        else:
            out.discard(self.pid)
        return out

    def note_holders(self, name: str, pids: Any) -> None:
        """Record a placement delta for ``name`` (cache feed)."""
        try:
            holders = tuple(sorted({int(p) for p in pids}))
        except (TypeError, ValueError):
            return
        if holders:
            self._holder_cache[name] = holders
        else:
            self._holder_cache.pop(name, None)

    def note_evicted(self, gone: set[int]) -> None:
        """A book push shrank the membership: close data-plane sinks to
        the evicted pids and scrub them from cached holder hints.  The
        status word is deliberately NOT touched — a silent kill stays
        silent until autopsy (REGISTER_DEAD); peers still discover the
        death through failed dials, just sooner."""
        if not gone:
            return
        for pid in gone:
            sink = self._sinks.pop(pid, None)
            if sink is not None:
                sink.close()
        for name, cached in list(self._holder_cache.items()):
            kept = tuple(p for p in cached if p not in gone)
            if kept != cached:
                if kept:
                    self._holder_cache[name] = kept
                else:
                    del self._holder_cache[name]

    # -- data plane ----------------------------------------------------------

    async def send(self, src: int, msg: Message) -> None:
        """One data-plane frame to a peer worker, via the address book."""
        dst = msg.dst
        if dst == src:
            assert self.node is not None
            self.node.deliver_local(msg)
            return
        sink = self._sinks.get(dst)
        if sink is None:
            sink = await dial_peer(self.book.get(dst), dst, self.peer_connection)
            self._sinks[dst] = sink
        try:
            sink.add(msg)
            sink.flush()
            if sink.paused:
                await sink.drained()
        except (ConnectionError, OSError):
            self._sinks.pop(dst, None)
            sink.close()
            raise PeerUnreachableError(f"connection to P({dst}) failed") from None
        self.sent_to[dst] = self.sent_to.get(dst, 0) + 1

    def msg_enqueued(self, pid: int, src: int = CLIENT) -> None:
        bucket = src if src >= 0 else CLIENT
        self.recv_from[bucket] = self.recv_from.get(bucket, 0) + 1

    def count_admin_recv(self) -> None:
        """A control-channel ``deliver`` landed (`deliver_local` skips
        :meth:`msg_enqueued`, so the handler counts it here)."""
        self.recv_from[ADMIN] = self.recv_from.get(ADMIN, 0) + 1

    # -- coordination RPCs ---------------------------------------------------

    async def catalog_claim(self, name: str, entry: int, payload: Any) -> bool:
        try:
            reply = await self.link.call(
                "catalog_claim", name=name, pid=entry, payload=payload
            )
        except (ConnectionError, RuntimeError):
            return False
        if "holders" in reply:
            self.note_holders(name, reply["holders"])
        return bool(reply.get("ok"))

    async def catalog_advance(self, name: str, payload: Any) -> int | None:
        try:
            reply = await self.link.call(
                "catalog_advance", name=name, payload=payload
            )
        except (ConnectionError, RuntimeError):
            return None
        version = reply.get("version")
        return None if version is None else int(version)

    async def decide_replication(self, name: str, holder: int, seed: int) -> int | None:
        try:
            reply = await self.link.call("decide", name=name, holder=holder, seed=seed)
        except RuntimeError as exc:
            # The bootstrap may have decided before it failed: the
            # outcome is as unknown as on a dead link.
            raise ConnectionError(str(exc)) from None
        if "holders" in reply:
            self.note_holders(name, reply["holders"])
        target = reply.get("target")
        return None if target is None else int(target)

    async def record_removal(self, name: str, pid: int) -> None:
        """Ship the idle-decay decision; the record lands at the
        bootstrap in control-channel FIFO order and the REMOVE frames
        (this copy's and the orphan GC's) come back through ``deliver``."""
        self.link.cast("record_removal", name=name, pid=pid)

    # -- lifecycle -----------------------------------------------------------

    def snapshot_body(self) -> dict[str, Any]:
        """This worker's contribution to the central conformance
        snapshot: real store contents, its own word, and the ledgers."""
        node = self.node
        assert node is not None
        store = [
            (copy.name, copy.payload, copy.version, copy.origin.value)
            for copy in sorted(
                (node.store.get(name, count_access=False)
                 for name in node.store.names()),
                key=lambda c: c.name,
            )
        ]
        return {
            "store": store,
            "word": sorted(node.word.live_pids()),
            "served": node.served_total,
            "shed": node.shed_total,
            "decisions": node._decision_count,
            "stage": dict(self.stage_seconds),
            "counters": dict(self.counters),
            "handler_tracebacks": list(self.handler_tracebacks),
        }

    def probe_body(self) -> dict[str, Any]:
        node = self.node
        return {
            "sent": {str(dst): n for dst, n in self.sent_to.items()},
            "recv": {str(src): n for src, n in self.recv_from.items()},
            "idle": node is not None and not node.active,
        }

    def close_sinks(self) -> None:
        for sink in self._sinks.values():
            sink.close()
        self._sinks.clear()


class WorkerProcess:
    """Entrypoint state machine for one worker OS process."""

    def __init__(self) -> None:
        self.runtime: WorkerRuntime | None = None
        self.node: NodeServer | None = None
        self.go = asyncio.Event()
        self.stop = asyncio.Event()
        self._book_wire: dict[str, list] = {}

    async def _handle(self, op: str, body: dict) -> dict | None:
        if op == "go":
            self._book_wire = body.get("book") or {}
            if self.runtime is not None:
                self.runtime.book = _book_from_wire(self._book_wire)
            self.go.set()
            return None
        if op == "deliver":
            runtime = self.runtime
            if runtime is not None and runtime.node is not None:
                runtime.count_admin_recv()
                runtime.node.deliver_local(decode_message(body["msg"]))
            return None
        if op == "book":
            # Membership/placement push: refresh the dial table, drop
            # sinks and cached hints for evicted pids, absorb any
            # piggybacked holder deltas.  Never touches the status
            # word — silent kills stay silent until autopsy.
            runtime = self.runtime
            if "book" in body:
                self._book_wire = body.get("book") or {}
                if runtime is not None:
                    new_book = _book_from_wire(self._book_wire)
                    gone = set(runtime.book) - set(new_book)
                    runtime.book = new_book
                    runtime.note_evicted(gone)
            holders = body.get("holders")
            if runtime is not None and isinstance(holders, dict):
                for name, pids in holders.items():
                    runtime.note_holders(name, pids)
            return None
        if op == "probe":
            assert self.runtime is not None
            return self.runtime.probe_body()
        if op == "snapshot":
            assert self.runtime is not None
            return self.runtime.snapshot_body()
        if op == "ping":
            return {"ok": True}
        if op == "pause":
            if self.runtime is not None:
                self.runtime.replication_enabled = False
            return None
        if op == "resume":
            if self.runtime is not None:
                self.runtime.replication_enabled = True
            return None
        if op == "term":
            self.stop.set()
            return {"ok": True}
        return {"error": f"unknown worker op {op!r}"}

    async def run(self, host: str, port: int) -> None:
        link = ControlLink(self._handle, label="worker")
        await _connect_retry(host, port, link)
        hello = await link.call("hello", ospid=os.getpid())
        config = config_from_wire(hello["config"])
        pid = int(hello["pid"])
        runtime = WorkerRuntime(config, pid, list(hello["live"]), link)
        self.runtime = runtime
        link.on_error = partial(runtime.note_handler_error, pid)
        node = NodeServer(pid, runtime)
        runtime.node = node
        self.node = node
        server, (node_host, node_port) = await start_listener(node.attach)
        loop = asyncio.get_running_loop()
        # Before ``register``: the last registration releases the
        # supervisor's ``start()``, and a SIGTERM sent right after must
        # find the handler, not the default action (death, no goodbye).
        try:
            loop.add_signal_handler(signal.SIGTERM, self.stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        await link.call("register", host=node_host, port=node_port)
        # Inbound frames can land the instant peers get their books, and
        # a forwarded request would make this node dial out — so the
        # inbox consumer must not start until our own book arrived via
        # the ``go`` cast.  Early frames just queue in the inbox.
        go_wait = loop.create_task(self.go.wait())
        boot_dead = loop.create_task(link.closed.wait())
        try:
            await asyncio.wait(
                (go_wait, boot_dead), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            go_wait.cancel()
            boot_dead.cancel()
        if self._book_wire:
            runtime.book = _book_from_wire(self._book_wire)
        node.start()
        stop_wait = loop.create_task(self.stop.wait())
        dead_wait = loop.create_task(link.closed.wait())
        try:
            await asyncio.wait(
                (stop_wait, dead_wait), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stop_wait.cancel()
            dead_wait.cancel()
        if self.stop.is_set() and not link.closed.is_set():
            # Clean shutdown: drain the local inbox, then ship the
            # goodbye snapshot.  A bootstrap that vanished instead
            # (dead_wait fired) gets neither — that is the kill path.
            deadline = loop.time() + config.drain_timeout
            while node.active and loop.time() < deadline:
                await asyncio.sleep(0.005)
            try:
                await link.call("goodbye", **runtime.snapshot_body())
            except (ConnectionError, RuntimeError):  # pragma: no cover
                pass
        server.close()
        await server.wait_closed()
        runtime.close_sinks()
        await node.shutdown()
        await link.close()


def _book_from_wire(book: dict[str, list]) -> dict[int, Address]:
    return {int(pid): (entry[0], int(entry[1])) for pid, entry in book.items()}


async def _connect_retry(
    host: str, port: int, link: ControlLink, timeout: float = 15.0
) -> None:
    """Dial the bootstrap, retrying while the fleet boots."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        try:
            await loop.create_connection(lambda: link.conn, host, port)
            return
        except (ConnectionError, OSError):
            if loop.time() >= deadline:
                raise
            await asyncio.sleep(0.05)


def run_worker(host: str, port: int) -> None:
    """Blocking entrypoint: serve one worker until SIGTERM or EOF."""
    asyncio.run(WorkerProcess().run(host, port))
