"""The scale-out control channel: CONTROL frames over the wire protocol.

Bootstrap, workers, and client endpoints coordinate over the same
:class:`~repro.runtime.wire.FrameConnection`, and the same codec, the
data plane runs: each body is a ``CONTROL`` message whose payload is a
small dict, carried in the generic body (no fixed layout fits it).
Anything else — a frame of another kind, a payload that is not a dict,
a body that does not decode — breaks the link.  One
:class:`ControlLink` owns one connection and is fully symmetric:
either side can issue ``call`` (request/response, matched by
``rid``/``re``) or ``cast`` (fire and forget), and both sides answer
the peer through a handler coroutine.

Dispatch discipline: replies (``re``) resolve their waiter inside the
``data_received`` that decoded them, while every other body becomes
its own task, created in arrival order.  FIFO still holds where it
matters: tasks run in creation order up to their first ``await``, so a
handler whose effect precedes its first await (every worker-side admin
handler) lands before any later frame — a REGISTER_DEAD cast and the
ping that confirms it cannot reorder — and handlers that serialize on
a lock (every mutating bootstrap op) acquire it in arrival order
because ``asyncio.Lock`` wakes waiters FIFO.  What pipelining buys: a
handler that blocks — a ``decide`` waiting out a recovery, a catalog
RPC — does not convoy every frame behind it, so concurrent in-flight
calls from many workers overlap instead of queueing one round trip at
a time.  Admin frames therefore travel inside ``deliver`` control
bodies, never as bare frames: those would run inline, ahead of the
tasks of earlier bodies in the same chunk.

Write discipline: each body is one frame and one write, made in the
call that produced it — ``cast``, ``call`` and a handler's reply alike
— so FIFO holds on the wire too.  Only a paused connection holds
frames back, in order, until the transport drains.

Payload constraint: everything that rides the control channel must be
in the wire's value set (see :mod:`repro.runtime.wire`): None, bools,
ints, finite floats, str, bytes, lists and string-keyed dicts.  Admin
frames ride ``deliver`` casts as their own encoded frame bytes, so a
file payload reaches the worker exactly as it would over the data plane.
"""

from __future__ import annotations

import asyncio
import itertools
import traceback
from collections import deque
from dataclasses import fields as dataclass_fields
from typing import Any, Awaitable, Callable

from ...net.message import MessageKind, fast_message
from ..cluster import ADMIN, RuntimeConfig
from ..host import HANDLER_TRACEBACKS_KEPT
from ..wire import FrameConnection

__all__ = ["ControlLink", "config_to_wire", "config_from_wire"]

Handler = Callable[[str, dict], Awaitable[dict | None]]

_INF = "inf"
"""The wire carries finite floats only; ``float('inf')`` config fields
ship as this."""


def config_to_wire(config: RuntimeConfig) -> dict[str, Any]:
    """A wire-safe dict a worker can rebuild its RuntimeConfig from."""
    out: dict[str, Any] = {}
    for f in dataclass_fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and value == float("inf"):
            value = _INF
        out[f.name] = value
    return out


def config_from_wire(data: dict[str, Any]) -> RuntimeConfig:
    """Inverse of :func:`config_to_wire`."""
    kwargs: dict[str, Any] = {}
    for f in dataclass_fields(RuntimeConfig):
        if f.name not in data:
            continue
        value = data[f.name]
        if value == _INF:
            value = float("inf")
        kwargs[f.name] = value
    return RuntimeConfig(**kwargs)


class ControlLink:
    """One symmetric control connection (bootstrap <-> worker/client).

    :attr:`conn` is the protocol to hand ``create_connection`` /
    ``create_server``.  Once the link is down, :attr:`closed` is set
    and :attr:`reason` says why: the connection's ``FrameError``, an
    undecodable control body, the peer closing, or :meth:`close`.

    A handler that raises answers a call with an ``error`` reply; a
    cast has nobody to answer, so every raise is also recorded: through
    :attr:`on_error` when the owner set one (called inside the
    ``except`` block, so ``traceback.format_exc()`` sees the
    exception), else in :attr:`handler_tracebacks`.
    """

    def __init__(self, handler: Handler, label: str = "") -> None:
        self.handler = handler
        self.label = label
        self.conn = FrameConnection(self._on_frames, self._on_lost)
        self.closed = asyncio.Event()
        self.reason = ""
        self._rid = itertools.count(1)
        self._waiters: dict[int, asyncio.Future] = {}
        self._inflight: set[asyncio.Task] = set()
        self.on_error: Callable[[], None] | None = None
        self.handler_tracebacks: deque[str] = deque(maxlen=HANDLER_TRACEBACKS_KEPT)
        """Tracebacks of the last handlers that raised while
        :attr:`on_error` was unset, oldest first."""

    # -- read side ------------------------------------------------------------

    def _on_frames(self, conn: FrameConnection, frames: list, errors: int) -> None:
        if errors or not all(
            msg.kind is MessageKind.CONTROL and isinstance(msg.payload, dict)
            for msg in frames
        ):
            # Nothing in a damaged chunk runs: the link is broken.  A
            # data-plane frame lands here too, as its kind is not CONTROL.
            self._fail("undecodable control body")
            return
        loop = asyncio.get_running_loop()
        for body in (msg.payload for msg in frames):
            re = body.get("re")
            if re is not None:
                waiter = self._waiters.pop(re, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(body)
                continue
            # One task per body, created in arrival order: see the
            # module docstring for why FIFO effects survive this.
            task = loop.create_task(self._dispatch_one(body))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _dispatch_one(self, body: dict) -> None:
        op = body.get("op", "")
        rid = body.get("rid")
        try:
            result = await self.handler(op, body)
        except asyncio.CancelledError:  # pragma: no cover
            raise
        except Exception as exc:
            if self.on_error is not None:
                self.on_error()
            else:
                self.handler_tracebacks.append(traceback.format_exc())
            result = {"error": f"{type(exc).__name__}: {exc}"}
        if rid is not None:
            self._post({"re": rid, **(result or {})})

    def _fail(self, reason: str) -> None:
        """Close the link from inside a callback (nothing to await)."""
        if not self.reason:
            self.reason = reason
        self.conn.close()

    def _on_lost(self, conn: FrameConnection) -> None:
        if not self.reason:
            self.reason = (
                f"FrameError: {conn.error}" if conn.error is not None
                else "peer closed the connection"
            )
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(self._down())
        self._waiters.clear()
        self.closed.set()

    def _down(self) -> ConnectionError:
        return ConnectionError(
            f"control link closed ({self.label}): {self.reason}"
        )

    # -- write side -----------------------------------------------------------

    def _write(self, body: dict) -> None:
        """Encode one body as one frame and write it."""
        conn = self.conn
        if conn.closed:
            raise self._down()
        conn.add(fast_message(MessageKind.CONTROL, ADMIN, ADMIN, "", body))
        conn.flush()

    def _post(self, body: dict) -> None:
        """Write one body; dropped on a dead link (the peer is gone —
        its death is handled elsewhere)."""
        try:
            self._write(body)
        except ConnectionError:
            return

    async def call(self, op: str, **fields: Any) -> dict:
        """One request/response round trip; ``ConnectionError`` naming
        :attr:`reason` on a dead link."""
        rid = next(self._rid)
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[rid] = waiter
        try:
            self._write({"op": op, "rid": rid, **fields})
            reply = await waiter
        finally:
            self._waiters.pop(rid, None)
        if "error" in reply:
            raise RuntimeError(f"control {op!r} failed: {reply['error']}")
        return reply

    def cast(self, op: str, **fields: Any) -> None:
        """Fire-and-forget; silently dropped on a dead link."""
        self._post({"op": op, **fields})

    async def close(self) -> None:
        # ``FrameConnection.close`` drops pending frames, so write them
        # first — past the high-water mark, too: a shard endpoint's
        # final ``client_sent`` cast must reach the quiescence ledger
        # or drain wedges waiting on it.  The transport flushes its own
        # buffer before closing, so a written frame is on the wire.
        conn = self.conn
        if not conn.closed and conn.transport is not None:
            conn.encoder.flush_to(conn.transport)
        if not self.reason:
            self.reason = "closed by this side"
        closing = conn.close()  # fails waiters and sets ``closed``
        tasks = tuple(self._inflight)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # pragma: no cover
                pass
        self._inflight.clear()
        await closing
