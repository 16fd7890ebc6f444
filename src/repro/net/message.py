"""Message types exchanged between simulated nodes.

The LessLog protocol needs only a handful of message kinds — the file
operations of §2.2/§3 plus membership broadcasts from §5.  Messages are
small immutable records; payloads ride along untouched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["MessageKind", "Message", "fast_message", "WIRE_BODY"]

_msg_ids = itertools.count()

WIRE_BODY = "_wire_body"
"""``__dict__`` key under which a message decoded from a wire-v2
generic-lane frame keeps that frame's body (see ``runtime/wire.py``)."""


class MessageKind(Enum):
    """Protocol message kinds."""

    GET = "get"                      # lookup / read a file
    GET_REPLY = "get_reply"          # file contents back to the client
    GET_FAULT = "get_fault"          # no copy found (dead target, b=0)
    INSERT = "insert"                # store the original copy
    REPLICATE = "replicate"          # push a replica to a chosen node
    UPDATE = "update"                # top-down update broadcast
    REGISTER_LIVE = "register_live"  # §5.1 join broadcast
    REGISTER_DEAD = "register_dead"  # §5.2/§5.3 leave/fail broadcast
    TRANSFER = "transfer"            # file migration during churn
    ACK = "ack"                      # positive completion of a request
    ERROR = "error"                  # negative completion (reason in payload)
    OVERLOAD = "overload"            # admin: treat this node as overloaded
    REMOVE = "remove"                # drop a replicated copy (GC / pruning)
    DEMOTE = "demote"                # §5.1: inserted copy becomes a replica
    CONTROL = "control"              # scale-out bootstrap/worker coordination


@dataclass(frozen=True)
class Message:
    """One message in flight.

    ``src``/``dst`` are PIDs (``src = -1`` marks a client-originated
    request entering the overlay).  ``hops`` counts overlay forwards so
    experiments can read path lengths straight off delivered messages.
    ``origin`` is the PID where a client request entered the overlay
    (``-1`` until an entry node stamps it); the live runtime routes
    replies back through it, and ``forwarded`` copies preserve it.

    A message the wire decoded may carry the bytes it was decoded from
    (:data:`WIRE_BODY`), so that forwarding it costs a copy and three
    patched fields, not a second encode.  They are not a field: ``==``,
    ``repr`` and ``dataclasses.replace`` do not see them, and only
    :meth:`forwarded` — which changes nothing the patch does not cover —
    hands them on.
    """

    kind: MessageKind
    src: int
    dst: int
    file: str = ""
    payload: Any = None
    version: int = 0
    hops: int = 0
    origin: int = -1
    request_id: int = field(default_factory=lambda: next(_msg_ids))

    def forwarded(self, new_src: int, new_dst: int) -> "Message":
        """A copy of this message forwarded one overlay hop."""
        # fast_message: this runs once per overlay hop on the runtime's
        # hot path, and both dataclasses.replace and the frozen
        # __init__ cost several times a direct __dict__ seed.
        msg = fast_message(
            self.kind, new_src, new_dst, self.file, self.payload,
            self.version, self.hops + 1, self.origin, self.request_id,
        )
        body = self.__dict__.get(WIRE_BODY)
        if body is not None:
            msg.__dict__[WIRE_BODY] = body
        return msg

    def reply(self, kind: MessageKind, payload: Any = None) -> "Message":
        """A reply travelling back to this message's source."""
        return fast_message(
            kind, self.dst, self.src, self.file, payload,
            self.version, self.hops, self.origin, self.request_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.kind.value} {self.src}->{self.dst} "
            f"file={self.file!r} hops={self.hops})"
        )


_MSG_NEW = Message.__new__


def fast_message(
    kind: MessageKind,
    src: int,
    dst: int,
    file: str = "",
    payload: Any = None,
    version: int = 0,
    hops: int = 0,
    origin: int = -1,
    request_id: int | None = None,
) -> Message:
    """Build a :class:`Message` without the frozen-``__setattr__`` toll.

    The generated ``__init__`` of a frozen dataclass routes every field
    through ``object.__setattr__``; seeding ``__dict__`` directly is
    ~3x cheaper, which matters on the wire-decode and reply paths that
    construct one message per frame.  The instance never escapes
    half-built, so immutability guarantees are unchanged.
    """
    msg = _MSG_NEW(Message)
    msg.__dict__.update(
        kind=kind, src=src, dst=dst, file=file, payload=payload,
        version=version, hops=hops, origin=origin,
        request_id=next(_msg_ids) if request_id is None else request_id,
    )
    return msg
