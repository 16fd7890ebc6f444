"""Address resolution shared by every data-plane dial.

The runtime reaches a node three ways — a `LiveCluster` peer/client
connection in socketpair mode, the same in TCP mode, and (scale-out) a
worker or client dialing a ``(host, port)`` entry from the bootstrap's
address book.  Every mode resolves through one code path, and every
connection it makes runs the protocol the caller's ``factory`` builds
(a :class:`~repro.runtime.wire.FrameConnection`):

* an **address** — a ``(host, port)`` pair — dials the kernel's TCP
  stack;
* ``None`` with an ``attach`` factory builds an in-process
  ``socket.socketpair`` and gives the server end to the protocol the
  node's factory returns, which is exactly what a TCP accept would
  have done.

``PeerUnreachableError`` lives here (re-exported by
``repro.runtime.cluster`` for compatibility) so the scale-out worker
can raise the same class a `LiveCluster` send does — `NodeServer`'s §3
FINDLIVENODE reaction keys on it.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Callable

__all__ = [
    "Address",
    "PeerUnreachableError",
    "dial_node",
    "dial_peer",
    "start_listener",
]

Address = tuple[str, int]
"""One address-book entry: ``(host, port)`` of a listening node."""


class PeerUnreachableError(ConnectionError):
    """The destination node is not accepting connections (dead/crashed)."""


async def dial_node(
    address: Address | None,
    factory: Callable[[], asyncio.Protocol],
    attach: Callable[[], asyncio.Protocol] | None = None,
):
    """A fresh client-side connection to one node, either transport mode.

    Returns the protocol ``factory`` built, connected.  ``address``
    dials TCP; ``None`` requires ``attach`` — the node's own protocol
    factory — and builds the in-process socketpair equivalent, handing
    the node the server end the way its TCP listener would.  A dial
    that fails or is cancelled halfway closes both ends.
    """
    loop = asyncio.get_running_loop()
    if address is not None:
        _transport, conn = await loop.create_connection(factory, *address)
        return conn
    if attach is None:
        raise ValueError("socketpair mode needs an attach factory")
    ours, theirs = socket.socketpair()
    server_side = None
    try:
        ours.setblocking(False)
        theirs.setblocking(False)
        server_side, _node_conn = await loop.create_connection(attach, sock=theirs)
        _transport, conn = await loop.create_connection(factory, sock=ours)
    except BaseException:
        # A transport asyncio made and failed closes its own socket;
        # closing a socket twice is harmless, leaking one is not.
        if server_side is not None:
            server_side.close()
        theirs.close()
        ours.close()
        raise
    return conn


async def dial_peer(
    address: Address | None, pid: int, factory: Callable[[], asyncio.Protocol]
):
    """Dial a peer's published address, mapping failure to the §3 signal.

    A missing address-book entry or a refused/unroutable connect both
    mean the same thing to the sender — the peer is dead — so both
    surface as :class:`PeerUnreachableError`, the exception the
    FINDLIVENODE reroute path catches.
    """
    if address is None:
        raise PeerUnreachableError(f"P({pid}) has no published address")
    try:
        return await dial_node(address, factory)
    except (ConnectionError, OSError) as exc:
        raise PeerUnreachableError(f"connection to P({pid}) failed: {exc}") from None


async def start_listener(
    attach: Callable[[], asyncio.Protocol],
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[asyncio.base_events.Server, Address]:
    """Bind one node's listener; returns the server and its address.

    Every accepted connection runs the protocol ``attach`` returns.
    Shared by `LiveCluster._boot_node` (TCP mode) and the scale-out
    worker entrypoint, so both transports publish addresses the same
    shape.
    """
    server = await asyncio.get_running_loop().create_server(attach, host, port)
    sockname = server.sockets[0].getsockname()
    return server, (sockname[0], sockname[1])
