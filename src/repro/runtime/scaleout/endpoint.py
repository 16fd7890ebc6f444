"""`ScaleoutEndpoint`: the client's view of a multi-process cluster.

`RuntimeClient` and `LoadGenerator` were written against `LiveCluster`
but only ever touch a narrow slice of it: ``nodes`` (as an
iterable/containment check for entry picking), ``word.epoch`` (the
entry-list cache key), ``open_connection``, ``count_client_send``, and
``served_counts``.  This facade serves that exact slice from the
bootstrap's address book, so both classes drive a fleet of real
processes **unchanged**:

* ``nodes`` is the address book — a ``dict[pid, (host, port)]``, which
  sorts/iterates/contains exactly like `LiveCluster.nodes`;
* ``open_connection`` dials the book over TCP;
* ``word`` is a one-field epoch shim bumped on every book push, so the
  generator's sorted-entries cache invalidates on churn exactly as it
  does when the live word flips a bit;
* client sends are counted per destination and shipped with the drain
  RPC — the client's column of the bootstrap's quiescence ledger.
"""

from __future__ import annotations

import asyncio

from ..addressing import Address, dial_peer
from .control import ControlLink, config_from_wire

__all__ = ["ScaleoutEndpoint"]


class _EpochShim:
    """Stands in for ``cluster.word`` where only ``.epoch`` is read."""

    __slots__ = ("epoch",)

    def __init__(self) -> None:
        self.epoch = 0


class ScaleoutEndpoint:
    """Duck-types the `LiveCluster` surface the client stack consumes."""

    def __init__(self) -> None:
        self.config = None
        self.nodes: dict[int, Address] = {}
        self.word = _EpochShim()
        self.link: ControlLink | None = None
        self._sent: dict[int, int] = {}

    @classmethod
    async def connect(cls, host: str, port: int) -> "ScaleoutEndpoint":
        self = cls()
        link = self.link = ControlLink(self._handle, label="endpoint")
        await asyncio.get_running_loop().create_connection(
            lambda: link.conn, host, port
        )
        hello = await link.call("client_hello")
        self.config = config_from_wire(hello["config"])
        self._apply_book(hello.get("book") or {}, int(hello.get("epoch", 0)))
        return self

    async def _handle(self, op: str, body: dict) -> dict | None:
        if op == "book":
            self._apply_book(body.get("book") or {}, int(body.get("epoch", 0)))
            return None
        if op == "ping":
            return {"ok": True}
        return {"error": f"unknown endpoint op {op!r}"}

    def _apply_book(self, book: dict[str, list], epoch: int) -> None:
        self.nodes = {
            int(pid): (entry[0], int(entry[1])) for pid, entry in book.items()
        }
        self.word.epoch = max(self.word.epoch + 1, epoch)

    # -- the client-facing slice of LiveCluster ------------------------------

    async def open_connection(self, pid: int, factory):
        return await dial_peer(self.nodes.get(pid), pid, factory)

    def count_client_send(self, pid: int) -> None:
        """The client column of the quiescence ledger.  Gated on the
        book like `LiveCluster.count_client_send` is on ``nodes`` — a
        send racing a retirement never lands, so counting it would
        wedge the drain."""
        if pid in self.nodes:
            self._sent[pid] = self._sent.get(pid, 0) + 1

    async def served_counts(self) -> dict[int, int]:
        assert self.link is not None
        reply = await self.link.call("served_counts")
        return {int(pid): int(n) for pid, n in (reply.get("counts") or {}).items()}

    def _sent_wire(self) -> dict[str, int]:
        return {str(pid): n for pid, n in self._sent.items()}

    async def drain(self) -> None:
        """Cluster-wide drain, with this endpoint's send counts."""
        assert self.link is not None
        await self.link.call("client_drain", sent=self._sent_wire())

    async def quiesce(self) -> None:
        """Pause replication fleet-wide, then drain."""
        assert self.link is not None
        await self.link.call("client_quiesce", sent=self._sent_wire())

    async def close(self) -> None:
        if self.link is not None:
            # Ship the final send counts (no drain): frames this client
            # put on the wire stay accounted for after it disconnects.
            self.link.cast("client_sent", sent=self._sent_wire())
            await self.link.close()
            self.link = None
