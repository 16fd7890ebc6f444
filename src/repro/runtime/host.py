"""`NodeHost`: what a `NodeServer` needs from its surroundings.

A node reaches the rest of the deployment only through its host: the
data-plane ``send``, the handful of coordination calls that end at the
`Coordinator`, and a few shared helpers and counters.  `LiveCluster`
hosts every node of an in-process cluster; the scale-out
`WorkerRuntime` hosts the one node of its OS process and turns each
coordination call into an RPC to the bootstrap.
"""

from __future__ import annotations

import traceback
from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Any

from ..core.hashing import Psi
from ..core.tree import LookupTree
from ..net.message import Message
from ..node.membership import StatusWord
from .node import CLIENT
from .wire import FrameConnection

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import RuntimeConfig

__all__ = ["NodeHost", "PSI_CACHE_CAP"]

PSI_CACHE_CAP = 4096
"""Upper bound on memoized ψ values per host — a wide catalog must not
grow memory without limit."""

HANDLER_TRACEBACKS_KEPT = 8
"""Most recent handler tracebacks a host keeps beside its counter."""


class _BoundedCache(dict):
    """A size-capped dict: inserting past ``cap`` evicts the oldest
    entry (dicts preserve insertion order, so ``next(iter(...))`` is
    the first-inserted key).  O(1) insertion-order eviction rather
    than strict LRU — hits don't reorder — which is plenty for ψ and
    holder memoization: the hot set re-inserts right after any
    eviction, and correctness never depends on a hit (a ψ miss
    recomputes, a holder miss degrades to the pre-cache ``-1`` path).
    """

    __slots__ = ("cap",)

    def __init__(self, cap: int) -> None:
        super().__init__()
        if cap < 1:
            raise ValueError("cache cap must be positive")
        self.cap = cap

    def __setitem__(self, key: Any, value: Any) -> None:
        if key not in self and len(self) >= self.cap:
            del self[next(iter(self))]
        super().__setitem__(key, value)


class NodeHost(ABC):
    """The surface `NodeServer` runs against, shared helpers included."""

    word: StatusWord
    """The membership a freshly booted node copies as its own word."""

    def __init__(self, config: "RuntimeConfig") -> None:
        self.config = config
        self.replication_enabled = True
        """Gate on the nodes' *autonomous* (sweeper) replication."""
        self.counters: dict[str, int] = {}
        self.handler_tracebacks: deque[tuple[int, str]] = deque(
            maxlen=HANDLER_TRACEBACKS_KEPT
        )
        """``(pid, traceback)`` of the last handler errors, oldest first."""
        self.stage_seconds: dict[str, float] = {
            "encode": 0.0, "decode": 0.0, "route": 0.0, "serve": 0.0,
        }
        self.psi = Psi(config.m)
        self._psi_cache: _BoundedCache = _BoundedCache(PSI_CACHE_CAP)
        self._trees: dict[int, LookupTree] = {}

    # -- shared helpers -----------------------------------------------------

    def tree(self, r: int) -> LookupTree:
        tree = self._trees.get(r)
        if tree is None:
            tree = LookupTree(r, self.config.m)
            self._trees[r] = tree
        return tree

    def psi_of(self, name: str) -> int:
        """Memoized ψ(name): the hash is pure, so cache per file name."""
        r = self._psi_cache.get(name)
        if r is None:
            r = self.psi(name)
            self._psi_cache[name] = r
        return r

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def note_decode_error(self, pid: int) -> None:
        self.count("wire_decode_errors")

    def note_handler_error(self, pid: int) -> None:
        """Count a handler that raised and keep its traceback; call it
        from the ``except`` block that caught the exception."""
        self.count("handler_errors")
        self.handler_tracebacks.append((pid, traceback.format_exc()))

    # -- data plane ---------------------------------------------------------

    def peer_connection(self) -> FrameConnection:
        """Protocol factory for a send-only node-to-node stream (nothing
        is ever read off it)."""
        return FrameConnection()

    @abstractmethod
    async def send(self, src: int, msg: Message) -> None:
        """Deliver one frame to ``msg.dst``; `PeerUnreachableError` is
        the §3 dead-peer signal."""

    @abstractmethod
    def msg_enqueued(self, pid: int, src: int = CLIENT) -> None:
        """A frame from ``src`` landed in ``P(pid)``'s inbox."""

    @abstractmethod
    def holders(self, name: str) -> set[int]:
        """Live PIDs believed to hold a copy (redirect hints)."""

    # -- coordination calls (each ends at a `Coordinator` verb) -------------

    @abstractmethod
    async def catalog_claim(self, name: str, entry: int, payload: Any) -> bool:
        """Register ``name`` for entry node ``entry``; ``False`` when the
        name is taken, ``entry`` is dead, or no subtree has a live home."""

    @abstractmethod
    async def catalog_advance(self, name: str, payload: Any) -> int | None:
        """The next version for an UPDATE (``None``: not inserted)."""

    @abstractmethod
    async def decide_replication(self, name: str, holder: int, seed: int) -> int | None:
        """One placement decision; the target's copy travels as the
        coordinator's REPLICATE frame, not from the deciding node.
        Returns the target (``None``: no target); raises
        ``ConnectionError`` when the outcome cannot be learned."""

    @abstractmethod
    async def record_removal(self, name: str, pid: int) -> None:
        """An idle-decay decision; the REMOVE frames come back from the
        coordinator (the decayed copy's and any orphan's)."""
