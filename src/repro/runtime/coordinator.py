"""`Coordinator`: the coordination plane, synchronous and I/O-free.

One object owns what a deployment would delegate to a tracker — the
authoritative §5 status word, the file catalog, and the decision-ordered
operation log — as a :class:`LessLogSystem` *mirror* plus the ``oplog``
list.  :meth:`Coordinator.apply` is the only place a record kind meets
the oracle: it applies the record to the mirror and appends it in the
same step, so ``mirror == replay(oplog)`` holds at every instant (the
conformance replay is a loop over the same method).

The verbs built on it (:meth:`claim`, :meth:`advance`, :meth:`decide`,
:meth:`remove`, and the §5 halves :meth:`kill`/:meth:`recover`,
:meth:`arrive`/:meth:`settle`, :meth:`depart`/:meth:`reinsert`) are what
a host calls.  A verb that moves copies returns the admin frames
(REPLICATE / TRANSFER / DEMOTE / REMOVE, ``src == ADMIN``) that realise
the mirror's change on real node stores, computed by diffing the
mirror's placement around the step.  The frame contract: record and
frames are produced in one synchronous step, and the host delivers them
over one FIFO channel per destination, in the order verbs returned them.

The hosts — `LiveCluster` in one process, `BootstrapServer` across OS
processes — differ only in how a frame travels and in the sequencing
they own: booting and retiring nodes, REGISTER broadcasts, draining.
Node stores only ever change when a frame arrives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from ..cluster.churn import (
    arrive_node,
    depart_node,
    kill_node,
    recover_node,
    reinsert_node,
    settle_node,
)
from ..cluster.system import LessLogSystem
from ..core.errors import ConfigurationError, FileNotFoundInSystemError
from ..net.message import Message, MessageKind
from ..node.storage import FileOrigin

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import RuntimeConfig

__all__ = ["ADMIN", "OpRecord", "Coordinator"]

ADMIN = -2
"""``src`` of coordination-plane messages (the coordinator's frames)."""

Placement = dict[str, dict[int, FileOrigin]]


@dataclass(frozen=True)
class OpRecord:
    """One placement-mutating decision, in cluster decision order."""

    kind: str
    """insert | update | replicate | remove | join | leave | crash, plus
    the split churn halves: ``kill``/``recover`` (crash effect vs
    detection+recovery), ``arrive``/``settle`` (join registration vs
    migration), ``depart``/``reinsert`` (leave effect vs re-homing).
    Halves are appended when their *effects* land, so replication
    decisions taken mid-churn interleave between them in true decision
    order — the order the conformance replay needs."""
    name: str = ""
    payload: Any = None
    pid: int = -1
    version: int = 0
    seed: int = 0
    target: int | None = None
    rates: dict[int, float] | None = None
    """Replicate only: the deciding holder's observed forwarder rates —
    replayed verbatim so the oracle's max-traffic-child choice matches."""


class Coordinator:
    """The mirror oracle, its oplog, and the verbs that move both."""

    def __init__(self, config: "RuntimeConfig", initial_live: tuple[int, ...]) -> None:
        self.config = config
        self.initial_live = tuple(sorted(initial_live))
        self.mirror = LessLogSystem(
            m=config.m, b=config.b, live=set(initial_live), seed=config.seed
        )
        self.oplog: list[OpRecord] = []
        self._departed: dict[int, list[tuple[str, Any, int]]] = {}
        """pid → the inserted copies a ``depart`` popped, awaiting ``reinsert``."""

    # -- the one dispatch ---------------------------------------------------

    def apply(self, rec: OpRecord) -> Any:
        """Apply one record to the mirror and log it; returns what the
        oracle answered (the assigned version, the chosen target).

        A record the oracle rejects raises before anything is logged.
        Besides the split churn halves, the one-shot ``join``/``leave``/
        ``crash`` kinds of older logs are still understood.
        """
        system = self.mirror
        kind = rec.kind
        out: Any = None
        if kind == "insert":
            system.insert(rec.name, rec.payload)
        elif kind == "update":
            out = system.update(rec.name, rec.payload).version
            if out != rec.version:
                raise ConfigurationError(
                    f"replay version skew on {rec.name!r}: live assigned "
                    f"v{rec.version}, oracle v{out}"
                )
        elif kind == "replicate":
            # The rng seed and the holder's observed rates make the §3
            # proportional coin replayable; the logged record carries
            # the target the oracle chose (``None`` included).
            out = system.replicate(
                rec.name, rec.pid, forwarder_rates=rec.rates,
                rng=random.Random(rec.seed),
            )
            rec = replace(rec, target=out)
        elif kind == "remove":
            # Counter-based idle decay, plus the oracle's orphan GC.
            system.remove_replica(rec.name, rec.pid)
        elif kind == "join":
            system.join(rec.pid)
        elif kind == "leave":
            system.leave(rec.pid)
        elif kind == "crash":
            system.fail(rec.pid)
        elif kind == "kill":
            kill_node(system, rec.pid)
        elif kind == "recover":
            recover_node(system, rec.pid)
        elif kind == "arrive":
            arrive_node(system, rec.pid)
        elif kind == "settle":
            settle_node(system, rec.pid)
        elif kind == "depart":
            self._departed[rec.pid] = depart_node(system, rec.pid)
        elif kind == "reinsert":
            reinsert_node(system, rec.pid, self._departed.pop(rec.pid, []))
        else:
            raise ConfigurationError(f"unknown oplog record {kind!r}")
        self.oplog.append(rec)
        return out

    # -- placement diff → admin frames --------------------------------------

    def _placement(self, names: list[str]) -> Placement:
        placed: Placement = {name: {} for name in names}
        for pid, store in sorted(self.mirror.stores.items()):
            for name in names:
                if name in store:
                    placed[name][pid] = store.get(name, count_access=False).origin
        return placed

    def _step(self, rec: OpRecord, names: list[str] | None = None) -> list[Message]:
        """Apply ``rec`` and return the frames that realise what it did
        to the placement of ``names`` (default: every catalogued file)."""
        if names is None:
            names = list(self.mirror.catalog)
        before = self._placement(names)
        self.apply(rec)
        after = self._placement(names)
        stores = self.mirror.stores
        frames: list[Message] = []
        for name in names:
            was, now = before[name], after[name]
            for pid, origin in now.items():
                if was.get(pid) is origin:
                    continue
                if pid in was and origin is FileOrigin.REPLICATED:
                    # A previous home keeps serving as a plain replica.
                    frames.append(Message(kind=MessageKind.DEMOTE, src=ADMIN,
                                          dst=pid, file=name))
                    continue
                copy = stores[pid].get(name, count_access=False)
                frames.append(Message(
                    kind=(MessageKind.TRANSFER if origin is FileOrigin.INSERTED
                          else MessageKind.REPLICATE),
                    src=ADMIN, dst=pid, file=name,
                    payload={"payload": copy.payload}, version=copy.version,
                ))
            for pid in was:
                # A holder that died took its store with it: no frame.
                if pid not in now and pid in stores:
                    frames.append(Message(kind=MessageKind.REMOVE, src=ADMIN,
                                          dst=pid, file=name))
        return frames

    # -- verbs: the catalog -------------------------------------------------

    def claim(self, name: str, payload: Any, entry: int = -1) -> bool:
        """Atomically register ``name`` (the insert record lands here).

        ``False`` when the name is taken, when the claiming ``entry``
        node died while its request was queued, or when no subtree has
        a live storage node.  No frames: the entry node's own §3 INSERT
        fan-out carries the copies.
        """
        mirror = self.mirror
        if name in mirror.catalog:
            return False
        if entry >= 0 and not mirror.membership.is_live(entry):
            return False
        try:
            self.apply(OpRecord(kind="insert", name=name, payload=payload))
        except FileNotFoundInSystemError:
            return False
        return True

    def advance(self, name: str, payload: Any) -> int | None:
        """Assign the next version for an UPDATE (``None``: not inserted).
        No frames: the entry node's top-down broadcast carries it."""
        entry = self.mirror.catalog.get(name)
        if entry is None:
            return None
        return self.apply(OpRecord(
            kind="update", name=name, payload=payload, version=entry.version + 1,
        ))

    # -- verbs: replication and decay ---------------------------------------

    def decide(
        self, name: str, holder: int, seed: int, rates: dict[int, float]
    ) -> list[Message]:
        """One §2.2 placement decision for an overloaded ``holder``.

        A dead holder, or one whose copy is already gone in decision
        order (decayed or GC'd), decides nothing: no record, no frame.
        Otherwise the outcome is recorded — "no target" included — and
        the chosen target's copy is the one REPLICATE frame returned
        (its ``dst`` is the decision).
        """
        store = self.mirror.stores.get(holder)
        if store is None or name not in store:
            return []
        return self._step(
            OpRecord(kind="replicate", name=name, pid=holder, seed=seed,
                     rates=rates),
            [name],
        )

    def remove(self, name: str, pid: int) -> list[Message]:
        """Counter-based removal of the REPLICATED copy at ``pid``, plus
        whatever the oracle's orphan GC drops with it.  A removal that
        raced a kill or a GC that already took the copy is a no-op."""
        store = self.mirror.stores.get(pid)
        if (
            store is None
            or name not in store
            or store.get(name, count_access=False).origin is not FileOrigin.REPLICATED
        ):
            return []
        return self._step(OpRecord(kind="remove", name=name, pid=pid), [name])

    # -- verbs: §5 membership, in halves ------------------------------------

    def kill(self, pid: int) -> None:
        """§5.3, the instant of death: storage lost, membership flipped."""
        self.apply(OpRecord(kind="kill", pid=pid))

    def recover(self, pid: int) -> list[Message]:
        """§5.3, detection: re-home the files the crash orphaned."""
        return self._step(OpRecord(kind="recover", pid=pid))

    def arrive(self, pid: int) -> None:
        """§5.1, registration: the newcomer is live with an empty store."""
        self.apply(OpRecord(kind="arrive", pid=pid))

    def settle(self, pid: int) -> list[Message]:
        """§5.1, migration: the files the newcomer's absence displaced."""
        return self._step(OpRecord(kind="settle", pid=pid))

    def depart(self, pid: int) -> None:
        """§5.2, departure: the leaver goes dark, its replicas discarded."""
        self.apply(OpRecord(kind="depart", pid=pid))

    def reinsert(self, pid: int) -> list[Message]:
        """§5.2, re-homing of the departed node's inserted files."""
        return self._step(OpRecord(kind="reinsert", pid=pid))
