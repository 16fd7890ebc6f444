"""`LessLogSystem`: the synchronous whole-system facade.

This is the library's primary public API.  It wires the core algebra,
per-node file stores, and membership into the paper's file operations —
INSERT / GET / UPDATE / REPLICATE in both the advanced (§3, dead nodes)
and fault-tolerant (§4, ``2**b`` subtrees) models — with function-call
semantics: every operation completes before returning, exactly as the
paper describes the message flows, minus transmission delay.  (The
request-level, delay-accurate version of the same protocol lives in
``repro.engine.des_driver``.)

Membership here is one authoritative status word: §5's broadcasts are
instantaneous in this model.  Churn (join / leave / fail with the §5
file-migration rules) is implemented in :mod:`repro.cluster.churn` and
exposed as methods on the system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from ..baselines.base import PlacementContext, ReplicationPolicy
from ..baselines.lesslog_policy import LessLogPolicy
from ..core.bits import check_id, check_width
from ..core.errors import (
    ConfigurationError,
    FileNotFoundInSystemError,
    NodeDownError,
    StorageError,
)
from ..core.hashing import Psi
from ..core.routing import retry_entry
from ..core.subtree import (
    SubtreeView,
    SvidLiveness,
    check_b,
    get_next_hop,
    identity_tree,
    insert_targets,
    migration_order,
    subtree_children_list,
    subtree_of_pid,
    update_starts,
)
from ..core.tree import LookupTree
from ..node.membership import StatusWord
from ..node.storage import FileOrigin, FileStore
from ..sim.metrics import MetricsRegistry
from ..sim.trace import Tracer

__all__ = ["CatalogEntry", "GetResult", "InsertResult", "UpdateResult", "LessLogSystem"]


@dataclass
class CatalogEntry:
    """System-level bookkeeping for one file (name, target, version)."""

    name: str
    target: int
    version: int


@dataclass(frozen=True)
class InsertResult:
    """Outcome of an insert: where the ``2**b`` original copies went."""

    name: str
    target: int
    homes: tuple[int, ...]
    version: int


@dataclass(frozen=True)
class GetResult:
    """Outcome of a get: the copy served and the path that found it."""

    name: str
    payload: Any
    version: int
    server: int
    route: tuple[int, ...]
    subtrees_tried: tuple[int, ...]

    @property
    def hops(self) -> int:
        return len(self.route) - 1


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of an update: every copy the broadcast refreshed."""

    name: str
    version: int
    updated: tuple[int, ...]


@dataclass
class _ReplicaRecord:
    source: int
    target: int
    file: str


class LessLogSystem:
    """An N-node LessLog deployment over a ``2**m`` identifier space."""

    def __init__(
        self,
        m: int,
        b: int = 0,
        live: set[int] | None = None,
        psi: Psi | None = None,
        seed: int = 0,
        tracer: Tracer | None = None,
    ) -> None:
        check_width(m)
        check_b(b, m)
        self.m = m
        self.b = b
        self.psi = psi if psi is not None else Psi(m)
        if self.psi.m != m:
            raise ConfigurationError(
                f"hash width {self.psi.m} does not match system width {m}"
            )
        pids = set(live) if live is not None else set(range(1 << m))
        if not pids:
            raise ConfigurationError("a system needs at least one live node")
        self.membership = StatusWord(m, pids)
        self.stores: dict[int, FileStore] = {pid: FileStore() for pid in sorted(pids)}
        self.catalog: dict[str, CatalogEntry] = {}
        self.metrics = MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.rng = random.Random(seed)
        self.replications: list[_ReplicaRecord] = []
        self._trees: dict[int, LookupTree] = {}
        self._subtree_views: dict[int, tuple[SubtreeView, ...]] = {}
        self.now = 0.0
        self.faults: list[str] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        m: int,
        b: int = 0,
        dead: set[int] | None = None,
        n_live: int | None = None,
        seed: int = 0,
        **kwargs: Any,
    ) -> "LessLogSystem":
        """Convenience constructor.

        Either pass ``dead`` (explicit dead PIDs) or ``n_live`` (a
        seeded random choice of that many live PIDs); default is the
        full ``2**m``-node system.
        """
        if dead is not None and n_live is not None:
            raise ConfigurationError("pass either dead or n_live, not both")
        total = 1 << m
        if n_live is not None:
            if not 1 <= n_live <= total:
                raise ConfigurationError(f"n_live must be in [1, {total}]")
            rng = random.Random(seed)
            live = set(rng.sample(range(total), n_live))
        else:
            live = set(range(total)) - (dead or set())
        return cls(m=m, b=b, live=live, seed=seed, **kwargs)

    # -- small helpers ------------------------------------------------------

    def tree(self, r: int) -> LookupTree:
        """The (cached) physical lookup tree of ``P(r)``."""
        tree = self._trees.get(r)
        if tree is None:
            tree = LookupTree(r, self.m)
            self._trees[r] = tree
        return tree

    def is_live(self, pid: int) -> bool:
        check_id(pid, self.m)
        return self.membership.is_live(pid)

    @property
    def n_live(self) -> int:
        return self.membership.live_count()

    def store_of(self, pid: int) -> FileStore:
        if not self.is_live(pid):
            raise NodeDownError(pid)
        return self.stores[pid]

    def _require_live(self, pid: int, operation: str) -> None:
        if not self.is_live(pid):
            raise NodeDownError(pid, operation)

    def _views(self, r: int) -> tuple[SubtreeView, ...]:
        """The (cached) ``2**b`` subtree views of the tree of ``P(r)``."""
        views = self._subtree_views.get(r)
        if views is None:
            tree = self.tree(r)
            views = tuple(
                SubtreeView(tree, self.b, sid) for sid in range(1 << self.b)
            )
            self._subtree_views[r] = views
        return views

    def holders_of(self, name: str) -> list[int]:
        """Every live PID currently holding a copy of ``name``."""
        return [pid for pid, store in sorted(self.stores.items()) if name in store]

    def replica_count(self, name: str) -> int:
        """Replicated (non-inserted) copies of ``name`` in the system."""
        return sum(
            1
            for pid in self.holders_of(name)
            if self.stores[pid].get(name, count_access=False).origin
            is FileOrigin.REPLICATED
        )

    # -- INSERT (§2.2 / ADVANCEDINSERTFILE §3 / §4) -------------------------

    def insert(self, name: str, payload: Any = None, entry: int | None = None) -> InsertResult:
        """Insert a file: one original copy per subtree (``2**b`` total).

        ``entry`` (the node the client contacted) only matters for
        tracing — the request is forwarded straight to the targets.
        """
        if entry is not None:
            self._require_live(entry, "insert")
        if name in self.catalog:
            raise StorageError(f"file {name!r} already inserted; use update()")
        r = self.psi(name)
        homes = insert_targets(self.tree(r), self.b, self.membership)
        if not homes:
            raise FileNotFoundInSystemError(name)
        for home in homes:
            self.stores[home].store(name, payload, 1, FileOrigin.INSERTED, self.now)
        self.catalog[name] = CatalogEntry(name=name, target=r, version=1)
        self.metrics.counter("system.inserts").inc()
        self.tracer.emit(self.now, "insert", file=name, target=r, homes=homes)
        return InsertResult(name=name, target=r, homes=tuple(homes), version=1)

    # -- GET (GETFILE §2.2, two-step §3, subtree migration §4) -------------

    def _locate(self, name: str, entry: int) -> tuple[list[int], list[int], int | None]:
        """The routing walk shared by :meth:`get` and :meth:`resolve`.

        Iterates :func:`~repro.core.subtree.get_next_hop` from the
        (live) entry node.  Returns ``(route, subtrees_tried, server)``
        where ``server`` is the first node on the route holding a copy,
        or ``None`` if the walk exhausted every subtree.  Pure
        inspection: no metrics, traces, or access counting.
        """
        tree = self.tree(self.psi(name))
        order = migration_order(tree, self.b, entry)
        route = [entry]
        pid, carried = entry, None
        while name not in self.stores[pid]:
            hop = get_next_hop(tree, self.b, pid, carried, self.membership)
            if hop is None:
                return route, order, None
            pid, carried = hop
            route.append(pid)
        # What a hop still carries is what was not yet tried before it.
        tried = len(order) - len(carried) + 1 if carried else 1
        return route, order[:tried], pid

    def resolve(self, name: str, entry: int) -> GetResult | None:
        """Side-effect-free routing probe (audit / invariant hook).

        Follows exactly the same walk as :meth:`get` but records no
        metrics, emits no trace, and bumps no access counters, so
        verification layers can probe every (requester, file) pair
        without perturbing the system under test.  Returns ``None``
        where :meth:`get` would raise.
        """
        self._require_live(entry, "resolve")
        route, tried, server = self._locate(name, entry)
        if server is None:
            return None
        copy = self.stores[server].get(name, count_access=False)
        return GetResult(
            name=name,
            payload=copy.payload,
            version=copy.version,
            server=server,
            route=tuple(route),
            subtrees_tried=tuple(tried),
        )

    def retry_entry(self, name: str, entry: int) -> int | None:
        """Where a retried request for ``name`` should re-enter:
        :func:`repro.core.routing.retry_entry` in the file's lookup tree."""
        catalog_entry = self.catalog.get(name)
        if catalog_entry is None:
            raise FileNotFoundInSystemError(name)
        return retry_entry(self.tree(catalog_entry.target), entry, self.membership)

    def get(self, name: str, entry: int) -> GetResult:
        """Resolve a request entering at ``P(entry)``.

        Routes up the entry's subtree; on a fault, migrates across the
        remaining ``2**b - 1`` subtrees in deterministic order.
        """
        self._require_live(entry, "get")
        route, tried, server = self._locate(name, entry)
        if server is None:
            self.metrics.counter("system.get_faults").inc()
            self.tracer.emit(self.now, "get_fault", file=name, entry=entry)
            raise FileNotFoundInSystemError(name)
        entry_file = self.stores[server].get(name)
        self.metrics.counter("system.gets").inc()
        self.metrics.histogram("system.get_hops").observe(float(len(route) - 1))
        self.tracer.emit(
            self.now, "get", file=name, entry=entry, server=server,
            hops=len(route) - 1,
        )
        return GetResult(
            name=name,
            payload=entry_file.payload,
            version=entry_file.version,
            server=server,
            route=tuple(route),
            subtrees_tried=tuple(tried),
        )

    # -- UPDATE (top-down broadcast §2.2 / §3 / §4) -------------------------

    def update(self, name: str, payload: Any, entry: int | None = None) -> UpdateResult:
        """Update a file and propagate through every replica, top-down.

        Starts at each subtree's root position (bypassing it to its
        children list when dead); a reached node with a copy refreshes
        it and re-broadcasts to its children list, one without a copy
        discards the request (§2.2/§3).
        """
        if entry is not None:
            self._require_live(entry, "update")
        catalog_entry = self.catalog.get(name)
        if catalog_entry is None:
            raise FileNotFoundInSystemError(name)
        catalog_entry.version += 1
        version = catalog_entry.version
        updated: list[int] = []
        for pid in self.reachable_holders(name):
            if self.stores[pid].update(name, payload, version):
                updated.append(pid)
        self.metrics.counter("system.updates").inc()
        self.tracer.emit(self.now, "update", file=name, version=version, updated=updated)
        return UpdateResult(name=name, version=version, updated=tuple(updated))

    def reachable_holders(self, name: str) -> list[int]:
        """Holders the top-down update broadcast can reach (§2.2/§3).

        The broadcast starts at each subtree's root position (bypassing
        a dead root to its children list), and only nodes *with a copy*
        re-broadcast to their children lists — a node without one
        discards the request.  Churn can orphan a replica below a
        non-holder; ``repro.cluster.churn`` garbage-collects those so
        this set always equals the holder set between churn events.
        """
        catalog_entry = self.catalog.get(name)
        if catalog_entry is None:
            raise FileNotFoundInSystemError(name)
        tree = self.tree(catalog_entry.target)
        b, word, stores = self.b, self.membership, self.stores
        reached: list[int] = []
        # An explicit stack, not a recursive closure: a closure that
        # names itself is a reference cycle, and a caller that runs
        # with the cyclic GC off (the live runtime's measured windows)
        # would keep every walk's garbage.  Children are pushed
        # reversed so the walk stays depth-first in children-list order.
        stack = update_starts(tree, b, word)[::-1]
        while stack:
            pid = stack.pop()
            if not self.is_live(pid):  # pragma: no cover - defensive
                continue
            if name not in stores[pid]:
                continue  # discard: no copy, no re-broadcast
            reached.append(pid)
            stack.extend(subtree_children_list(tree, b, pid, word)[::-1])
        return reached

    # -- REPLICATE (§2.2 / §3, within a subtree for §4) ---------------------

    def replicate(
        self,
        name: str,
        overloaded: int,
        policy: ReplicationPolicy | None = None,
        forwarder_rates: dict[int, float] | None = None,
        *,
        rng: random.Random | None = None,
    ) -> int | None:
        """One replication step for an overloaded holder.

        Runs the placement policy *inside the overloaded node's
        subtree* (for ``b = 0`` that is the whole tree), copies the
        file to the chosen node, and returns its PID (``None`` if the
        policy had no target).  ``rng`` overrides the system stream for
        the §3 proportional coin — the live runtime's conformance
        replay pins it so oracle and live decisions draw identically.
        """
        self._require_live(overloaded, "replicate")
        catalog_entry = self.catalog.get(name)
        if catalog_entry is None:
            raise FileNotFoundInSystemError(name)
        if name not in self.stores[overloaded]:
            raise StorageError(
                f"P({overloaded}) does not hold {name!r}; only holders replicate"
            )
        policy = policy if policy is not None else LessLogPolicy()
        tree = self.tree(catalog_entry.target)
        view = self._views(catalog_entry.target)[
            subtree_of_pid(tree, overloaded, self.b)
        ]
        itree = identity_tree(view)
        sliveness = SvidLiveness(view, self.membership)
        holders_svid = {
            view.svid_of(pid)
            for pid in self.holders_of(name)
            if view.contains(pid)
        }
        rates_svid = {
            (view.svid_of(src) if src >= 0 and view.contains(src) else -1): rate
            for src, rate in (forwarder_rates or {}).items()
        }
        context = PlacementContext(
            rng=rng if rng is not None else self.rng,
            forwarder_rates=rates_svid,
        )
        target_svid = policy.choose(
            itree, view.svid_of(overloaded), sliveness, holders_svid, context
        )
        if target_svid is None:
            return None
        target = view.pid_of_svid(target_svid)
        source_file = self.stores[overloaded].get(name, count_access=False)
        self.stores[target].store(
            name, source_file.payload, source_file.version,
            FileOrigin.REPLICATED, self.now,
        )
        self.replications.append(_ReplicaRecord(overloaded, target, name))
        self.metrics.counter("system.replications").inc()
        self.tracer.emit(
            self.now, "replicate", file=name, source=overloaded, target=target
        )
        return target

    def remove_replica(self, name: str, pid: int) -> None:
        """Counter-based removal: drop a *replicated* copy at ``pid``.

        Removal can orphan replicas that were bridged through the
        removed copy (the top-down update discards at a node without
        one), so the same orphan GC that runs after churn runs here —
        keeping the holder set equal to the update-reachable set.
        This gap was found by the scenario fuzzer (repro.verify):
        insert → replicate ×2 → remove the middle replica.
        """
        from .churn import gc_orphan_replicas

        self._require_live(pid, "remove_replica")
        store = self.stores[pid]
        if name not in store:
            raise StorageError(f"P({pid}) holds no copy of {name!r}")
        if store.get(name, count_access=False).origin is FileOrigin.INSERTED:
            raise StorageError(f"refusing to remove the inserted copy at P({pid})")
        store.remove(name)
        self.metrics.counter("system.replica_removals").inc()
        self.tracer.emit(self.now, "remove_replica", file=name, pid=pid)
        gc_orphan_replicas(self)

    # -- churn (§5) — implemented in repro.cluster.churn --------------------

    def join(self, pid: int) -> list[str]:
        """§5.1: a new node joins; returns the files migrated to it."""
        from .churn import join_node

        return join_node(self, pid)

    def leave(self, pid: int) -> list[str]:
        """§5.2: a node leaves voluntarily; returns re-inserted files."""
        from .churn import leave_node

        return leave_node(self, pid)

    def fail(self, pid: int) -> list[str]:
        """§5.3: a node crashes; returns the files recovered (or lost)."""
        from .churn import fail_node

        return fail_node(self, pid)

    # -- verification --------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert system-wide consistency (used heavily by tests).

        For every catalogued file and every subtree with live members:
        exactly one INSERTED copy, located at the subtree's storage
        node — unless the file is recorded as faulted/lost.
        """
        for name, entry in self.catalog.items():
            if name in self.faults:
                continue
            tree = self.tree(entry.target)
            for view in self._views(entry.target):
                if view.live_count(self.membership) == 0:
                    continue
                home = view.storage_node(self.membership)
                inserted = [
                    pid
                    for pid in view.members()
                    if self.is_live(pid)
                    and name in self.stores[pid]
                    and self.stores[pid].get(name, count_access=False).origin
                    is FileOrigin.INSERTED
                ]
                if inserted != [home] and sorted(inserted) != [home]:
                    raise AssertionError(
                        f"file {name!r}, tree P({entry.target}), subtree "
                        f"{view.sid}: inserted copies at {inserted}, "
                        f"expected exactly [{home}]"
                    )
                for pid in view.members():
                    if self.is_live(pid) and name in self.stores[pid]:
                        copy = self.stores[pid].get(name, count_access=False)
                        if copy.version > entry.version:
                            raise AssertionError(
                                f"copy of {name!r} at P({pid}) has version "
                                f"{copy.version} > catalog {entry.version}"
                            )

    def __repr__(self) -> str:
        return (
            f"LessLogSystem(m={self.m}, b={self.b}, live={self.n_live}, "
            f"files={len(self.catalog)})"
        )
