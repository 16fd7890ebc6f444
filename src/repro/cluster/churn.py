"""Self-organized mechanism: node join / leave / fail (paper §5).

The file-migration rules:

* **Join (§5.1)** — the newcomer registers live everywhere, then the
  files that were stored elsewhere *because of its absence* are copied
  to it: for each file whose subtree storage node is now the newcomer,
  the copy moves from the previous storage node (which keeps a replica,
  so in-flight demand keeps being served).
* **Leave (§5.2)** — the leaver's *replicated* files are discarded; its
  *inserted* files are re-inserted with the leaver registered dead,
  landing at each subtree's next storage node.
* **Fail (§5.3)** — the crashed node's storage is lost.  With ``b > 0``
  the inserted files it was home to are recovered from another subtree
  into the new storage node; with ``b = 0`` a file with no surviving
  replica is lost and recorded as a fault.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.bits import check_id
from ..core.errors import MembershipError, NoLiveNodeError
from ..core.subtree import SubtreeView, subtree_of_pid
from ..node.storage import FileOrigin, FileStore

if TYPE_CHECKING:  # pragma: no cover
    from .system import LessLogSystem

__all__ = [
    "join_node",
    "leave_node",
    "fail_node",
    "gc_orphan_replicas",
    "kill_node",
    "recover_node",
    "arrive_node",
    "settle_node",
    "depart_node",
    "reinsert_node",
    "any_holder",
]


def gc_orphan_replicas(system: "LessLogSystem") -> list[tuple[str, int]]:
    """Drop replicas the update broadcast can no longer reach.

    The paper's top-down update discards at nodes without a copy, so a
    replica whose placement chain lost a link (its parent holder left
    or crashed) would silently go stale.  A departed holder orphans
    exactly the replicas it bridged; removing them keeps the paper's
    update protocol sound — they are recreated on the next overload.

    Returns the ``(file, pid)`` pairs garbage-collected.
    """
    removed: list[tuple[str, int]] = []
    for name in system.catalog:
        if name in system.faults:
            continue
        holders = set(system.holders_of(name))
        if not holders:
            continue
        reachable = set(system.reachable_holders(name))
        for pid in sorted(holders - reachable):
            store = system.stores[pid]
            if store.get(name, count_access=False).origin is FileOrigin.REPLICATED:
                store.remove(name)
                removed.append((name, pid))
                system.tracer.emit(
                    system.now, "gc_orphan", file=name, pid=pid
                )
    if removed:
        system.metrics.counter("system.orphans_collected").inc(len(removed))
    return removed


def join_node(system: "LessLogSystem", pid: int) -> list[str]:
    """§5.1: ``P(pid)`` joins; returns the file names migrated to it."""
    check_id(pid, system.m)
    if system.is_live(pid):
        raise MembershipError(f"P({pid}) is already live")
    system.membership.register_live(pid)
    system.stores[pid] = FileStore()
    migrated = _migrate_to_newcomer(system, pid)
    system.metrics.counter("system.joins").inc()
    system.tracer.emit(system.now, "join", pid=pid, migrated=migrated)
    return migrated


def _migrate_to_newcomer(system: "LessLogSystem", pid: int) -> list[str]:
    """§5.1 migration loop: copy to ``pid`` the files its absence displaced."""
    migrated: list[str] = []
    for name, entry in system.catalog.items():
        if name in system.faults:
            continue
        tree = system.tree(entry.target)
        sid = subtree_of_pid(tree, pid, system.b)
        view = SubtreeView(tree, system.b, sid)
        new_home = view.storage_node(system.membership)
        if new_home != pid:
            continue  # this file's placement was unaffected by the absence
        old_home = _inserted_holder(system, view, name, exclude=pid)
        if old_home is not None:
            copy = system.stores[old_home].get(name, count_access=False)
            system.stores[pid].store(
                name, copy.payload, copy.version, FileOrigin.INSERTED, system.now
            )
            # The previous home keeps serving as a plain replica: demand
            # that still routes to it is not dropped mid-migration.
            copy.origin = FileOrigin.REPLICATED
            migrated.append(name)
            continue
        # The subtree has no inserted copy at all — it emptied out
        # completely at some point (every member dead) and the newcomer
        # is repopulating it.  Restore from another subtree, exactly
        # like §5.3 recovery; if no copy survives anywhere the file is
        # already lost and stays that way.
        donor = any_holder(system, name)
        if donor is None:
            if name not in system.faults:
                system.faults.append(name)
            continue
        copy = system.stores[donor].get(name, count_access=False)
        system.stores[pid].store(
            name, copy.payload, copy.version, FileOrigin.INSERTED, system.now
        )
        migrated.append(name)
    # A rejoining node re-enters broadcast chains *without* copies,
    # shadowing any replica that used to be bridged through its
    # position — those are orphans now too.
    gc_orphan_replicas(system)
    return migrated


def leave_node(system: "LessLogSystem", pid: int) -> list[str]:
    """§5.2: ``P(pid)`` leaves voluntarily; returns re-inserted files."""
    if not system.is_live(pid):
        raise MembershipError(f"P({pid}) is not live")
    store = system.stores.pop(pid)
    inserted = [(c.name, c.payload, c.version) for c in store.inserted_files()]
    # Replicated files are simply discarded with the store (§5.2).
    system.membership.register_dead(pid)
    moved = _reinsert_files(system, pid, inserted)
    system.metrics.counter("system.leaves").inc()
    system.tracer.emit(system.now, "leave", pid=pid, moved=moved)
    return moved


def _reinsert_files(
    system: "LessLogSystem",
    pid: int,
    inserted: list[tuple[str, object, int]],
) -> list[str]:
    """§5.2 re-insertion loop: re-home ``pid``'s inserted files."""
    moved: list[str] = []
    for name, payload, version in inserted:
        entry = system.catalog.get(name)
        if entry is None:  # pragma: no cover - defensive
            continue
        tree = system.tree(entry.target)
        sid = subtree_of_pid(tree, pid, system.b)
        view = SubtreeView(tree, system.b, sid)
        try:
            new_home = view.storage_node(system.membership)
        except NoLiveNodeError:
            # The subtree emptied out.  Other subtrees may still hold
            # the file (b > 0); if none do, it is gone.
            if not system.holders_of(name):
                system.faults.append(name)
            continue
        system.stores[new_home].store(
            name, payload, version, FileOrigin.INSERTED, system.now
        )
        moved.append(name)
    gc_orphan_replicas(system)
    return moved


def fail_node(system: "LessLogSystem", pid: int) -> list[str]:
    """§5.3: ``P(pid)`` crashes; returns the files recovered.

    Files that were homed at the crashed node with no surviving copy
    anywhere are appended to ``system.faults``.
    """
    if not system.is_live(pid):
        raise MembershipError(f"P({pid}) is not live")
    # The node's storage is destroyed — deliberately never read.
    system.stores.pop(pid)
    system.membership.register_dead(pid)
    recovered = _recover_after_loss(system, pid)
    system.metrics.counter("system.failures").inc()
    system.tracer.emit(system.now, "fail", pid=pid, recovered=recovered)
    return recovered


def _recover_after_loss(system: "LessLogSystem", pid: int) -> list[str]:
    """§5.3 recovery loop: re-home files orphaned by the death of ``pid``."""
    recovered: list[str] = []
    for name, entry in system.catalog.items():
        if name in system.faults:
            continue
        tree = system.tree(entry.target)
        sid = subtree_of_pid(tree, pid, system.b)
        view = SubtreeView(tree, system.b, sid)
        try:
            new_home = view.storage_node(system.membership)
        except NoLiveNodeError:
            if not system.holders_of(name):
                system.faults.append(name)
            continue
        if _inserted_holder(system, view, name) is not None:
            continue  # the crashed node was not this subtree's home
        donor = any_holder(system, name)
        if donor is None:
            system.faults.append(name)
            continue
        copy = system.stores[donor].get(name, count_access=False)
        system.stores[new_home].store(
            name, copy.payload, copy.version, FileOrigin.INSERTED, system.now
        )
        recovered.append(name)
    gc_orphan_replicas(system)
    return recovered


def kill_node(system: "LessLogSystem", pid: int) -> None:
    """First half of §5.3 under live churn: the instant of death.

    The storage is destroyed and the membership flipped the moment the
    node dies; recovery belongs to :func:`recover_node`, which models
    the (possibly much later) *detection* of the failure.  Splitting
    the two halves lets the oracle replay a crash at the exact oplog
    position where the live cluster retired the node, with replication
    decisions taken mid-churn interleaving between the halves.
    """
    if not system.is_live(pid):
        raise MembershipError(f"P({pid}) is not live")
    system.stores.pop(pid)
    system.membership.register_dead(pid)
    system.metrics.counter("system.kills").inc()
    system.tracer.emit(system.now, "kill", pid=pid)


def recover_node(system: "LessLogSystem", pid: int) -> list[str]:
    """Second half of §5.3: recovery once the crash of ``pid`` is detected."""
    if system.is_live(pid):
        raise MembershipError(f"P({pid}) is live; kill it first")
    recovered = _recover_after_loss(system, pid)
    system.metrics.counter("system.recoveries").inc()
    system.tracer.emit(system.now, "recover", pid=pid, recovered=recovered)
    return recovered


def arrive_node(system: "LessLogSystem", pid: int) -> None:
    """First half of §5.1: the newcomer registers live with an empty store."""
    check_id(pid, system.m)
    if system.is_live(pid):
        raise MembershipError(f"P({pid}) is already live")
    system.membership.register_live(pid)
    system.stores[pid] = FileStore()
    system.metrics.counter("system.arrivals").inc()
    system.tracer.emit(system.now, "arrive", pid=pid)


def settle_node(system: "LessLogSystem", pid: int) -> list[str]:
    """Second half of §5.1: migrate to ``pid`` the files its absence displaced."""
    if not system.is_live(pid):
        raise MembershipError(f"P({pid}) has not arrived")
    migrated = _migrate_to_newcomer(system, pid)
    system.metrics.counter("system.settles").inc()
    system.tracer.emit(system.now, "settle", pid=pid, migrated=migrated)
    return migrated


def depart_node(system: "LessLogSystem", pid: int) -> list[tuple[str, object, int]]:
    """First half of §5.2: the leaver goes dark, its replicas discarded.

    Returns the ``(name, payload, version)`` triples of its *inserted*
    files, which :func:`reinsert_node` re-homes once the departure is
    processed.
    """
    if not system.is_live(pid):
        raise MembershipError(f"P({pid}) is not live")
    store = system.stores.pop(pid)
    inserted = [(c.name, c.payload, c.version) for c in store.inserted_files()]
    system.membership.register_dead(pid)
    system.metrics.counter("system.departures").inc()
    system.tracer.emit(system.now, "depart", pid=pid, inserted=[n for n, _, _ in inserted])
    return inserted


def reinsert_node(
    system: "LessLogSystem",
    pid: int,
    inserted: list[tuple[str, object, int]],
) -> list[str]:
    """Second half of §5.2: re-home the departed node's inserted files."""
    moved = _reinsert_files(system, pid, inserted)
    system.metrics.counter("system.reinserts").inc()
    system.tracer.emit(system.now, "reinsert", pid=pid, moved=moved)
    return moved


def _inserted_holder(
    system: "LessLogSystem", view: SubtreeView, name: str, exclude: int | None = None
) -> int | None:
    """The live subtree member holding the INSERTED copy, if any."""
    for member in view.members():
        if member == exclude or not system.is_live(member):
            continue
        store = system.stores[member]
        if name in store and (
            store.get(name, count_access=False).origin is FileOrigin.INSERTED
        ):
            return member
    return None


def any_holder(system: "LessLogSystem", name: str) -> int | None:
    """Any live node holding a copy, preferring INSERTED copies."""
    best: int | None = None
    for pid in system.holders_of(name):
        origin = system.stores[pid].get(name, count_access=False).origin
        if origin is FileOrigin.INSERTED:
            return pid
        if best is None:
            best = pid
    return best
