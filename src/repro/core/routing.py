"""Liveness-aware routing over a lookup tree (paper §2.2 and §3).

Three primitives drive every file operation:

* :func:`first_alive_ancestor` — the augmented ``FP^r_k`` of §3: the
  nearest *live* ancestor of ``P(k)`` in the tree of ``P(r)``.
* :func:`find_live_node` — the paper's ``FINDLIVENODE(s, r)``: starting
  from ``P(s)``, the live node with the largest VID not exceeding
  ``vid(s)`` in the tree of ``P(r)``.  With ``s = r`` this locates the
  live node with the most offspring, where ``ADVANCEDINSERTFILE``
  stores a file whose target is dead.
* :func:`resolve_route` — the full GETFILE walk: the ordered list of
  live PIDs a request visits from an entry node until it reaches the
  node that must hold the (inserted) file, including the final jump to
  ``FINDLIVENODE(r, r)`` when the climb tops out below it.

:func:`retry_entry` composes the first two for a client whose entry
node died.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from typing import TYPE_CHECKING

from . import vid as V
from .bits import mask
from .children import advanced_children_list
from .errors import NoLiveNodeError
from .liveness import LivenessView, cache_token
from .tree import LookupTree, VirtualTree

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "first_alive_ancestor",
    "find_live_node",
    "storage_node",
    "resolve_route",
    "iter_route",
    "route_length",
    "retry_entry",
    "RoutingTable",
    "routing_table",
    "routing_table_cache_clear",
    "routing_table_cache_info",
]


def first_alive_ancestor(tree: LookupTree, k: int, liveness: LivenessView) -> int | None:
    """Nearest live strict ancestor of ``P(k)`` in ``tree`` (or ``None``).

    This is the §3 augmentation of ``FP^r_k``: climb Property-2 parents,
    skipping dead identifiers.  Returns ``None`` when every ancestor up
    to the root is dead (the caller has reached the top of its chain).
    """
    v = tree.vid_of(k)
    top = mask(tree.m)
    while v != top:
        v = V.parent_vid(v, tree.m)
        pid = tree.pid_of(v)
        if liveness.is_live(pid):
            return pid
    return None


def find_live_node(tree: LookupTree, s: int, liveness: LivenessView) -> int:
    """The paper's ``FINDLIVENODE(s, r)`` with ``r = tree.root``.

    If ``P(s)`` is live, return ``s``.  Otherwise scan VIDs downward
    from ``vid(s) - 1`` and return the first live PID.  By Property 3
    the result is the live node with the most offspring among those
    with VID below ``vid(s)``.

    Raises :class:`NoLiveNodeError` when no live node exists in range,
    matching the algorithm's ``return false``.
    """
    if liveness.is_live(s):
        return s
    s_vid = tree.vid_of(s)
    for v in range(s_vid - 1, -1, -1):
        pid = tree.pid_of(v)
        if liveness.is_live(pid):
            return pid
    raise NoLiveNodeError(
        f"no live node with VID below {s_vid} in the tree of P({tree.root})"
    )


def storage_node(tree: LookupTree, liveness: LivenessView) -> int:
    """Where ``ADVANCEDINSERTFILE`` stores a file targeting ``tree.root``.

    ``FINDLIVENODE(r, r)``: the root itself when live, else the live
    node with the globally largest VID (most offspring).
    """
    return find_live_node(tree, tree.root, liveness)


def iter_route(tree: LookupTree, entry: int, liveness: LivenessView) -> Iterator[int]:
    """Yield the live PIDs a request visits, entry node first.

    The walk follows ``first_alive_ancestor`` hops.  If the climb ends
    (no live ancestor) at a node other than the storage node — which
    can only happen when the target ``P(r)`` is dead — the request
    makes the §3 "second step" jump to ``FINDLIVENODE(r, r)``.
    """
    if not liveness.is_live(entry):
        raise NoLiveNodeError(f"entry node P({entry}) is not live")
    current = entry
    yield current
    while True:
        nxt = first_alive_ancestor(tree, current, liveness)
        if nxt is None:
            break
        current = nxt
        yield current
    if current != tree.root:
        home = storage_node(tree, liveness)
        if home != current:
            yield home


def resolve_route(tree: LookupTree, entry: int, liveness: LivenessView) -> list[int]:
    """The full route as a list (see :func:`iter_route`)."""
    return list(iter_route(tree, entry, liveness))


def route_length(tree: LookupTree, entry: int, liveness: LivenessView) -> int:
    """Number of forwarding hops on the route from ``entry`` (≥ 0)."""
    return len(resolve_route(tree, entry, liveness)) - 1


def retry_entry(tree: LookupTree, entry: int, liveness: LivenessView) -> int | None:
    """Where a retried request should re-enter the tree of ``tree.root``.

    The client-side dual of ``FINDLIVENODE`` (§3), used by the
    request-reliability layer (:mod:`repro.net.reliability`): a
    still-live entry is kept, a dead one is bypassed to its first alive
    ancestor (falling back to the storage node), and ``None`` means no
    live node remains.
    """
    if liveness.is_live(entry):
        return entry
    nxt = first_alive_ancestor(tree, entry, liveness)
    if nxt is not None:
        return nxt
    try:
        return storage_node(tree, liveness)
    except NoLiveNodeError:
        return None


class RoutingTable:
    """Precomputed routing arrays for one ``(tree, liveness)`` pair.

    Next-hop structure is a pure function of identifiers and liveness
    (it never depends on replica placement), so everything a flow pass
    or placement decision needs can be computed once and reused across
    every balance round and every sweep cell at the same liveness:

    * ``vids`` — PID → VID (the Property-4 involution, so it is also
      VID → PID);
    * ``tree_parent`` / ``depth`` — tree structure per PID (liveness
      free; the root has parent ``-1``);
    * ``nearest_live_ancestor`` — the §3 augmented ``FP^r_k`` per live
      PID (``-1`` when every ancestor is dead);
    * ``next_hop`` — the fluid forwarding hop: nearest live ancestor,
      falling back to the storage node at the top of the chain (the
      storage node maps to itself; dead PIDs map to ``-1``);
    * ``eff_depth`` / ``waves`` — depth in the forwarding forest and
      the topological schedule for a vectorized flow pass: one array of
      source PIDs per level, deepest level first, each sorted by
      ascending VID (the reference pass's per-target accumulation
      order);
    * ``live_subtree`` — live-node count of every PID's subtree (the §3
      proportional-choice weight);
    * ``order`` / ``live_pids_asc`` — live PIDs sorted by VID / by PID.

    Instances are immutable once built; get them via
    :func:`routing_table`, which memoizes on the liveness content so
    repeated sweep cells at the same ``(root, liveness)`` share one
    table.
    """

    __slots__ = (
        "m", "n", "root", "home", "liveness_epoch", "vids", "live",
        "tree_parent", "depth", "nearest_live_ancestor", "next_hop",
        "eff_depth", "waves", "live_subtree", "order", "live_pids_asc",
        "max_live_vid", "_children_lists", "_eff_children", "_live_floor",
    )

    def __init__(self, tree: LookupTree, liveness: LivenessView) -> None:
        import numpy as np

        m, n = tree.m, tree.size
        self.m, self.n, self.root = m, n, tree.root
        self.liveness_epoch = getattr(liveness, "epoch", None)
        virtual = VirtualTree(m)
        vids = tree.vid_array()
        live = np.zeros(n, dtype=bool)
        live[np.fromiter(liveness.live_pids(), dtype=np.int64, count=-1)] = True
        if not live.any():
            raise NoLiveNodeError(f"no live node in the tree of P({tree.root})")
        live_by_vid = live[vids]  # involution: index by VID
        parent_by_vid = virtual.parent_array()
        depth_by_vid = virtual.depth_array()

        # Nearest live *proper* ancestor per VID, resolved root-down so
        # each wave can read its parents' already-final answers.
        nla_by_vid = np.full(n, -1, dtype=np.int64)
        by_depth = np.argsort(depth_by_vid, kind="stable")
        boundaries = np.searchsorted(depth_by_vid[by_depth], np.arange(m + 2))
        for d in range(1, m + 1):
            wave = by_depth[boundaries[d]:boundaries[d + 1]]
            if wave.size == 0:
                continue
            parents = parent_by_vid[wave]
            nla_by_vid[wave] = np.where(
                live_by_vid[parents], parents, nla_by_vid[parents]
            )

        self.vids = vids
        self.live = live
        self.tree_parent = np.where(
            parent_by_vid[vids] >= 0, parent_by_vid[vids] ^ tree.xor_key, -1
        )
        self.depth = depth_by_vid[vids]
        self.max_live_vid = int(vids[live].max())
        self.home = int(self.max_live_vid ^ tree.xor_key)

        nla_vid_of_pid = nla_by_vid[vids]
        self.nearest_live_ancestor = np.where(
            live & (nla_vid_of_pid >= 0), nla_vid_of_pid ^ tree.xor_key, -1
        )
        next_hop = self.nearest_live_ancestor.copy()
        next_hop[live & (next_hop < 0)] = self.home
        next_hop[~live] = -1
        self.next_hop = next_hop

        # Depth in the forwarding forest (home is its only root).
        eff_depth = np.full(n, -1, dtype=np.int64)
        eff_depth[self.home] = 0
        pending = live & (np.arange(n) != self.home)
        for _ in range(m + 1):
            if not pending.any():
                break
            ready = pending & (eff_depth[next_hop] >= 0)
            eff_depth[ready] = eff_depth[next_hop[ready]] + 1
            pending &= ~ready
        self.eff_depth = eff_depth

        live_pids = np.nonzero(live)[0].astype(np.int64)
        self.live_pids_asc = live_pids
        self.order = live_pids[np.argsort(vids[live_pids], kind="stable")]

        # Topological schedule: deepest forwarding level first, sources
        # ascending-VID within a level (the storage node never pushes).
        sources = self.order[self.order != self.home]
        sources = sources[np.argsort(-eff_depth[sources], kind="stable")]
        level_starts = np.nonzero(
            np.diff(eff_depth[sources], prepend=np.int64(-2))
        )[0]
        self.waves = tuple(np.split(sources, level_starts[1:]))

        # Forwarding children per target (ascending VID within each
        # group), for incremental path re-flows.
        by_target = sources[np.argsort(next_hop[sources], kind="stable")]
        targets = next_hop[by_target]
        group_starts = np.nonzero(np.diff(targets, prepend=np.int64(-2)))[0]
        self._eff_children = {
            int(targets[start]): [int(p) for p in group]
            for start, group in zip(
                group_starts, np.split(by_target, group_starts[1:])
            )
        }

        # Live-node count of every subtree: push live flags up the tree.
        counts = live_by_vid.astype(np.int64)
        for d in range(m, 0, -1):
            wave = by_depth[boundaries[d]:boundaries[d + 1]]
            if wave.size:
                np.add.at(counts, parent_by_vid[wave], counts[wave])
        self.live_subtree = counts[vids]

        self._children_lists: dict[int, tuple[int, ...]] = {}
        self._live_floor: np.ndarray | None = None

    # -- structure queries ----------------------------------------------

    def has_live_above(self, pid: int) -> bool:
        """Is there a live node with VID strictly above ``vid(pid)``?"""
        return int(self.vids[pid]) < self.max_live_vid

    def find_live(self, pid: int) -> int:
        """The paper's ``FINDLIVENODE(pid, root)`` as an O(1) lookup.

        Matches :func:`find_live_node` exactly — ``pid`` itself when
        live, else the live node with the largest VID strictly below
        ``vid(pid)`` — but reads a lazily-built prefix-maximum array
        instead of scanning the VID space per call.
        """
        if self.live[pid]:
            return int(pid)
        floor = self._live_floor
        if floor is None:
            import numpy as np

            live_by_vid = self.live[self.vids]  # involution: index by VID
            floor = np.maximum.accumulate(
                np.where(live_by_vid, np.arange(self.n, dtype=np.int64), -1)
            )
            self._live_floor = floor
        v = int(self.vids[pid])
        if v == 0 or int(floor[v - 1]) < 0:
            raise NoLiveNodeError(
                f"no live node with VID below {v} in the tree of P({self.root})"
            )
        return int(self.vids[int(floor[v - 1])])  # involution: VID -> PID

    def children_list(self, pid: int, tree: LookupTree, liveness: LivenessView) -> tuple[int, ...]:
        """§3 advanced children list of ``P(pid)``, memoized per table."""
        cached = self._children_lists.get(pid)
        if cached is None:
            cached = tuple(advanced_children_list(tree, pid, liveness))
            self._children_lists[pid] = cached
        return cached

    def eff_children(self, pid: int) -> list[int]:
        """Live PIDs whose forwarding hop is ``pid``, ascending VID."""
        return self._eff_children.get(pid, [])

    def subtree_mask(self, pid: int) -> np.ndarray:
        """Boolean PID mask of ``P(pid)``'s subtree (O(n) bit test)."""
        v = int(self.vids[pid])
        low = V.subtree_low_mask(v, self.m)
        return (self.vids & low) == (v & low)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoutingTable(root=P({self.root}), m={self.m}, "
            f"live={int(self.live.sum())}, home=P({self.home}))"
        )


_TABLE_CACHE: OrderedDict[tuple, RoutingTable] = OrderedDict()
_TABLE_CACHE_MAX = 256
_table_cache_hits = 0
_table_cache_misses = 0


def routing_table(tree: LookupTree, liveness: LivenessView) -> RoutingTable:
    """The :class:`RoutingTable` for ``(tree, liveness)``, LRU-cached.

    The cache key is the liveness *content* (see
    :func:`repro.core.liveness.cache_token`), so a mutation bumps the
    view's epoch, changes its token, and transparently invalidates the
    cached table; same-content lookups return the identical object.
    Views that cannot be fingerprinted get a fresh table every call.
    """
    global _table_cache_hits, _table_cache_misses
    token = cache_token(liveness)
    if token is None:
        return RoutingTable(tree, liveness)
    key = (tree.m, tree.root, token)
    table = _TABLE_CACHE.get(key)
    if table is not None:
        _TABLE_CACHE.move_to_end(key)
        _table_cache_hits += 1
        return table
    _table_cache_misses += 1
    table = RoutingTable(tree, liveness)
    _TABLE_CACHE[key] = table
    while len(_TABLE_CACHE) > _TABLE_CACHE_MAX:
        _TABLE_CACHE.popitem(last=False)
    return table


def routing_table_cache_clear() -> None:
    """Drop every cached table (tests and benchmark isolation)."""
    global _table_cache_hits, _table_cache_misses
    _TABLE_CACHE.clear()
    _table_cache_hits = _table_cache_misses = 0


def routing_table_cache_info() -> dict[str, int]:
    """Hit/miss/size counters for the table cache."""
    return {
        "hits": _table_cache_hits,
        "misses": _table_cache_misses,
        "size": len(_TABLE_CACHE),
        "maxsize": _TABLE_CACHE_MAX,
    }
