"""Fault-tolerant model (paper §4): the ``2**b``-way subtree split.

Reserving the last ``b`` of the ``m`` VID bits partitions every lookup
tree into ``2**b`` *independent and identical* binomial subtrees: all
nodes sharing the same low-``b`` VID pattern (the **subtree
identifier**) form one subtree, and their high ``m - b`` bits (the
**subtree VID**) obey exactly the same Properties 1--4 at width
``m - b``.  A file is inserted into all ``2**b`` subtrees, so it
survives any failure pattern that leaves at least one of its target
nodes alive.

:class:`SubtreeView` binds a physical tree, a ``b``, and one subtree
identifier, exposing the usual structural/routing queries in PID space;
module functions handle whole-file concerns (subtree membership, fault
migration order) and state each routing decision of the §3/§4 protocol
once, as a pure function of the tree, ``b``, a PID and a liveness view:
:func:`get_next_hop` (where a GET goes next), :func:`insert_targets`
(where a file's ``2**b`` copies live), :func:`update_starts` (where an
UPDATE broadcast begins) and :func:`subtree_children_list` (where it
fans out).  The oracle, the DES and the live node all call these.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import vid as V
from .bits import check_id, low_bits
from .children import advanced_children_list
from .errors import ConfigurationError, NoLiveNodeError
from .liveness import LivenessView, cache_token
from .tree import LookupTree

__all__ = [
    "check_b",
    "split_vid",
    "join_vid",
    "subtree_of_pid",
    "SubtreeView",
    "SvidLiveness",
    "identity_tree",
    "subtree_children_list",
    "insert_targets",
    "update_starts",
    "migration_order",
    "get_next_hop",
]


def check_b(b: int, m: int) -> None:
    """Validate a fault-tolerance degree ``b`` against width ``m``."""
    if not isinstance(b, int) or isinstance(b, bool):
        raise ConfigurationError(f"b must be an int, got {b!r}")
    if not 0 <= b < m:
        raise ConfigurationError(f"b must satisfy 0 <= b < m={m}, got {b}")


def split_vid(vid: int, m: int, b: int) -> tuple[int, int]:
    """Split a VID into ``(subtree_vid, subtree_id)``.

    The subtree id is the low ``b`` bits; the subtree VID is the
    remaining high ``m - b`` bits.
    """
    check_id(vid, m)
    check_b(b, m)
    return vid >> b, low_bits(vid, b)


def join_vid(svid: int, sid: int, m: int, b: int) -> int:
    """Inverse of :func:`split_vid`."""
    check_b(b, m)
    check_id(svid, m - b) if m - b >= 1 else None
    if not 0 <= sid < (1 << b):
        raise ConfigurationError(f"subtree id {sid} out of range for b={b}")
    return (svid << b) | sid


def subtree_of_pid(tree: LookupTree, pid: int, b: int) -> int:
    """Subtree identifier of ``P(pid)`` in ``tree``."""
    check_b(b, tree.m)
    return low_bits(tree.vid_of(pid), b)


@dataclass(frozen=True)
class SubtreeView:
    """One of the ``2**b`` subtrees of a physical lookup tree.

    All structural queries operate at width ``m - b`` over subtree VIDs
    and are exposed in PID space, mirroring :class:`LookupTree`.
    """

    tree: LookupTree
    b: int
    sid: int

    def __post_init__(self) -> None:
        check_b(self.b, self.tree.m)
        if not 0 <= self.sid < (1 << self.b):
            raise ConfigurationError(
                f"subtree id {self.sid} out of range for b={self.b}"
            )

    @property
    def width(self) -> int:
        """Width of the subtree-VID space: ``m - b``."""
        return self.tree.m - self.b

    @property
    def size(self) -> int:
        return 1 << self.width

    def contains(self, pid: int) -> bool:
        """Is ``P(pid)`` a member of this subtree?"""
        return subtree_of_pid(self.tree, pid, self.b) == self.sid

    def svid_of(self, pid: int) -> int:
        """Subtree VID of a member PID."""
        if not self.contains(pid):
            raise ConfigurationError(
                f"P({pid}) is not in subtree {self.sid} of the tree of "
                f"P({self.tree.root})"
            )
        return self.tree.vid_of(pid) >> self.b

    def pid_of_svid(self, svid: int) -> int:
        """PID of the member at subtree VID ``svid``."""
        return self.tree.pid_of(join_vid(svid, self.sid, self.tree.m, self.b))

    @property
    def root_pid(self) -> int:
        """PID at the subtree's all-ones subtree VID."""
        return self.pid_of_svid((1 << self.width) - 1)

    def parent(self, pid: int) -> int:
        """Parent within the subtree (Property 2 at width ``m - b``)."""
        return self.pid_of_svid(V.parent_vid(self.svid_of(pid), self.width))

    def children(self, pid: int) -> list[int]:
        """Children within the subtree, most offspring first."""
        return [
            self.pid_of_svid(c)
            for c in V.children_vids(self.svid_of(pid), self.width)
        ]

    def members(self) -> list[int]:
        """All member PIDs, descending subtree VID."""
        return [self.pid_of_svid(s) for s in range(self.size - 1, -1, -1)]

    # -- liveness-aware operations (the §3 algorithms, per subtree) ----

    def first_alive_ancestor(self, pid: int, liveness: LivenessView) -> int | None:
        """Nearest live ancestor within the subtree, or ``None``."""
        svid = self.svid_of(pid)
        top = (1 << self.width) - 1
        while svid != top:
            svid = V.parent_vid(svid, self.width)
            candidate = self.pid_of_svid(svid)
            if liveness.is_live(candidate):
                return candidate
        return None

    def find_live_node(self, start_pid: int, liveness: LivenessView) -> int:
        """The modified ``FINDLIVENODE`` of §4, over subtree VIDs."""
        if liveness.is_live(start_pid):
            return start_pid
        start = self.svid_of(start_pid)
        for svid in range(start - 1, -1, -1):
            pid = self.pid_of_svid(svid)
            if liveness.is_live(pid):
                return pid
        raise NoLiveNodeError(
            f"subtree {self.sid} of the tree of P({self.tree.root}) has no "
            f"live node below subtree VID {start}"
        )

    def storage_node(self, liveness: LivenessView) -> int:
        """Where an insert stores this subtree's copy of the file."""
        return self.find_live_node(self.root_pid, liveness)

    def resolve_route(self, entry: int, liveness: LivenessView) -> list[int]:
        """GETFILE walk confined to this subtree (entry must be a member)."""
        if not liveness.is_live(entry):
            raise NoLiveNodeError(f"entry node P({entry}) is not live")
        route = [entry]
        current = entry
        while True:
            nxt = self.first_alive_ancestor(current, liveness)
            if nxt is None:
                break
            current = nxt
            route.append(current)
        home = self.storage_node(liveness)
        if current != home:
            route.append(home)
        return route

    def live_count(self, liveness: LivenessView) -> int:
        """Number of live members."""
        return sum(1 for pid in self.members() if liveness.is_live(pid))


class SvidLiveness:
    """Liveness over a subtree's svid space (for the identity reduction).

    §4 says "all file operations described in Section 3 still work
    inside each subtree".  We realise that literally: a subtree at
    width ``m - b`` is isomorphic to a whole system whose "PIDs" are
    subtree VIDs, via :meth:`SubtreeView.identity_tree`.  This wrapper
    presents the member liveness in that space, so every §2/§3
    algorithm (children lists, ``choose_replica_target``, ...) can run
    unchanged inside one subtree.
    """

    def __init__(self, view: SubtreeView, liveness: LivenessView) -> None:
        self.view = view
        self._liveness = liveness

    @property
    def m(self) -> int:
        return self.view.width

    @property
    def epoch(self) -> int | None:
        """Mirrors the wrapped view's epoch (``None`` if it has none)."""
        return getattr(self._liveness, "epoch", None)

    def cache_token(self) -> tuple | None:
        """Content fingerprint: the subtree identity + the inner token.

        Lets identity-reduced routing tables share the same LRU cache
        as whole-tree tables; ``None`` (no caching) when the wrapped
        view cannot be fingerprinted.
        """
        inner = cache_token(self._liveness)
        if inner is None:
            return None
        tree = self.view.tree
        return ("svid", tree.root, tree.m, self.view.b, self.view.sid, inner)

    def is_live(self, svid: int) -> bool:
        return self._liveness.is_live(self.view.pid_of_svid(svid))

    def live_pids(self):
        return iter(
            svid
            for svid in range(1 << self.view.width)
            if self.is_live(svid)
        )

    def live_count(self) -> int:
        return sum(1 for _ in self.live_pids())


def identity_tree(view: SubtreeView) -> LookupTree:
    """A width-``m-b`` tree whose PID space *is* the svid space.

    Rooting at the all-ones identifier makes the XOR key zero, so
    ``pid == vid`` — results translate back through
    :meth:`SubtreeView.pid_of_svid`.
    """
    return LookupTree((1 << view.width) - 1, view.width)


_CHILDREN_MEMO: dict[tuple, tuple[int, ...]] = {}
_CHILDREN_MEMO_MAX = 4096
"""Entries kept by :func:`subtree_children_list`; the oldest goes first."""


def _remember(memo: dict, cap: int, key: tuple, value) -> None:
    """Keep ``value`` under ``key``, dropping the oldest entry at ``cap``."""
    if len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value


def subtree_children_list(
    tree: LookupTree, b: int, pid: int, liveness: LivenessView
) -> tuple[int, ...]:
    """§3 advanced children list of ``P(pid)`` inside its §4 subtree, as PIDs.

    The targets of one top-down UPDATE broadcast step (§2.2), and of the
    bypass of a dead ``P(pid)``: identity-map the subtree ``pid`` belongs
    to onto a standalone width-``m - b`` tree, take
    :func:`~repro.core.children.advanced_children_list` there, map the
    result back.  An empty subtree gives ``()``.

    Memoized on the liveness *content* (:func:`cache_token`), not on the
    view object: the oracle and every live node own a different mutable
    status word, equal words share one entry, and a ``register_*``
    changes the token, so no entry is ever stale.  A view with no token
    is walked afresh on every call.
    """
    token = cache_token(liveness)
    if token is not None:
        key = (tree.root, tree.m, b, pid, token)
        cached = _CHILDREN_MEMO.get(key)
        if cached is not None:
            return cached
    view = SubtreeView(tree, b, subtree_of_pid(tree, pid, b))
    children = tuple(
        view.pid_of_svid(svid)
        for svid in advanced_children_list(
            identity_tree(view), tree.vid_of(pid) >> b,
            SvidLiveness(view, liveness),
        )
    )
    if token is not None:
        _remember(_CHILDREN_MEMO, _CHILDREN_MEMO_MAX, key, children)
    return children


def _home(view: SubtreeView, liveness: LivenessView) -> int | None:
    """The subtree's storage node, ``None`` when no member is live."""
    try:
        return view.storage_node(liveness)
    except NoLiveNodeError:
        return None


def insert_targets(tree: LookupTree, b: int, liveness: LivenessView) -> list[int]:
    """The ``2**b`` storage PIDs for a file targeting ``tree.root``.

    One per subtree, each located with the subtree-local modified
    ``FINDLIVENODE``.  Subtrees with no live member are skipped (the
    file then has a reduced replication degree, as in the paper when
    nodes "fail simultaneously").
    """
    check_b(b, tree.m)
    homes = (_home(SubtreeView(tree, b, sid), liveness) for sid in range(1 << b))
    return [home for home in homes if home is not None]


def update_starts(tree: LookupTree, b: int, liveness: LivenessView) -> list[int]:
    """Where a top-down UPDATE broadcast enters the tree of ``tree.root``.

    §2.2/§3, per subtree: its root position when that node is live, else
    the dead root is bypassed to its children list
    (:func:`subtree_children_list`).  An empty subtree contributes
    nothing.
    """
    check_b(b, tree.m)
    top = ((1 << (tree.m - b)) - 1) << b  # every root: all-ones subtree VID
    starts: list[int] = []
    for sid in range(1 << b):
        root = tree.pid_of(top | sid)
        if liveness.is_live(root):
            starts.append(root)
        else:
            starts.extend(subtree_children_list(tree, b, root, liveness))
    return starts


def migration_order(tree: LookupTree, b: int, entry: int) -> list[int]:
    """Subtree identifiers in the order a faulting request tries them.

    §4: a request first searches the entry node's own subtree; on a
    fault it migrates "to another subtree by changing the subtree
    identifier".  We fix the deterministic order: own subtree first,
    then the remaining identifiers ascending from it (mod ``2**b``).
    """
    check_b(b, tree.m)
    own = subtree_of_pid(tree, entry, b)
    count = 1 << b
    return [(own + offset) % count for offset in range(count)]


_HOP_MEMO: dict[tuple, tuple | None] = {}
_HOP_MEMO_MAX = 1 << 15
"""Entries kept by :func:`get_next_hop`; the oldest goes first.

One liveness content has ``roots * pids`` keys at ``b = 0``: 1 024 at
``m = 5``, 16 384 in an in-process ``m = 7`` cluster, which a smaller
bound evicts just before reuse (measured: DESIGN.md §13, "The GET
hop").  About 240 bytes an entry, so at most 8 MB."""

_UNSEEN = object()


def _carried_subtrees(remaining: Sequence[int], b: int) -> tuple[int, ...]:
    """A GET's carried subtree list, checked: it arrives off the wire."""
    try:
        carried = tuple(remaining)
    except TypeError:
        carried = ()
    count = 1 << b
    if not carried or not all(type(s) is int and 0 <= s < count for s in carried):
        raise ConfigurationError(
            f"carried subtree list {remaining!r} is not a non-empty sequence "
            f"of subtree ids for b={b}"
        )
    return carried


def _walk_next_hop(
    tree: LookupTree, b: int, pid: int, order: tuple[int, ...],
    liveness: LivenessView,
) -> tuple[int, tuple[int, ...] | None] | None:
    """:func:`get_next_hop` by the scalar walks, for a checked ``order``."""
    view = SubtreeView(tree, b, order[0])
    if view.contains(pid):
        dst = view.first_alive_ancestor(pid, liveness)
        if dst is None:
            dst = _home(view, liveness)
        if dst is not None and dst != pid:
            return dst, (order if b else None)
    for offset in range(1, len(order)):
        dst = _home(SubtreeView(tree, b, order[offset]), liveness)
        if dst is not None:
            return dst, order[offset:]
    return None


def get_next_hop(
    tree: LookupTree, b: int, pid: int, remaining: Sequence[int] | None,
    liveness: LivenessView,
) -> tuple[int, tuple[int, ...] | None] | None:
    """The §3/§4 forwarding decision for a GET that ``P(pid)`` cannot serve.

    ``remaining`` lists the subtree identifiers the request may still
    search, current one first; ``None`` — a request fresh from a client —
    means :func:`migration_order` from ``pid``.  The request goes to the
    first alive ancestor of ``pid`` inside subtree ``remaining[0]``; at
    the top of that chain, to the subtree's storage node; and when
    ``pid`` *is* that storage node (the file is absent from its home),
    it migrates to the storage node of the next non-empty subtree in
    ``remaining[1:]``.  Returns ``(dst, remaining')`` — the list to carry
    on that hop, which stays ``None`` when there is only one subtree — or
    ``None`` when nothing is left to try: a fault.

    Memoized like :func:`subtree_children_list`, on the liveness
    content.  ``remaining`` arrives in a GET payload, so anything but a
    sequence of in-range subtree identifiers raises
    :class:`ConfigurationError` before the memo is consulted.
    """
    if remaining is not None:
        remaining = _carried_subtrees(remaining, b)
        if not b:
            remaining = None  # one subtree: nothing to carry
    token = cache_token(liveness)
    if token is not None:
        key = (tree.root, tree.m, b, pid, remaining, token)
        hop = _HOP_MEMO.get(key, _UNSEEN)
        if hop is not _UNSEEN:
            return hop
    order = remaining or tuple(migration_order(tree, b, pid))
    hop = _walk_next_hop(tree, b, pid, order, liveness)
    if token is not None:
        _remember(_HOP_MEMO, _HOP_MEMO_MAX, key, hop)
    return hop
