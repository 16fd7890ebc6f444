"""Lookup-tree objects: the virtual tree and per-root physical trees.

The pure-function VID algebra lives in :mod:`repro.core.vid`; this
module wraps it in two small classes that carry the width ``m`` (and,
for physical trees, the root PID ``r``) so call sites stop threading
those around.  Physical trees also expose PID-space versions of every
query via Property 4's XOR mapping.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import vid as V
from .bits import check_id, check_width, complement, mask, to_binary

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["VirtualTree", "LookupTree"]


@dataclass(frozen=True)
class VirtualTree:
    """The unique ``2**m``-node template binomial tree over VIDs."""

    m: int

    def __post_init__(self) -> None:
        check_width(self.m)

    @property
    def size(self) -> int:
        return 1 << self.m

    @property
    def root(self) -> int:
        return V.root_vid(self.m)

    def children(self, vid: int) -> list[int]:
        """Children of ``vid`` in descending-subtree-size order."""
        return V.children_vids(vid, self.m)

    def parent(self, vid: int) -> int:
        return V.parent_vid(vid, self.m)

    def child_count(self, vid: int) -> int:
        return V.child_count(vid, self.m)

    def subtree_size(self, vid: int) -> int:
        return V.subtree_size(vid, self.m)

    def offspring_count(self, vid: int) -> int:
        return V.offspring_count(vid, self.m)

    def in_subtree(self, w: int, vid: int) -> bool:
        return V.in_subtree(w, vid, self.m)

    def is_ancestor(self, a: int, w: int) -> bool:
        return V.is_ancestor(a, w, self.m)

    def iter_subtree(self, vid: int) -> Iterator[int]:
        return V.iter_subtree(vid, self.m)

    def ancestors(self, vid: int) -> list[int]:
        return V.ancestors(vid, self.m)

    def depth(self, vid: int) -> int:
        return V.depth(vid, self.m)

    def path_to_root(self, vid: int) -> list[int]:
        return V.path_to_root(vid, self.m)

    # -- whole-tree array queries (vectorized kernels) ------------------

    def parent_array(self) -> np.ndarray:
        """Parent VID of every VID as one int array (root maps to -1).

        Property 2 vectorized: set the leftmost 0 bit, found by
        propagating the leading-ones run.  O(m) numpy passes.
        """
        import numpy as np

        vids = np.arange(self.size, dtype=np.int64)
        runs = self.leading_ones_array()
        # The leftmost zero sits just below the leading-ones run.
        parents = vids | (1 << (self.m - 1 - runs).clip(min=0))
        parents[vids == self.root] = -1
        return parents

    def leading_ones_array(self) -> np.ndarray:
        """Length of the leading-ones run of every VID (Property 1)."""
        import numpy as np

        vids = np.arange(self.size, dtype=np.int64)
        runs = np.zeros(self.size, dtype=np.int64)
        ongoing = np.ones(self.size, dtype=bool)
        for bit in range(self.m - 1, -1, -1):
            is_one = (vids >> bit) & 1 == 1
            ongoing &= is_one
            runs += ongoing
        return runs

    def depth_array(self) -> np.ndarray:
        """Depth of every VID — its number of 0 bits, vectorized."""
        import numpy as np

        vids = np.arange(self.size, dtype=np.int64)
        ones = np.zeros(self.size, dtype=np.int64)
        for bit in range(self.m):
            ones += (vids >> bit) & 1
        return self.m - ones

    def subtree_low_mask_array(self) -> np.ndarray:
        """Per-VID mask of the bits fixed across its subtree."""
        import numpy as np

        runs = self.leading_ones_array()
        return (np.int64(1) << (self.m - runs)) - 1

    def iter_bfs(self) -> Iterator[int]:
        """Breadth-first traversal from the root (children big-first)."""
        queue = [self.root]
        while queue:
            nxt: list[int] = []
            for v in queue:
                yield v
                nxt.extend(self.children(v))
            queue = nxt

    def validate(self) -> None:
        """Exhaustively check the binomial-tree invariants (tests/debug).

        Every non-root VID must appear exactly once as a child, the
        parent/child relations must be mutually consistent, and subtree
        sizes must add up.  Cost is O(2**m * m); intended for small m.
        """
        seen: dict[int, int] = {}
        for v in range(self.size):
            for c in self.children(v):
                if c in seen:
                    raise AssertionError(
                        f"VID {to_binary(c, self.m)} has two parents: "
                        f"{to_binary(seen[c], self.m)} and {to_binary(v, self.m)}"
                    )
                seen[c] = v
                if self.parent(c) != v:
                    raise AssertionError(
                        f"parent({to_binary(c, self.m)}) != {to_binary(v, self.m)}"
                    )
        if len(seen) != self.size - 1:
            raise AssertionError(f"expected {self.size - 1} children, saw {len(seen)}")
        for v in range(self.size):
            total = 1 + sum(self.subtree_size(c) for c in self.children(v))
            if total != self.subtree_size(v):
                raise AssertionError(f"subtree sizes inconsistent at {v}")


@dataclass(frozen=True)
class LookupTree:
    """The physical lookup tree of ``P(root)`` in an ``m``-bit system.

    All structural queries delegate to the virtual tree through
    Property 4's involution ``pid <-> vid = id XOR complement(root)``.
    """

    root: int
    m: int

    def __post_init__(self) -> None:
        check_width(self.m)
        check_id(self.root, self.m)
        # vid_of/pid_of sit on the runtime's per-message routing path:
        # precompute the XOR constant once (the dataclass is frozen, so
        # it can never go stale) instead of re-deriving and re-validating
        # it on every translation.
        object.__setattr__(self, "_key", complement(self.root, self.m))

    @property
    def size(self) -> int:
        return 1 << self.m

    @property
    def xor_key(self) -> int:
        """The complement of the root — the PID↔VID XOR constant."""
        return self._key

    def vid_of(self, pid: int) -> int:
        """VID of ``P(pid)`` in this tree (Property 4)."""
        if type(pid) is not int or not 0 <= pid < (1 << self.m):
            check_id(pid, self.m)
        return pid ^ self._key

    def pid_of(self, vid: int) -> int:
        """PID of the node at ``vid`` in this tree (Property 4)."""
        if type(vid) is not int or not 0 <= vid < (1 << self.m):
            check_id(vid, self.m)
        return vid ^ self._key

    # -- PID-space structural queries ----------------------------------

    def parent(self, pid: int) -> int:
        """PID of the parent of ``P(pid)``; raises at the root."""
        return self.pid_of(V.parent_vid(self.vid_of(pid), self.m))

    def children(self, pid: int) -> list[int]:
        """Children PIDs of ``P(pid)``, largest subtree first."""
        return [self.pid_of(c) for c in V.children_vids(self.vid_of(pid), self.m)]

    def child_count(self, pid: int) -> int:
        return V.child_count(self.vid_of(pid), self.m)

    def subtree_size(self, pid: int) -> int:
        return V.subtree_size(self.vid_of(pid), self.m)

    def offspring_count(self, pid: int) -> int:
        return V.offspring_count(self.vid_of(pid), self.m)

    def in_subtree(self, pid: int, under: int) -> bool:
        """Is ``P(pid)`` in the subtree rooted at ``P(under)``?"""
        return V.in_subtree(self.vid_of(pid), self.vid_of(under), self.m)

    def is_ancestor(self, a: int, w: int) -> bool:
        return V.is_ancestor(self.vid_of(a), self.vid_of(w), self.m)

    def iter_subtree(self, pid: int) -> Iterator[int]:
        for v in V.iter_subtree(self.vid_of(pid), self.m):
            yield self.pid_of(v)

    def ancestors(self, pid: int) -> list[int]:
        """PIDs from ``P(pid)``'s parent up to the root."""
        return [self.pid_of(v) for v in V.ancestors(self.vid_of(pid), self.m)]

    def depth(self, pid: int) -> int:
        return V.depth(self.vid_of(pid), self.m)

    def path_to_root(self, pid: int) -> list[int]:
        """PIDs from ``P(pid)`` (inclusive) to the root (inclusive)."""
        return [self.pid_of(v) for v in V.path_to_root(self.vid_of(pid), self.m)]

    # -- whole-tree array queries (vectorized kernels) ------------------

    def vid_array(self) -> np.ndarray:
        """VID of every PID: ``arange(2**m) ^ xor_key`` (Property 4).

        The involution means the same array also maps VID → PID.
        """
        import numpy as np

        return np.arange(self.size, dtype=np.int64) ^ np.int64(self.xor_key)

    def render(self, max_nodes: int = 64) -> str:
        """ASCII rendering of the tree (小 systems only), for debugging."""
        if self.size > max_nodes:
            return f"<LookupTree root=P({self.root}) m={self.m}: too large to render>"
        lines: list[str] = []

        def walk(vid: int, prefix: str, is_last: bool, is_root: bool) -> None:
            pid = self.pid_of(vid)
            connector = "" if is_root else ("`-- " if is_last else "|-- ")
            lines.append(f"{prefix}{connector}P({pid}) vid={to_binary(vid, self.m)}")
            kids = V.children_vids(vid, self.m)
            child_prefix = prefix + ("" if is_root else ("    " if is_last else "|   "))
            for idx, c in enumerate(kids):
                walk(c, child_prefix, idx == len(kids) - 1, False)

        walk(mask(self.m), "", True, True)
        return "\n".join(lines)
