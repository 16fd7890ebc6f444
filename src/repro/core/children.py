"""Children lists: the paper's replica-placement target ordering.

In the basic model (§2) the *children list* of ``P(k)`` in the tree of
``P(r)`` is simply ``P(k)``'s children sorted by descending offspring
count.  The advanced model (§3) redefines it for systems with dead
identifiers:

    "We first redefine the children list of P(k) to include every live
    child node of P(k) and the children list of each dead node [...]
    sorted by the VID."

i.e. dead children are recursively *spliced* — replaced by their own
children lists — and the resulting live set is ordered by descending
VID, which by Property 3 is also descending offspring count.  The
paper's Figure 3 example is reproduced verbatim in the test suite.
"""

from __future__ import annotations

from . import vid as V
from .liveness import LivenessView
from .tree import LookupTree

__all__ = [
    "basic_children_list",
    "advanced_children_list",
    "live_subtree_size",
    "has_live_node_above",
]


def basic_children_list(tree: LookupTree, k: int) -> list[int]:
    """§2 children list of ``P(k)``: children PIDs, most offspring first."""
    return tree.children(k)


def advanced_children_list(
    tree: LookupTree, k: int, liveness: LivenessView
) -> list[int]:
    """§3 children list of ``P(k)``: dead children spliced, VID-descending.

    Returns live PIDs only.  Splicing recurses through chains of dead
    identifiers, so the list covers exactly the live "upper fringe" of
    ``P(k)``'s strict descendants.
    """
    collected: list[int] = []  # VIDs of live fringe nodes
    # An explicit work list, not a closure that calls itself: such a
    # closure is a reference cycle, garbage only the cyclic GC frees.
    dead = [tree.vid_of(k)]
    while dead:
        for child_vid in V.children_vids(dead.pop(), tree.m):
            if liveness.is_live(tree.pid_of(child_vid)):
                collected.append(child_vid)
            else:
                dead.append(child_vid)
    collected.sort(reverse=True)
    return [tree.pid_of(v) for v in collected]


def live_subtree_size(tree: LookupTree, k: int, liveness: LivenessView) -> int:
    """Number of live nodes in the subtree of ``P(k)`` (incl. itself).

    Drives the §3 proportional replication choice: the ratio of live
    offspring of the overloaded node to the rest of the live system.
    """
    return sum(
        1
        for vid in V.iter_subtree(tree.vid_of(k), tree.m)
        if liveness.is_live(tree.pid_of(vid))
    )


def has_live_node_above(tree: LookupTree, k: int, liveness: LivenessView) -> bool:
    """Is there any live node with VID strictly above ``vid(k)``?

    The §3 replication rule branches on this: when no live node sits
    above ``P(k)`` in the tree of ``P(r)``, ``P(k)`` is the node where
    the inserted file lives, and overload there may come from anywhere
    in the system rather than only from its own offspring.
    """
    for v in range(tree.vid_of(k) + 1, 1 << tree.m):
        if liveness.is_live(tree.pid_of(v)):
            return True
    return False
