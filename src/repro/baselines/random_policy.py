"""The random-replication baseline of the paper's §6.

    "The random-replication method replicates the file to a random node
    when a node is overloaded."

A random node only absorbs the traffic that happens to route *through*
it, which is usually a small subtree — hence the paper's result that
random replication needs far more replicas to reach balance.
"""

from __future__ import annotations

from collections.abc import Collection

from ..core.liveness import LivenessView
from ..core.tree import LookupTree
from .base import PlacementContext

__all__ = ["RandomPolicy"]


class RandomPolicy:
    """Replicate to a uniformly random live non-holder."""

    name = "random"

    def choose(
        self,
        tree: LookupTree,
        k: int,
        liveness: LivenessView,
        holders: Collection[int],
        context: PlacementContext,
    ) -> int | None:
        if context.table is not None:
            # Vectorized candidate filter.  Candidate order (ascending
            # PID) and rng consumption are identical to the list path:
            # both ``choice`` and ``randrange`` draw one ``_randbelow``
            # over the candidate count.
            import numpy as np

            live = context.table.live_pids_asc
            blocked = context.holder_mask
            if blocked is None:
                blocked = np.zeros(context.table.n, dtype=bool)
                blocked[list(holders)] = True
            eligible = ~blocked[live]
            if not blocked[k]:
                at = int(np.searchsorted(live, k))
                if at < live.size and live[at] == k:
                    eligible[at] = False
            candidates = live[eligible]
            if candidates.size == 0:
                return None
            return int(candidates[context.rng.randrange(candidates.size)])
        holder_set = set(holders)
        candidates_list = [
            pid for pid in liveness.live_pids() if pid not in holder_set and pid != k
        ]
        if not candidates_list:
            return None
        return context.rng.choice(candidates_list)

    def __repr__(self) -> str:
        return "RandomPolicy()"
