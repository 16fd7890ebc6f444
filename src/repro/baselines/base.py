"""Replication-policy interface shared by LessLog and the baselines.

A policy answers one question: *an overloaded holder ``P(k)`` must shed
load for a file in the tree of ``P(r)`` — where does the next replica
go?*  The three policies of the paper's §6 differ only here; lookup
routing is identical for all of them ("all three methods use the same
binomial lookup tree").

The :class:`PlacementContext` carries exactly the information each
policy is entitled to: LessLog gets nothing beyond tree structure (that
is the point of the paper), the log-based method gets the per-forwarder
rates a client-access log would reveal, and random gets a seeded RNG.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..core.liveness import LivenessView
from ..core.routing import RoutingTable
from ..core.tree import LookupTree

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["PlacementContext", "ReplicationPolicy"]


@dataclass
class PlacementContext:
    """Inputs available to a placement decision.

    ``forwarder_rates`` maps an immediate overlay forwarder PID to the
    request rate it pushed into the overloaded node (``-1`` keys direct
    client arrivals).  Only the log-based policy may read it.

    ``table`` optionally carries the caller's precomputed
    :class:`~repro.core.routing.RoutingTable` for the same
    ``(tree, liveness)`` pair.  Policies use it as a pure accelerator —
    every decision is identical with or without it; callers that cannot
    vouch for the pairing (subtree views, the DES driver) leave it
    ``None`` and get the scalar code paths.

    ``holder_mask`` optionally mirrors ``holders`` as a boolean array
    indexed by PID (again a pure accelerator, maintained incrementally
    by the balance loop); when present it must agree with the
    ``holders`` collection passed to :meth:`ReplicationPolicy.choose`.
    Policies must not mutate it.
    """

    rng: random.Random = field(default_factory=lambda: random.Random(0))
    forwarder_rates: Mapping[int, float] = field(default_factory=dict)
    table: RoutingTable | None = None
    holder_mask: np.ndarray | None = None


@runtime_checkable
class ReplicationPolicy(Protocol):
    """Strategy for choosing the next replica location."""

    name: str

    def choose(
        self,
        tree: LookupTree,
        k: int,
        liveness: LivenessView,
        holders: Collection[int],
        context: PlacementContext,
    ) -> int | None:
        """PID for the next replica of the overloaded ``P(k)``'s file.

        ``None`` means the policy has no eligible target left; the
        balance loop then marks ``P(k)`` saturated.
        """
        ...
