"""Seeded inputs: everything a run draws comes from ``--seed`` through here.

The seed draws *requests* (which file, which entry node, GET or UPDATE);
the catalogue and its popularity ranks are the same for every seed, so
two seeds drive the same cluster with different traffic and their
figures are comparable.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator

from repro.runtime import WorkloadShape


def shape_of(spec: dict) -> WorkloadShape:
    return WorkloadShape(**spec)


def generator_files(names: list[str], shape: WorkloadShape, seed: int) -> list[str]:
    """Order ``names`` so a ``LoadGenerator`` seeded with ``seed`` ranks
    them hottest-first as given.

    ``LoadGenerator`` assigns popularity ranks by a seeded shuffle of the
    positions in its ``files`` list.  Asking the same public
    ``WorkloadShape.weights`` with the same seed tells which position it
    will make hottest, second hottest, ...; the names go there.
    """
    weights = shape.weights(len(names), random.Random(seed))
    by_rank = sorted(range(len(names)), key=lambda i: (-weights[i], i))
    out = [""] * len(names)
    for rank, position in enumerate(by_rank):
        out[position] = names[rank]
    return out


def rank_weights(count: int, shape: WorkloadShape) -> list[float]:
    """Popularity weight of the rank-k file, hottest first."""
    return sorted(shape.weights(count, random.Random(0)), reverse=True)


def mix_ops(
    seed: int, names: list[str], shape: WorkloadShape, nodes: int,
    update_share: float,
) -> Iterator[tuple[str, str, int]]:
    """Endless seeded stream of ``(kind, file, entry)``: ``kind`` is
    ``"get"`` or ``"update"``, ``file`` drawn by rank popularity,
    ``entry`` uniform over the nodes."""
    rng = random.Random(seed)
    cum = list(accumulate(rank_weights(len(names), shape)))
    total = cum[-1]
    while True:
        kind = "update" if rng.random() < update_share else "get"
        name = names[bisect_right(cum, rng.random() * total)]
        yield kind, name, rng.randrange(nodes)
