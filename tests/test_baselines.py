"""Unit tests for replication policies and the Chord comparator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    ChordRing,
    LessLogPolicy,
    LogBasedPolicy,
    RandomPolicy,
    make_policy,
)
from repro.baselines.base import PlacementContext
from repro.cluster.system import LessLogSystem
from repro.core.errors import NoLiveNodeError
from repro.core.liveness import AllLive, SetLiveness
from repro.core.tree import LookupTree


@pytest.fixture
def tree4():
    return LookupTree(4, 4)


def ctx(seed=0, rates=None):
    return PlacementContext(rng=random.Random(seed), forwarder_rates=rates or {})


class TestLessLogPolicy:
    def test_picks_biggest_child_first(self, tree4):
        policy = LessLogPolicy()
        assert policy.choose(tree4, 4, AllLive(4), {4}, ctx()) == 5
        assert policy.choose(tree4, 4, AllLive(4), {4, 5}, ctx()) == 6

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_needs_no_forwarder_rates(self, data):
        """The whole point of the paper: identical choice with no log
        data.  Two systems take the same replication steps from the
        same holders under the same rng seeds, one with arbitrary
        forwarder rates and one without; every target agrees, so an
        oplog replay needs no rates."""
        m = data.draw(st.integers(2, 6), label="m")
        b = data.draw(st.sampled_from((0, 1)), label="b")
        n = 1 << m
        dead = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1), label="dead")
        live = set(range(n)) - dead
        with_rates = LessLogSystem(m=m, b=b, live=live)
        without = LessLogSystem(m=m, b=b, live=live)
        with_rates.insert("f")
        without.insert("f")
        rates = st.dictionaries(
            st.integers(-1, n - 1), st.floats(0.0, 1e4, allow_nan=False)
        )
        for _ in range(data.draw(st.integers(1, 8), label="steps")):
            holders = without.holders_of("f")
            assert with_rates.holders_of("f") == holders
            holder = data.draw(st.sampled_from(holders), label="holder")
            seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
            got = with_rates.replicate(
                "f", holder, forwarder_rates=data.draw(rates, label="rates"),
                rng=random.Random(seed),
            )
            assert got == without.replicate("f", holder, rng=random.Random(seed))


class TestLogBasedPolicy:
    def test_follows_the_rates(self, tree4):
        policy = LogBasedPolicy()
        rates = {5: 10.0, 6: 90.0, 0: 1.0}
        assert policy.choose(tree4, 4, AllLive(4), {4}, ctx(rates=rates)) == 6

    def test_skips_existing_holders(self, tree4):
        policy = LogBasedPolicy()
        rates = {5: 10.0, 6: 90.0}
        assert policy.choose(tree4, 4, AllLive(4), {4, 6}, ctx(rates=rates)) == 5

    def test_ignores_direct_client_key(self, tree4):
        policy = LogBasedPolicy()
        rates = {-1: 500.0, 12: 2.0}
        assert policy.choose(tree4, 4, AllLive(4), {4}, ctx(rates=rates)) == 12

    def test_none_when_nothing_forwards(self, tree4):
        policy = LogBasedPolicy()
        assert policy.choose(tree4, 4, AllLive(4), {4}, ctx(rates={-1: 5.0})) is None

    def test_respects_dead_nodes(self, tree4):
        liveness = SetLiveness.all_but(4, dead=[0, 5])
        policy = LogBasedPolicy()
        # P(7) is in the advanced children list (spliced in for dead P(5)).
        rates = {7: 50.0, 6: 10.0}
        assert policy.choose(tree4, 4, liveness, {4}, ctx(rates=rates)) == 7


class TestRandomPolicy:
    def test_targets_live_non_holders(self, tree4):
        liveness = SetLiveness.all_but(4, dead=[0, 1])
        policy = RandomPolicy()
        for seed in range(30):
            target = policy.choose(tree4, 4, liveness, {4, 5}, ctx(seed))
            assert target not in {0, 1, 4, 5}
            assert liveness.is_live(target)

    def test_none_when_everything_holds(self, tree4):
        policy = RandomPolicy()
        assert policy.choose(tree4, 4, AllLive(4), set(range(16)), ctx()) is None

    def test_seeded_determinism(self, tree4):
        policy = RandomPolicy()
        a = policy.choose(tree4, 4, AllLive(4), {4}, ctx(9))
        b = policy.choose(tree4, 4, AllLive(4), {4}, ctx(9))
        assert a == b


class TestRegistry:
    def test_make_policy(self):
        assert isinstance(make_policy("lesslog"), LessLogPolicy)
        assert isinstance(make_policy("log-based"), LogBasedPolicy)
        assert isinstance(make_policy("random"), RandomPolicy)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("oracle")


class TestChordRing:
    def test_successor_wraps(self):
        ring = ChordRing(4, [2, 9, 14])
        assert ring.successor(3) == 9
        assert ring.successor(9) == 9
        assert ring.successor(15) == 2

    def test_lookup_reaches_owner(self):
        ring = ChordRing(6, list(range(0, 64, 3)))
        for start in ring.nodes:
            for key in (0, 17, 40, 63):
                path = ring.lookup_path(start, key)
                assert path[0] == start
                assert path[-1] == ring.successor(key)

    def test_lookup_hops_logarithmic(self):
        ring = ChordRing(8, list(range(256)))
        hops = [ring.lookup_hops(s, 200) for s in range(0, 256, 7)]
        assert max(hops) <= 8

    def test_lookup_from_foreign_node_raises(self):
        ring = ChordRing(4, [1, 2])
        with pytest.raises(NoLiveNodeError):
            ring.lookup_path(7, 0)

    def test_add_remove_node(self):
        ring = ChordRing(4, [1, 8])
        ring.add_node(4)
        assert ring.successor(3) == 4
        ring.remove_node(4)
        assert ring.successor(3) == 8

    def test_cannot_empty_ring(self):
        ring = ChordRing(4, [1])
        with pytest.raises(NoLiveNodeError):
            ring.remove_node(1)

    def test_empty_ring_rejected(self):
        with pytest.raises(NoLiveNodeError):
            ChordRing(4, [])

    def test_finger_table_size(self):
        ring = ChordRing(5, [0, 7, 20])
        assert len(ring.finger_table(7)) == 5
