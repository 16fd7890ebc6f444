"""Property-based tests (hypothesis) for the §4 subtree decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import subtree as subtree_module
from repro.core.children import advanced_children_list
from repro.core.errors import ConfigurationError, NoLiveNodeError
from repro.core.liveness import SetLiveness
from repro.core.subtree import (
    SubtreeView,
    SvidLiveness,
    get_next_hop,
    identity_tree,
    insert_targets,
    migration_order,
    split_vid,
    subtree_children_list,
    subtree_of_pid,
    update_starts,
)
from repro.core.tree import LookupTree
from repro.node.membership import StatusWord


@st.composite
def tree_b_liveness(draw):
    m = draw(st.integers(min_value=2, max_value=7))
    b = draw(st.integers(min_value=0, max_value=m - 1))
    r = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    n = 1 << m
    live = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
    )
    return LookupTree(r, m), b, SetLiveness(m, live)


class TestPartitionLaws:
    @given(tree_b_liveness())
    @settings(max_examples=60, deadline=None)
    def test_subtrees_partition_the_space(self, setup):
        tree, b, _ = setup
        seen: list[int] = []
        for sid in range(1 << b):
            members = SubtreeView(tree, b, sid).members()
            assert len(members) == 1 << (tree.m - b)
            seen.extend(members)
        assert sorted(seen) == list(range(1 << tree.m))

    @given(tree_b_liveness())
    @settings(max_examples=60, deadline=None)
    def test_subtree_of_pid_consistent_with_views(self, setup):
        tree, b, _ = setup
        for pid in range(1 << tree.m):
            sid = subtree_of_pid(tree, pid, b)
            assert SubtreeView(tree, b, sid).contains(pid)

    @given(tree_b_liveness())
    @settings(max_examples=60, deadline=None)
    def test_split_vid_reassembles(self, setup):
        tree, b, _ = setup
        for vid in range(1 << tree.m):
            svid, sid = split_vid(vid, tree.m, b)
            assert (svid << b) | sid == vid


class TestRoutingLaws:
    @given(tree_b_liveness())
    @settings(max_examples=60, deadline=None)
    def test_routes_confined_to_subtree(self, setup):
        tree, b, liveness = setup
        for sid in range(1 << b):
            view = SubtreeView(tree, b, sid)
            for entry in view.members():
                if not liveness.is_live(entry):
                    continue
                try:
                    route = view.resolve_route(entry, liveness)
                except NoLiveNodeError:
                    continue
                assert all(view.contains(p) for p in route)
                assert all(liveness.is_live(p) for p in route)
                assert len(route) == len(set(route))

    @given(tree_b_liveness())
    @settings(max_examples=60, deadline=None)
    def test_routes_end_at_subtree_storage_node(self, setup):
        tree, b, liveness = setup
        for sid in range(1 << b):
            view = SubtreeView(tree, b, sid)
            try:
                home = view.storage_node(liveness)
            except NoLiveNodeError:
                continue
            for entry in view.members():
                if liveness.is_live(entry):
                    assert view.resolve_route(entry, liveness)[-1] == home


class TestInsertTargetLaws:
    @given(tree_b_liveness())
    @settings(max_examples=60, deadline=None)
    def test_one_target_per_nonempty_subtree(self, setup):
        tree, b, liveness = setup
        targets = insert_targets(tree, b, liveness)
        nonempty = sum(
            1
            for sid in range(1 << b)
            if SubtreeView(tree, b, sid).live_count(liveness) > 0
        )
        assert len(targets) == nonempty
        assert len({subtree_of_pid(tree, t, b) for t in targets}) == len(targets)
        assert all(liveness.is_live(t) for t in targets)

    @given(tree_b_liveness())
    @settings(max_examples=60, deadline=None)
    def test_targets_have_max_svid_among_live(self, setup):
        tree, b, liveness = setup
        for target in insert_targets(tree, b, liveness):
            sid = subtree_of_pid(tree, target, b)
            view = SubtreeView(tree, b, sid)
            live_svids = [
                view.svid_of(p) for p in view.members() if liveness.is_live(p)
            ]
            assert view.svid_of(target) == max(live_svids)


class TestMigrationOrderLaws:
    @given(tree_b_liveness())
    @settings(max_examples=60, deadline=None)
    def test_order_is_a_permutation_starting_home(self, setup):
        tree, b, _ = setup
        for entry in range(1 << tree.m):
            order = migration_order(tree, b, entry)
            assert sorted(order) == list(range(1 << b))
            assert order[0] == subtree_of_pid(tree, entry, b)


def reference_children(tree, b, pid, liveness):
    """The un-memoized statement: §3 children list over a fresh identity
    reduction of ``pid``'s subtree, mapped back to PIDs."""
    view = SubtreeView(tree, b, subtree_of_pid(tree, pid, b))
    svids = advanced_children_list(
        identity_tree(view), view.svid_of(pid), SvidLiveness(view, liveness)
    )
    return [view.pid_of_svid(svid) for svid in svids]


@st.composite
def tree_b_word(draw):
    """``(tree, b, word)`` — the word may leave whole subtrees empty."""
    m = draw(st.integers(min_value=2, max_value=6))
    b = draw(st.integers(min_value=0, max_value=m - 1))
    r = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    live = draw(st.sets(st.integers(min_value=0, max_value=(1 << m) - 1)))
    return LookupTree(r, m), b, StatusWord(m, live)


class TestSubtreeChildrenList:
    @given(tree_b_word())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_reference_for_every_pid(self, setup):
        tree, b, word = setup
        for pid in range(1 << tree.m):  # every sid, live and dead pids
            got = subtree_children_list(tree, b, pid, word)
            assert list(got) == reference_children(tree, b, pid, word)
            assert all(
                subtree_of_pid(tree, child, b) == subtree_of_pid(tree, pid, b)
                for child in got
            )

    @given(tree_b_word(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_mutated_word_never_sees_a_stale_list(self, setup, data):
        tree, b, word = setup
        pids = st.integers(min_value=0, max_value=(1 << tree.m) - 1)
        pid = data.draw(pids, label="pid")
        for _ in range(6):
            assert list(subtree_children_list(tree, b, pid, word)) == (
                reference_children(tree, b, pid, word)
            )
            flipped = data.draw(pids, label="flipped")
            if word.is_live(flipped):
                word.register_dead(flipped)
            else:
                word.register_live(flipped)
        assert list(subtree_children_list(tree, b, pid, word)) == (
            reference_children(tree, b, pid, word)
        )

    @given(tree_b_word(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_words_share_a_result_by_content_not_identity(self, setup, data):
        tree, b, word = setup
        pid = data.draw(st.integers(0, (1 << tree.m) - 1), label="pid")
        twin = word.copy()
        assert twin is not word
        first = subtree_children_list(tree, b, pid, word)
        assert subtree_children_list(tree, b, pid, twin) is first
        children = reference_children(tree, b, pid, word)
        if children:
            # Unequal content: the twin loses the first child, whose own
            # children list is spliced in; the original must not see it.
            twin.register_dead(children[0])
            assert list(subtree_children_list(tree, b, pid, twin)) == (
                reference_children(tree, b, pid, twin)
            )
            assert children[0] not in subtree_children_list(tree, b, pid, twin)
            assert subtree_children_list(tree, b, pid, word) is first

    @given(tree_b_liveness())
    @settings(max_examples=30, deadline=None)
    def test_set_liveness_views_are_served_too(self, setup):
        tree, b, liveness = setup
        for pid in range(1 << tree.m):
            assert list(subtree_children_list(tree, b, pid, liveness)) == (
                reference_children(tree, b, pid, liveness)
            )

    def test_an_empty_subtree_has_no_children_and_raises_nothing(self):
        tree = LookupTree(5, 4)
        view = SubtreeView(tree, 2, 1)
        elsewhere = [p for p in range(16) if not view.contains(p)]
        for word in (StatusWord(4, elsewhere), StatusWord(4)):
            for pid in view.members():
                assert subtree_children_list(tree, 2, pid, word) == ()

    def test_a_view_without_a_token_is_walked_afresh(self):
        tree, bare = LookupTree(2, 3), Bare(3)
        before = subtree_children_list(tree, 1, tree.root, bare)
        bare.dead.add(before[0])
        after = subtree_children_list(tree, 1, tree.root, bare)
        assert before[0] not in after
        assert list(after) == reference_children(tree, 1, tree.root, bare)

    def test_the_memo_is_bounded(self):
        memo, cap = subtree_module._CHILDREN_MEMO, subtree_module._CHILDREN_MEMO_MAX
        tree = LookupTree(0, 4)
        for bits in range(1, cap // 16 + 3):  # > cap distinct (word, pid) keys
            word = StatusWord.from_int(4, bits)
            for pid in range(16):
                subtree_children_list(tree, 0, pid, word)
            assert len(memo) <= cap
        assert len(memo) == cap


class Bare:
    """Liveness with no ``cache_token``: nothing to key a memo on."""

    def __init__(self, m, dead=()):
        self.m = m
        self.dead = set(dead)

    def is_live(self, pid):
        return pid not in self.dead


def reference_walk(tree, b, entry, liveness):
    """Where a GET that finds no copy anywhere goes, by the scalar
    primitives: the §3 walk of the entry's own subtree, then the storage
    node of each further non-empty subtree in migration order."""
    order = migration_order(tree, b, entry)
    route = SubtreeView(tree, b, order[0]).resolve_route(entry, liveness)
    for sid in order[1:]:
        try:
            home = SubtreeView(tree, b, sid).storage_node(liveness)
        except NoLiveNodeError:
            continue
        if home != route[-1]:
            route.append(home)
    return route


def reference_hop(tree, b, pid, liveness):
    """The first step of :func:`reference_walk` from a live ``pid``."""
    walk = reference_walk(tree, b, pid, liveness)
    return walk[1] if len(walk) > 1 else None


def hop_dst(hop):
    return None if hop is None else hop[0]


@st.composite
def tree_b_word_entry(draw):
    tree, b, word = draw(tree_b_word())
    entry = draw(st.integers(min_value=0, max_value=(1 << tree.m) - 1))
    word.register_live(entry)
    return tree, b, word, entry


class TestGetNextHop:
    @given(tree_b_word_entry())
    @settings(max_examples=150, deadline=None)
    def test_iterating_visits_the_reference_walk_then_faults(self, setup):
        tree, b, word, entry = setup
        order = tuple(migration_order(tree, b, entry))
        route, pid, carried = [entry], entry, None
        while (hop := get_next_hop(tree, b, pid, carried, word)) is not None:
            pid, carried = hop
            route.append(pid)
            assert word.is_live(pid)
            if b == 0:
                assert carried is None
            else:  # what is left to search, the subtree of ``pid`` first
                assert carried == order[len(order) - len(carried):]
                assert carried[0] == subtree_of_pid(tree, pid, b)
            assert len(route) <= (1 << tree.m)
        assert route == reference_walk(tree, b, entry, word)

    @given(tree_b_word_entry())
    @settings(max_examples=60, deadline=None)
    def test_a_carried_list_arrives_as_a_list_or_a_tuple(self, setup):
        tree, b, word, entry = setup
        order = migration_order(tree, b, entry)
        assert get_next_hop(tree, b, entry, order, word) == (
            get_next_hop(tree, b, entry, tuple(order), word)
        ) == get_next_hop(tree, b, entry, None, word)

    @given(tree_b_word_entry(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_mutated_word_never_sees_a_stale_hop(self, setup, data):
        tree, b, word, pid = setup
        others = st.integers(min_value=0, max_value=(1 << tree.m) - 1).filter(
            lambda p: p != pid
        )
        for _ in range(6):
            assert hop_dst(get_next_hop(tree, b, pid, None, word)) == (
                reference_hop(tree, b, pid, word)
            )
            flipped = data.draw(others, label="flipped")
            if word.is_live(flipped):
                word.register_dead(flipped)
            else:
                word.register_live(flipped)
        assert hop_dst(get_next_hop(tree, b, pid, None, word)) == (
            reference_hop(tree, b, pid, word)
        )

    def test_a_registration_changes_the_answer(self):
        tree, word = LookupTree(6, 4), StatusWord(4, range(16))
        first, _ = get_next_hop(tree, 1, 0, None, word)
        word.register_dead(first)
        second, _ = get_next_hop(tree, 1, 0, None, word)
        assert second != first
        assert second == reference_hop(tree, 1, 0, word)
        word.register_live(first)
        assert get_next_hop(tree, 1, 0, None, word)[0] == first

    @given(tree_b_word_entry())
    @settings(max_examples=60, deadline=None)
    def test_words_share_a_hop_by_content_not_identity(self, setup):
        tree, b, word, pid = setup
        twin = word.copy()
        assert twin is not word
        first = get_next_hop(tree, b, pid, None, word)
        assert get_next_hop(tree, b, pid, None, twin) is first
        if first is not None:
            twin.register_dead(first[0])
            assert hop_dst(get_next_hop(tree, b, pid, None, twin)) == (
                reference_hop(tree, b, pid, twin)
            )
            assert get_next_hop(tree, b, pid, None, word) is first

    @given(tree_b_liveness())
    @settings(max_examples=30, deadline=None)
    def test_set_liveness_views_are_served_too(self, setup):
        tree, b, liveness = setup
        for pid in liveness.live_pids():
            assert hop_dst(get_next_hop(tree, b, pid, None, liveness)) == (
                reference_hop(tree, b, pid, liveness)
            )

    def test_a_view_without_a_token_is_walked_afresh(self):
        tree, bare = LookupTree(2, 3), Bare(3)
        before = len(subtree_module._HOP_MEMO)
        first, carried = get_next_hop(tree, 1, 0, None, bare)
        assert carried == tuple(migration_order(tree, 1, 0))
        bare.dead.add(first)
        second, _ = get_next_hop(tree, 1, 0, None, bare)
        assert second != first and second == reference_hop(tree, 1, 0, bare)
        assert len(subtree_module._HOP_MEMO) == before

    def test_the_memo_is_bounded(self, monkeypatch):
        memo = subtree_module._HOP_MEMO
        cap = min(len(memo) + 64, subtree_module._HOP_MEMO_MAX)
        monkeypatch.setattr(subtree_module, "_HOP_MEMO_MAX", cap)
        tree = LookupTree(0, 4)
        for bits in range(1, 12):  # 176 distinct (word, pid) keys > 64
            word = StatusWord.from_int(4, bits)
            for pid in range(16):
                get_next_hop(tree, 0, pid, None, word)
            assert len(memo) <= cap
        assert len(memo) == cap

    @pytest.mark.parametrize(
        "carried",
        [[4], [-1], [0, 4], ["0"], [0.0], [True], [None], [[0]], [{}], [],
         "01", 5, {0: 1.5}.values()],
        ids=repr,
    )
    def test_a_malformed_carried_list_raises_and_is_not_memoized(self, carried):
        """What a ``SubtreeView`` of a bad id raises, token or no token."""
        tree = LookupTree(9, 4)
        with pytest.raises(ConfigurationError):
            SubtreeView(tree, 2, 4)
        for liveness in (StatusWord(4, range(16)), Bare(4)):
            for b in (0, 2):
                before = dict(subtree_module._HOP_MEMO)
                with pytest.raises(ConfigurationError):
                    get_next_hop(tree, b, 3, carried, liveness)
                assert subtree_module._HOP_MEMO == before


def reference_starts(tree, b, liveness):
    """The loop the oracle, the DES and the node each used to carry."""
    starts = []
    for sid in range(1 << b):
        root = SubtreeView(tree, b, sid).root_pid
        if liveness.is_live(root):
            starts.append(root)
        else:
            starts.extend(reference_children(tree, b, root, liveness))
    return starts


class TestUpdateStarts:
    @given(tree_b_word())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_loops_it_replaces(self, setup):
        tree, b, word = setup
        starts = update_starts(tree, b, word)
        assert starts == reference_starts(tree, b, word)
        assert all(word.is_live(pid) for pid in starts)

    def test_a_dead_root_is_bypassed_and_an_empty_subtree_skipped(self):
        tree = LookupTree(5, 4)
        views = [SubtreeView(tree, 2, sid) for sid in range(4)]
        live = set(range(16)) - {views[1].root_pid} - set(views[2].members())
        word = StatusWord(4, live)
        assert update_starts(tree, 2, word) == (
            [views[0].root_pid]
            + views[1].children(views[1].root_pid)  # all live: the §2 list
            + [views[3].root_pid]
        )
        assert update_starts(tree, 2, Bare(4, set(range(16)) - live)) == (
            update_starts(tree, 2, word)
        )
