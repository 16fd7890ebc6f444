"""Hypothesis stateful testing of LessLogSystem.

A rule-based state machine drives random interleavings of every public
operation — insert, get, update, replicate, join, leave, fail — against
a model of what must be true, and checks the system-wide invariants
after every step.  This is the heaviest correctness artillery in the
suite: any ordering bug in churn migration or update propagation shows
up as a shrunken counterexample sequence.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import LessLogSystem
from repro.core.children import advanced_children_list
from repro.core.errors import FileNotFoundInSystemError, NoLiveNodeError
from repro.core.subtree import (
    SubtreeView,
    SvidLiveness,
    identity_tree,
    migration_order,
)
from repro.node.storage import FileOrigin

M = 4
N = 1 << M


def unmemoized_reachable_holders(system: LessLogSystem, name: str) -> list[int]:
    """The §2.2/§3 top-down broadcast, every children list walked afresh
    over a fresh identity reduction: what ``reachable_holders`` must
    equal whatever its memo has seen before."""
    tree = system.tree(system.catalog[name].target)
    reached: list[int] = []
    for sid in range(1 << system.b):
        view = SubtreeView(tree, system.b, sid)
        itree = identity_tree(view)
        sliveness = SvidLiveness(view, system.membership)

        def children(pid: int) -> list[int]:
            svids = advanced_children_list(itree, view.svid_of(pid), sliveness)
            return [view.pid_of_svid(svid) for svid in svids]

        root = view.root_pid
        stack = [root] if system.is_live(root) else children(root)[::-1]
        while stack:
            pid = stack.pop()
            if name in system.stores[pid]:
                reached.append(pid)
                stack.extend(children(pid)[::-1])
    return reached


def reference_locate(system: LessLogSystem, name: str, entry: int):
    """The §3/§4 GET walk by the scalar primitives — ``resolve_route`` in
    the entry's own subtree, then each further subtree's storage node —
    up to the first holder: ``(route, subtrees_tried, server)``."""
    tree = system.tree(system.catalog[name].target)
    route: list[int] = []
    tried: list[int] = []
    for sid in migration_order(tree, system.b, entry):
        view = SubtreeView(tree, system.b, sid)
        tried.append(sid)
        try:
            walk = (
                view.resolve_route(entry, system.membership) if not route
                else [view.storage_node(system.membership)]
            )
        except NoLiveNodeError:
            continue
        for pid in walk:
            route.append(pid)
            if name in system.stores[pid]:
                return route, tried, pid
    return route, tried, None


class LessLogMachine(RuleBasedStateMachine):
    system: LessLogSystem

    @initialize(b=st.sampled_from([0, 1]), dead=st.sets(st.integers(0, N - 1), max_size=4))
    def setup(self, b, dead):
        live = set(range(N)) - dead
        if not live:
            live = {0}
        self.system = LessLogSystem(m=M, b=b, live=live, seed=7)
        self.model_files: dict[str, object] = {}   # name -> latest payload
        self.model_versions: dict[str, int] = {}
        self.counter = 0

    # -- helpers ----------------------------------------------------------

    def live_nodes(self):
        return list(self.system.membership.live_pids())

    def file_names(self):
        return sorted(self.model_files)

    # -- rules -------------------------------------------------------------

    @rule()
    def insert_file(self):
        name = f"file-{self.counter}"
        self.counter += 1
        payload = f"v1-of-{name}"
        self.system.insert(name, payload=payload)
        self.model_files[name] = payload
        self.model_versions[name] = 1

    @precondition(lambda self: self.model_files)
    @rule(data=st.data())
    def get_file(self, data):
        name = data.draw(st.sampled_from(self.file_names()), label="name")
        entry = data.draw(st.sampled_from(self.live_nodes()), label="entry")
        if name in self.system.faults:
            return
        result = self.system.get(name, entry=entry)
        assert result.payload == self.model_files[name]
        assert result.version == self.model_versions[name]
        assert result.hops <= M + (1 << self.system.b)

    @precondition(lambda self: self.model_files)
    @rule(data=st.data())
    def update_file(self, data):
        name = data.draw(st.sampled_from(self.file_names()), label="name")
        if name in self.system.faults:
            return
        payload = f"v{self.model_versions[name] + 1}-of-{name}"
        result = self.system.update(name, payload=payload)
        self.model_files[name] = payload
        self.model_versions[name] = result.version
        # Every holder must now carry the new payload.
        for pid in self.system.holders_of(name):
            copy = self.system.stores[pid].get(name, count_access=False)
            assert copy.payload == payload

    @precondition(lambda self: self.model_files)
    @rule(data=st.data())
    def replicate_file(self, data):
        name = data.draw(st.sampled_from(self.file_names()), label="name")
        if name in self.system.faults:
            return
        holders = self.system.holders_of(name)
        if not holders:
            return
        source = data.draw(st.sampled_from(holders), label="source")
        target = self.system.replicate(name, overloaded=source)
        if target is not None:
            assert name in self.system.stores[target]

    @precondition(lambda self: len(list(self.system.membership.live_pids())) < N)
    @rule(data=st.data())
    def join_node(self, data):
        live = set(self.live_nodes())
        candidates = sorted(set(range(N)) - live)
        pid = data.draw(st.sampled_from(candidates), label="pid")
        self.system.join(pid)

    @precondition(lambda self: len(list(self.system.membership.live_pids())) > 2)
    @rule(data=st.data())
    def leave_node(self, data):
        pid = data.draw(st.sampled_from(self.live_nodes()), label="pid")
        self.system.leave(pid)

    @precondition(lambda self: len(list(self.system.membership.live_pids())) > 2)
    @rule(data=st.data())
    def fail_node(self, data):
        pid = data.draw(st.sampled_from(self.live_nodes()), label="pid")
        self.system.fail(pid)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def system_invariants_hold(self):
        if hasattr(self, "system"):
            self.system.check_invariants()

    @invariant()
    def broadcast_reach_matches_the_unmemoized_walk(self):
        """Checked after every step, so before and after each join,
        leave and fail: a children list remembered for a membership that
        has since changed would show here."""
        if not hasattr(self, "system"):
            return
        for name in self.file_names():
            assert self.system.reachable_holders(name) == (
                unmemoized_reachable_holders(self.system, name)
            )

    @invariant()
    def resolve_matches_the_reference_walk(self):
        """From every live entry, after every step: a next hop
        remembered for a membership that has since changed (join, leave,
        fail) would send ``resolve`` somewhere the scalar walk does not
        go."""
        if not hasattr(self, "system"):
            return
        for name in self.file_names():
            for entry in self.live_nodes():
                route, tried, server = reference_locate(self.system, name, entry)
                result = self.system.resolve(name, entry)
                if server is None:
                    assert result is None
                    continue
                assert result.server == server
                assert result.route == tuple(route)
                assert result.subtrees_tried == tuple(tried)

    @invariant()
    def non_faulted_files_are_readable(self):
        if not hasattr(self, "system") or not self.model_files:
            return
        entry = next(iter(self.system.membership.live_pids()))
        for name in self.file_names():
            if name in self.system.faults:
                continue
            try:
                result = self.system.get(name, entry=entry)
            except FileNotFoundInSystemError:
                raise AssertionError(
                    f"{name!r} is not faulted but unreadable from P({entry})"
                )
            assert result.payload == self.model_files[name]

    @invariant()
    def exactly_one_inserted_copy_per_live_subtree(self):
        if not hasattr(self, "system"):
            return
        for name in self.file_names():
            if name in self.system.faults:
                continue
            inserted = [
                pid
                for pid in self.system.holders_of(name)
                if self.system.stores[pid].get(name, count_access=False).origin
                is FileOrigin.INSERTED
            ]
            assert 1 <= len(inserted) <= (1 << self.system.b)


TestLessLogStateful = LessLogMachine.TestCase
TestLessLogStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
