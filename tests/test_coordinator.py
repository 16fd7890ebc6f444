"""Sans-I/O tests of `repro.runtime.coordinator.Coordinator`.

No event loop and no sockets: the verbs are driven directly and every
frame they return is applied to plain per-pid dict stores — the least a
real node does with a frame.  If those stores track the mirror after
every step, the frames are a complete description of the mirror's
change, which is the contract both hosts rely on.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NoLiveNodeError
from repro.core.subtree import SubtreeView
from repro.net.message import Message, MessageKind
from repro.node.membership import StatusWord
from repro.runtime import RuntimeConfig, WorkloadSpec, generate_ops, replay_oplog
from repro.runtime.coordinator import ADMIN, Coordinator

M = 3


class FrameDrivenStores:
    """pid → {file → origin}, changed only by frames and by the §3
    INSERT fan-out an entry node performs itself (computed here from
    the harness's own live set, not read back from the mirror)."""

    def __init__(self, coordinator: Coordinator) -> None:
        self.coordinator = coordinator
        self.stores: dict[int, dict[str, str]] = {
            pid: {} for pid in coordinator.initial_live
        }
        self.frame_kinds: set[MessageKind] = set()

    def deliver(self, frames: list[Message]) -> None:
        for msg in frames:
            assert msg.src == ADMIN
            self.frame_kinds.add(msg.kind)
            store = self.stores[msg.dst]  # a frame never names a dead node
            if msg.kind is MessageKind.REPLICATE:
                assert msg.file not in store
                store[msg.file] = "replicated"
            elif msg.kind is MessageKind.TRANSFER:
                store[msg.file] = "inserted"
            elif msg.kind is MessageKind.DEMOTE:
                assert store[msg.file] == "inserted"
                store[msg.file] = "replicated"
            elif msg.kind is MessageKind.REMOVE:
                del store[msg.file]
            else:
                raise AssertionError(f"unexpected admin frame {msg.kind}")

    def insert_fanout(self, name: str) -> None:
        mirror = self.coordinator.mirror
        word = StatusWord(mirror.m, set(self.stores))
        tree = mirror.tree(mirror.psi(name))
        for sid in range(1 << mirror.b):
            try:
                home = SubtreeView(tree, mirror.b, sid).storage_node(word)
            except NoLiveNodeError:
                continue
            self.stores[home][name] = "inserted"

    def holders(self, name: str) -> list[int]:
        return sorted(pid for pid, store in self.stores.items() if name in store)

    def placement(self) -> dict[str, dict[int, str]]:
        return {
            name: {pid: self.stores[pid][name] for pid in self.holders(name)}
            for name in self.coordinator.mirror.catalog
        }


def mirror_placement(coordinator: Coordinator) -> dict[str, dict[int, str]]:
    mirror = coordinator.mirror
    return {
        name: {
            pid: mirror.stores[pid].get(name, count_access=False).origin.value
            for pid in mirror.holders_of(name)
        }
        for name in mirror.catalog
    }


def drive(seed: int, b: int, ops: int = 40) -> FrameDrivenStores:
    """Run a churned `generate_ops` sequence through the verbs, checking
    the frame-driven stores against the mirror after every step."""
    config = RuntimeConfig(m=M, b=b, seed=seed)
    coordinator = Coordinator(config, tuple(range(1 << M)))
    world = FrameDrivenStores(coordinator)
    spec = WorkloadSpec(m=M, b=b, seed=seed, ops=ops, churn=True)
    for step, op in enumerate(generate_ops(spec)):
        if op.kind == "insert":
            if coordinator.claim(op.name, op.payload):
                world.insert_fanout(op.name)
        elif op.kind == "update":
            coordinator.advance(op.name, op.payload)
        elif op.kind == "overload":
            holders = world.holders(op.name)
            if holders:
                holder = holders[op.seed % len(holders)]
                world.deliver(coordinator.decide(op.name, holder, op.seed))
        elif op.kind == "get":
            # Every third GET stands in for an idle-decay tick.
            replicas = [
                pid for pid in world.holders(op.name)
                if world.stores[pid][op.name] == "replicated"
            ]
            if replicas and step % 3 == 0:
                world.deliver(coordinator.remove(op.name, replicas[0]))
        elif op.kind == "join":
            coordinator.arrive(op.pid)
            world.stores[op.pid] = {}
            world.deliver(coordinator.settle(op.pid))
        elif op.kind == "leave":
            coordinator.depart(op.pid)
            del world.stores[op.pid]
            world.deliver(coordinator.reinsert(op.pid))
        else:
            assert op.kind == "crash"
            coordinator.kill(op.pid)
            del world.stores[op.pid]
            world.deliver(coordinator.recover(op.pid))
        assert world.placement() == mirror_placement(coordinator), (step, op)
    return world


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), b=st.sampled_from([0, 1]))
def test_frames_realise_the_mirror_after_every_step(seed, b):
    drive(seed, b).coordinator.mirror.check_invariants()


def test_churned_sequences_exercise_every_frame_and_record_kind():
    """The property above is not vacuous: over a few seeds the verbs
    emit all four frame kinds and every record kind they can log."""
    frames: set[MessageKind] = set()
    records: set[str] = set()
    for seed in range(8):
        for b in (0, 1):
            world = drive(seed, b)
            frames |= world.frame_kinds
            records |= {rec.kind for rec in world.coordinator.oplog}
    assert frames == {MessageKind.REPLICATE, MessageKind.TRANSFER,
                      MessageKind.DEMOTE, MessageKind.REMOVE}
    assert records == {"insert", "update", "replicate", "remove", "kill",
                       "recover", "arrive", "settle", "depart", "reinsert"}


def test_replay_equals_the_mirror_field_by_field():
    for seed in range(6):
        for b in (0, 1):
            coordinator = drive(seed, b).coordinator
            mirror = coordinator.mirror
            oracle = replay_oplog(
                coordinator.oplog, coordinator.config, coordinator.initial_live
            )
            assert set(oracle.membership.live_pids()) == set(
                mirror.membership.live_pids()
            )
            assert sorted(oracle.faults) == sorted(mirror.faults)
            assert {n: e.version for n, e in oracle.catalog.items()} == {
                n: e.version for n, e in mirror.catalog.items()
            }
            assert sorted(oracle.stores) == sorted(mirror.stores)
            for pid, store in mirror.stores.items():
                assert oracle.stores[pid].names() == store.names()
                for name in store.names():
                    ours = store.get(name, count_access=False)
                    theirs = oracle.stores[pid].get(name, count_access=False)
                    assert (theirs.payload, theirs.version, theirs.origin) == (
                        ours.payload, ours.version, ours.origin
                    )


def _one_file(b: int = 0) -> tuple[Coordinator, str, int]:
    coordinator = Coordinator(RuntimeConfig(m=M, b=b), tuple(range(1 << M)))
    assert coordinator.claim("f", "payload")
    (home,) = coordinator.mirror.holders_of("f")
    return coordinator, "f", home


def test_decide_records_the_outcome_and_returns_the_targets_copy():
    coordinator, name, home = _one_file()
    (frame,) = coordinator.decide(name, home, seed=1)
    assert frame.kind is MessageKind.REPLICATE
    assert frame.payload == {"payload": "payload"} and frame.version == 1
    rec = coordinator.oplog[-1]
    assert (rec.kind, rec.pid, rec.seed, rec.target) == ("replicate", home, 1, frame.dst)


def test_decide_on_a_dead_holder_records_nothing():
    coordinator, name, home = _one_file()
    coordinator.kill(home)
    before = list(coordinator.oplog)
    assert coordinator.decide(name, home, seed=1) == []
    assert coordinator.oplog == before


def test_decide_on_a_holder_whose_copy_is_gone_records_nothing():
    coordinator, name, home = _one_file()
    (frame,) = coordinator.decide(name, home, seed=1)
    replica = frame.dst
    assert [m.dst for m in coordinator.remove(name, replica)] == [replica]
    before = list(coordinator.oplog)
    # The replica's own store may still hold the copy (its REMOVE frame
    # is in flight); in decision order it is gone.
    assert coordinator.decide(name, replica, seed=2) == []
    assert coordinator.oplog == before


def test_remove_racing_a_kill_is_a_noop():
    coordinator, name, home = _one_file()
    (frame,) = coordinator.decide(name, home, seed=1)
    coordinator.kill(frame.dst)
    before = list(coordinator.oplog)
    assert coordinator.remove(name, frame.dst) == []
    assert coordinator.remove(name, home) == []  # never the inserted copy
    assert coordinator.oplog == before


def test_claim_refuses_a_taken_name_and_a_dead_entry():
    coordinator, name, home = _one_file()
    assert not coordinator.claim(name, "again")
    coordinator.kill(3)
    assert not coordinator.claim("g", "payload", entry=3)
    assert coordinator.claim("g", "payload", entry=home if home != 3 else 0)
    assert coordinator.advance("nope", "x") is None
    assert coordinator.advance(name, "v2") == 2
