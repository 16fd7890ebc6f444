"""Tests for the multi-process scale-out runtime
(``repro.runtime.scaleout``): bootstrap/address-book service, per-node
worker processes, the kill -9 crash supervisor, and the sharded load
driver with its exactly-merging measurement ledgers.

The deterministic pieces — wire codecs for the control plane, the
control link over socketpairs and socket-free transports, address
resolution, supervisor validation, the merge algebra of
``LoadReport``/``LatencyHistogram``, and the worker holder-hint cache —
run in tier-1.  Everything that forks real worker OS processes
and drives them over loopback TCP carries the ``runtime`` marker and
runs in CI's scaleout-smoke job.

The process-spawning tests are plain sync functions on purpose: the
supervisor must fork the fleet *before* the parent owns a running
event loop, so each test calls ``launch()`` first and only then enters
``asyncio.run``.
"""

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, MembershipError
from repro.net.message import Message, MessageKind
from repro.runtime import (
    ADMIN,
    ChurnEvent,
    ClientError,
    LoadGenerator,
    PeerUnreachableError,
    RuntimeClient,
    RuntimeConfig,
    verify_snapshot,
)
from repro.runtime.addressing import dial_peer
from repro.runtime.client import LatencyHistogram, LoadReport
from repro.runtime.node import NodeServer
from repro.runtime.scaleout import (
    ControlLink,
    FleetLifecycleError,
    ScaleoutEndpoint,
    ScaleoutSupervisor,
    ShardedLoadDriver,
    config_from_wire,
    config_to_wire,
    plan_kills,
    run_fleet,
)
from repro.runtime.scaleout.bootstrap import BootstrapServer, _Peer
from repro.runtime.scaleout.worker import (
    WorkerProcess,
    WorkerRuntime,
    _BoundedCache,
    _book_from_wire,
)
from repro.runtime.wire import (
    FRAME_OVERLOAD,
    HEADER,
    MAGIC,
    WIRE_VERSION,
    WIRE_VERSION_BINARY,
    FrameConnection,
    decode_message,
    encode_message,
)

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# control-plane codecs and validation (deterministic, tier-1)
# ---------------------------------------------------------------------------


class TestControlCodecs:
    def test_config_round_trips_through_json_profile(self):
        config = RuntimeConfig(
            m=5, b=2, seed=11, tcp=True, capacity=12.5, window=0.5,
            cooldown=0.3, inflight_limit=32, service_time=0.004,
            drain_timeout=9.0, batch_max=4, idle_timeout=2.5, inbox_limit=64,
            shed_policy="aggressive", queue_policy="priority",
            victim_policy="fifo", slo_budget=0.05,
        )
        assert all(
            getattr(config, f.name) != f.default
            for f in fields(RuntimeConfig) if f.default is not MISSING
        )
        wired = config_to_wire(config)
        assert wired == json.loads(json.dumps(wired))
        assert decode_message(_control_frame(wired)).payload == wired
        back = config_from_wire(wired)
        assert back == config

    def test_the_codec_is_a_constant_not_a_knob(self):
        """What ``bench/layers.py`` reads off a config: the one wire
        version, fixed lane on — class constants, never fields."""
        config = RuntimeConfig(m=3)
        assert config.wire_version == WIRE_VERSION == WIRE_VERSION_BINARY
        assert config.fixed_frames is True
        assert "wire_version" not in config_to_wire(config)
        with pytest.raises(TypeError):
            RuntimeConfig(m=3, wire_version=1)

    def test_infinite_fields_survive_the_json_sentinel(self):
        config = RuntimeConfig(m=3, b=1, slo_budget=float("inf"),
                               idle_timeout=float("inf"))
        back = config_from_wire(config_to_wire(config))
        assert back.slo_budget == float("inf")
        assert back.idle_timeout == float("inf")

    def test_book_from_wire_restores_int_pids_and_address_tuples(self):
        book = _book_from_wire({"0": ["127.0.0.1", 4000], "7": ["::1", 4001]})
        assert book == {0: ("127.0.0.1", 4000), 7: ("::1", 4001)}


class _Transport:
    """A socket-free transport: keeps each write, and reports its close
    to the protocol as a socket transport does."""

    def __init__(self, protocol):
        self.writes: list[bytes] = []
        self.closed = False
        self.protocol = protocol
        protocol.connection_made(self)

    def set_write_buffer_limits(self, high=None, low=None):
        pass

    def write(self, data):
        self.writes.append(bytes(data))

    def close(self):
        if not self.closed:
            self.closed = True
            self.protocol.connection_lost(None)


def _control_frame(body) -> bytes:
    return encode_message(
        Message(kind=MessageKind.CONTROL, src=ADMIN, dst=ADMIN, payload=body)
    )


def _recording(ops: list, gates: dict | None = None):
    """A control handler that logs each op, waits at its gate, if any,
    and answers with the op and its ``n``."""

    async def handle(op, body):
        ops.append(op)
        if gates and op in gates:
            await gates[op].wait()
        return {"op": op, "n": body.get("n")}

    return handle


async def _pair(handler_a, handler_b) -> tuple[ControlLink, ControlLink]:
    """Two control links joined by a socketpair."""
    loop = asyncio.get_running_loop()
    links = (ControlLink(handler_a, "a"), ControlLink(handler_b, "b"))
    for link, sock in zip(links, socket.socketpair()):
        sock.setblocking(False)
        await loop.create_connection(lambda link=link: link.conn, sock=sock)
    return links


async def _until(predicate, timeout: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.001)


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


class TestControlLink:
    def test_replies_are_matched_by_rid_in_any_order(self):
        async def run():
            link = ControlLink(_recording([]), "a")
            transport = _Transport(link.conn)
            calls = [asyncio.ensure_future(link.call("echo", n=n)) for n in range(3)]
            await _until(lambda: len(transport.writes) == 3)
            requests = []
            probe = FrameConnection(
                lambda _c, frames, _e: requests.extend(m.payload for m in frames)
            )
            _Transport(probe)
            probe.data_received(b"".join(transport.writes))
            for body in reversed(requests):
                link.conn.data_received(
                    _control_frame({"re": body["rid"], "n": body["n"] * 10})
                )
            replies = await asyncio.gather(*calls)
            await link.close()
            return [reply["n"] for reply in replies]

        assert _run(run()) == [0, 10, 20]

    def test_casts_then_a_call_arrive_and_run_in_order(self):
        async def run():
            ops: list[str] = []
            a = ControlLink(_recording([]), "a")
            b = ControlLink(_recording(ops), "b")
            ta, tb = _Transport(a.conn), _Transport(b.conn)

            async def carry():  # the wire: every write, in order, each way
                await _until(lambda: len(ta.writes) == 3)
                for chunk in ta.writes:
                    b.conn.data_received(chunk)
                await _until(lambda: tb.writes)
                a.conn.data_received(tb.writes[0])

            carrier = asyncio.ensure_future(carry())
            a.cast("first", n=1)
            a.cast("second", n=2)
            after_casts = len(ta.writes)
            reply = await a.call("third", n=3)
            await carrier
            writes = list(ta.writes)
            await a.close()
            await b.close()
            return after_casts, writes, ops, reply

        after_casts, writes, ops, reply = _run(run())
        assert after_casts == 2 and len(writes) == 3  # one write per body
        assert ops == ["first", "second", "third"]
        assert reply["op"] == "third" and reply["n"] == 3

    def test_a_blocked_handler_does_not_hold_up_a_later_call(self):
        async def run():
            gate = asyncio.Event()
            a, b = await _pair(_recording([]), _recording([], {"block": gate}))
            blocked = asyncio.ensure_future(a.call("block", n=1))
            pong = await asyncio.wait_for(a.call("ping", n=2), 5.0)
            overtaken = not blocked.done()
            gate.set()
            late = await asyncio.wait_for(blocked, 5.0)
            await a.close()
            await b.close()
            return pong, overtaken, late

        pong, overtaken, late = _run(run())
        assert pong["n"] == 2 and overtaken and late["n"] == 1

    @pytest.mark.parametrize("paused", [False, True])
    def test_close_delivers_casts_still_queued(self, paused):
        async def run():
            ops: list[str] = []
            a, b = await _pair(_recording([]), _recording(ops))
            if paused:
                a.conn.pause_writing()
                a.cast("x")
                a.cast("y")
                await asyncio.sleep(0)  # paused: nothing is written
                assert a.conn.encoder.pending == 2
            else:
                a.cast("x")
                a.cast("y")
            await a.close()
            await asyncio.wait_for(b.closed.wait(), 5.0)
            await _until(lambda: len(ops) == 2)
            await b.close()
            return ops

        assert _run(run()) == ["x", "y"]

    def test_peer_eof_fails_pending_calls_and_sets_closed(self):
        async def run():
            seen: list[str] = []
            gate = asyncio.Event()
            a, b = await _pair(_recording([]), _recording(seen, {"block": gate}))
            pending = asyncio.ensure_future(a.call("block"))
            await _until(lambda: seen)
            await b.close()
            with pytest.raises(ConnectionError, match="peer closed the connection"):
                await asyncio.wait_for(pending, 5.0)
            assert a.closed.is_set() and a.reason == "peer closed the connection"
            with pytest.raises(ConnectionError, match="peer closed"):
                await a.call("ping")
            a.cast("dropped")  # the peer is gone: no error
            await a.close()

        _run(run())

    def test_a_v2_frame_closes_the_link_and_says_why(self):
        """A well-formed data-plane frame — a fixed-lane OVERLOAD, whose
        payload is a dict too — is not a control body: it runs nothing
        and breaks the link."""
        async def run():
            ops: list[str] = []
            link = ControlLink(_recording(ops), "a")
            transport = _Transport(link.conn)
            pending = asyncio.ensure_future(link.call("ping"))
            await asyncio.sleep(0)
            frame = encode_message(
                Message(kind=MessageKind.OVERLOAD, src=3, dst=ADMIN, file="f",
                        payload={"shed_by": 3, "redirect": 5})
            )
            assert frame[3] == FRAME_OVERLOAD
            link.conn.data_received(frame)
            with pytest.raises(ConnectionError, match="undecodable control body"):
                await asyncio.wait_for(pending, 5.0)
            assert link.conn.error is None
            assert link.reason == "undecodable control body"
            assert transport.closed and ops == []
            await link.close()

        _run(run())

    def test_a_raising_cast_handler_leaves_a_traceback(self):
        """A cast has nobody to answer, so a handler that raises on one
        is recorded; a call still gets its error reply."""
        async def boom(op, body):
            raise LookupError(f"no such thing: {op}")

        async def run():
            link = ControlLink(boom, "a")
            transport = _Transport(link.conn)
            link.conn.data_received(_control_frame({"op": "cast-op"}))
            await _until(lambda: link.handler_tracebacks)
            link.conn.data_received(_control_frame({"op": "call-op", "rid": 7}))
            await _until(lambda: transport.writes)
            probe_bodies = []
            probe = FrameConnection(
                lambda _c, frames, _e: probe_bodies.extend(m.payload for m in frames)
            )
            _Transport(probe)
            probe.data_received(transport.writes[0])
            await link.close()
            return list(link.handler_tracebacks), probe_bodies

        tracebacks, replies = _run(run())
        assert len(tracebacks) == 2
        assert "LookupError: no such thing: cast-op" in tracebacks[0]
        assert replies == [{"re": 7, "error": "LookupError: no such thing: call-op"}]

    def test_a_worker_deliver_that_fails_to_decode_is_a_handler_error(self):
        """The worker routes its link's errors through
        ``NodeHost.note_handler_error``: counted, traceback kept, and
        shipped in ``snapshot_body``."""
        worker = WorkerProcess()
        worker.runtime = runtime = _bare_runtime(pid=1)

        async def run():
            link = ControlLink(worker._handle, "worker")
            link.on_error = partial(runtime.note_handler_error, 1)
            _Transport(link.conn)
            link.conn.data_received(
                _control_frame({"op": "deliver", "msg": b"not a frame"})
            )
            await _until(lambda: runtime.handler_tracebacks)
            await link.close()
            return link

        link = _run(run())
        assert not link.handler_tracebacks
        assert runtime.counters["handler_errors"] == 1
        body = runtime.snapshot_body()
        assert body["counters"]["handler_errors"] == 1
        [(pid, text)] = body["handler_tracebacks"]
        assert pid == 1
        last = text.strip().splitlines()[-1]
        assert last.endswith("FrameError: bad magic b'no' (expected b'LL')")

    def test_a_bootstrap_handler_error_reaches_the_scaleout_stats(self):
        async def run():
            server = BootstrapServer(RuntimeConfig(m=3, b=1), n_nodes=8)
            conn = server._accept()
            _Transport(conn)
            conn.data_received(_control_frame({"op": "catalog_claim"}))
            await _until(lambda: server._link_errors)
            _snapshot, stats = await server.collect_snapshot()
            await server.shutdown()
            return stats

        stats = _run(run())
        assert stats.counters["handler_errors"] == 1
        [(pid, text)] = stats.handler_tracebacks
        assert pid == ADMIN
        assert text.strip().splitlines()[-1] == "KeyError: 'name'"

    def test_fields_of_every_wire_type_arrive_unchanged(self):
        """A ``call``'s fields cross the link exactly: a dict shaped
        like a bytes tag stays a dict, bytes stay bytes, a big int and
        nested lists keep their value."""
        sent = {
            "tagged": {"__b64__": "aGk="},
            "blob": b"\x00hi\xff",
            "big": -(1 << 100),
            "nested": [[1, [2.5, None]], [], [True, "s", {"k": [b"x"]}]],
        }
        seen: list[dict] = []

        async def keep(op, body):
            seen.append(body)
            return {"echo": {k: body[k] for k in sent}}

        async def run():
            a, b = await _pair(_recording([]), keep)
            reply = await a.call("carry", **sent)
            await a.close()
            await b.close()
            return reply

        reply = _run(run())
        (body,) = seen
        assert {k: body[k] for k in sent} == sent
        assert reply["echo"] == sent

    def test_an_admin_deliver_reaches_the_worker_unchanged(self):
        """The bootstrap's ``deliver`` cast carries the admin frame's own
        bytes; the worker decodes them and hands ``deliver_local`` the
        message that was sent, bytes payload included."""
        msg = Message(kind=MessageKind.REPLICATE, src=ADMIN, dst=1,
                      file="blob.dat", payload={"payload": b"\x00\xffdata"},
                      version=3)
        worker = WorkerProcess()
        worker.runtime = _bare_runtime(pid=1)
        delivered: list[Message] = []
        worker.runtime.node.deliver_local = delivered.append

        async def run():
            server = BootstrapServer(RuntimeConfig(m=3, b=1), n_nodes=8)
            a, b = await _pair(_recording([]), worker._handle)
            server._workers[1] = _Peer(link=a, kind="worker", pid=1)
            server._deliver(msg)
            await _until(lambda: delivered)
            await a.close()
            await b.close()

        _run(run())
        assert delivered == [msg]
        assert delivered[0].payload["payload"] == b"\x00\xffdata"
        assert worker.runtime.recv_from == {ADMIN: 1}

    @pytest.mark.parametrize("blob, reason", [
        (HEADER.pack(MAGIC, 1, 0, 5) + b"{nope",
         "FrameError: unsupported wire version 1"),
        (HEADER.pack(MAGIC, WIRE_VERSION, 0, 5) + b"{nope",
         "undecodable control body"),
        (_control_frame("not a dict"), "undecodable control body"),
        (b"XX" + bytes(6), "FrameError: bad magic"),
    ])
    def test_a_broken_frame_closes_the_link_and_says_why(self, blob, reason):
        async def run():
            ops: list[str] = []
            link = ControlLink(_recording(ops), "a")
            transport = _Transport(link.conn)
            pending = asyncio.ensure_future(link.call("ping"))
            await asyncio.sleep(0)
            link.conn.data_received(blob)
            with pytest.raises(ConnectionError, match=reason):
                await asyncio.wait_for(pending, 5.0)
            assert link.closed.is_set() and link.reason.startswith(reason)
            assert transport.closed and ops == []
            await link.close()

        _run(run())


# ---------------------------------------------------------------------------
# sharded-measurement merge algebra (deterministic, tier-1)
# ---------------------------------------------------------------------------

_COUNTER_FIELDS = LoadReport._COUNTERS

shard_samples = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=5.0,
                       allow_nan=False, allow_infinity=False),
             max_size=40),
    min_size=1, max_size=4,
)


class TestMergeExactness:
    @given(shards=shard_samples)
    @settings(max_examples=60, deadline=None)
    def test_histogram_merge_equals_concatenated_recording(self, shards):
        merged = LatencyHistogram()
        for samples in shards:
            part = LatencyHistogram()
            for s in samples:
                part.record(s)
            merged.merge(part)
        whole = LatencyHistogram()
        for s in (x for samples in shards for x in samples):
            whole.record(s)
        assert merged.counts == whole.counts
        assert merged.total == whole.total == sum(map(len, shards))

    @given(shards=shard_samples, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_report_merge_is_bit_identical_to_concatenated_samples(
        self, shards, data
    ):
        """Merging K shard reports == one report over the concatenated
        samples: same counters, same histogram, same wire form — the
        exactness claim the sharded driver's verdicts rest on."""
        counter_val = st.integers(min_value=0, max_value=50)
        parts: list[LoadReport] = []
        for samples in shards:
            part = LoadReport(duration=data.draw(
                st.floats(min_value=0.1, max_value=2.0, allow_nan=False)
            ))
            for field_name in _COUNTER_FIELDS:
                setattr(part, field_name, data.draw(counter_val))
            part.timeout_min_s = data.draw(
                st.none() | st.floats(min_value=0.5, max_value=10.0)
            )
            for s in samples:
                part.latencies.append(s)
                part.hist.record(s)
            parts.append(part)

        merged = LoadReport()
        for part in parts:
            merged.merge(part)

        whole = LoadReport(
            duration=max(p.duration for p in parts),
            timeout_min_s=min(
                (p.timeout_min_s for p in parts if p.timeout_min_s is not None),
                default=None,
            ),
        )
        for field_name in _COUNTER_FIELDS:
            setattr(whole, field_name, sum(getattr(p, field_name) for p in parts))
        for part in parts:
            for s in part.latencies:
                whole.latencies.append(s)
                whole.hist.record(s)

        assert merged.to_wire() == whole.to_wire()
        assert merged.p50 == whole.p50 and merged.p99 == whole.p99

    @given(
        shards=shard_samples,
        shortest=st.none() | st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_wire_round_trip_is_exact_through_json(self, shards, shortest):
        """`to_wire` -> JSON text -> `from_wire` loses nothing: floats
        round-trip doubles exactly, so a shard's report survives its
        result pipe bit-for-bit.  No timeout, no `timeout_min_s` key."""
        report = LoadReport(duration=1.0, timeout_min_s=shortest)
        for samples in shards:
            for s in samples:
                report.latencies.append(s)
                report.hist.record(s)
        report.requests = report.completed = len(report.latencies)
        report.served_by_node = {1: 4, 6: 2}
        assert ("timeout_min_s" in report.to_wire()) == (shortest is not None)
        back = LoadReport.from_wire(json.loads(json.dumps(report.to_wire())))
        assert back.to_wire() == report.to_wire()
        assert back.latencies == report.latencies
        assert back.served_by_node == report.served_by_node


class TestShardedDriverValidation:
    def test_rejects_degenerate_parameters(self):
        good = dict(host="h", port=1, files=["f"], shards=2,
                    rps=10.0, duration=1.0)
        ShardedLoadDriver(**good)
        for bad in (
            {**good, "shards": 0},
            {**good, "rps": 0.0},
            {**good, "duration": -1.0},
            {**good, "files": []},
        ):
            with pytest.raises(ConfigurationError):
                ShardedLoadDriver(**bad)

    def test_entry_shard_validation_in_load_generator(self):
        class _Stub:
            nodes = frozenset({0, 1})
            epoch = 0

        for bad in ((0, 0), (2, 2), (-1, 3)):
            with pytest.raises(ConfigurationError):
                LoadGenerator(_Stub(), ["f"], entry_shard=bad)


# ---------------------------------------------------------------------------
# worker holder-hint cache (deterministic, tier-1)
# ---------------------------------------------------------------------------


def _bare_runtime(pid: int = 1, n: int = 8) -> WorkerRuntime:
    config = RuntimeConfig(m=3, b=1, tcp=True)
    runtime = WorkerRuntime(config, pid=pid, live=list(range(n)), link=None)
    runtime.node = NodeServer(pid, runtime)  # type: ignore[arg-type]
    return runtime


class TestHolderHintCache:
    def test_cached_live_holder_becomes_the_redirect_hint_not_minus_one(self):
        """The regression the cache exists for: a shed at a worker whose
        cache knows a live alternative holder must emit that pid — the
        old own-store-only view said ``holders() == {}`` and handed the
        client ``-1`` (a blind reroute) on every shed."""
        runtime = _bare_runtime()
        node = runtime.node
        assert node._redirect_hint("hot") == -1  # cold cache: the old world
        runtime.note_holders("hot", [3, 5])
        assert runtime.holders("hot") == {3, 5}
        for _ in range(16):
            assert node._redirect_hint("hot") in (3, 5)

    def test_stale_cached_holder_is_filtered_by_the_status_word(self):
        """A cached holder this node knows is dead is never handed out
        (`_redirect_hint` intersects with the word); one the node does
        NOT know is dead flows to the client, whose FINDLIVENODE
        reroute — gated by the stale-redirect invariant — absorbs it."""
        runtime = _bare_runtime()
        node = runtime.node
        runtime.note_holders("f", [4])
        node.word.register_dead(4)
        assert node._redirect_hint("f") == -1

    def test_book_push_eviction_scrubs_cache_and_keeps_word(self):
        runtime = _bare_runtime()
        runtime.note_holders("a", [2, 6])
        runtime.note_holders("b", [6])
        runtime.note_evicted({6})
        assert runtime.holders("a") == {2}
        assert runtime.holders("b") == set()
        # Silent-kill discipline: eviction never flips the status word.
        assert runtime.word.is_live(6)

    def test_own_store_and_malformed_deltas(self):
        from repro.node.storage import FileOrigin

        runtime = _bare_runtime(pid=2)
        runtime.node.store.store("mine", "p", 1, FileOrigin.INSERTED)
        assert runtime.holders("mine") == {2}
        runtime.note_holders("mine", ["not-a-pid", object()])  # ignored
        assert runtime.holders("mine") == {2}
        runtime.note_holders("mine", [])  # empty delta clears the entry
        assert runtime.holders("mine") == {2}

    def test_bounded_cache_evicts_oldest_at_capacity(self):
        cache = _BoundedCache(3)
        for k in range(3):
            cache[k] = k
        cache[3] = 3  # evicts 0, the oldest
        assert set(cache) == {1, 2, 3}
        cache[1] = 99  # update in place: no eviction
        assert set(cache) == {1, 2, 3} and cache[1] == 99
        with pytest.raises(ValueError):
            _BoundedCache(0)


class _DecideLink:
    """Records each control call; every ``decide`` picks P(5)."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, dict]] = []

    async def call(self, op: str, **fields):
        self.calls.append((op, fields))
        return {"target": 5, "holders": [1, 5]}


class TestDecideBody:
    def test_decide_carries_only_name_holder_and_seed(self):
        """A holder's placement decision ships no access log: the
        ``decide`` control call carries the file, the deciding holder
        and its rng seed, and nothing else."""
        from repro.node.storage import FileOrigin

        runtime = _bare_runtime(pid=1)
        runtime.link = link = _DecideLink()
        node = runtime.node
        node.store.store("hot", "p", 1, FileOrigin.INSERTED)
        assert _run(node._replicate_decision("hot", seed=7)) == 5
        assert link.calls == [
            ("decide", {"name": "hot", "holder": 1, "seed": 7})
        ]
        assert runtime.holders("hot") == {1, 5}


class TestAddressing:
    def test_missing_book_entry_is_the_dead_peer_signal(self):
        with pytest.raises(PeerUnreachableError, match=r"P\(9\)"):
            asyncio.run(dial_peer(None, 9, FrameConnection))

    def test_refused_connection_is_the_dead_peer_signal(self):
        import socket

        sock = socket.create_server(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nobody listens here any more
        with pytest.raises(PeerUnreachableError, match=rf"P\(4\).*failed"):
            asyncio.run(dial_peer(("127.0.0.1", port), 4, FrameConnection))


class TestSupervisorValidation:
    def test_unknown_spawn_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="fork"):
            ScaleoutSupervisor(RuntimeConfig(m=3, b=1), n_nodes=4, mode="thread")

    def test_kill_of_unbooted_node_rejected(self):
        supervisor = ScaleoutSupervisor(RuntimeConfig(m=3, b=1), n_nodes=4)
        with pytest.raises(MembershipError):
            asyncio.run(supervisor.kill(2))


def _cli_victims(n_nodes: int, seed: int, min_live: int, kills: int) -> list[int]:
    """The victims ``lesslog loadgen --churn-kills`` drew before
    ``run_fleet``: one ``choice`` per kill over the live workers,
    stopping at ``min_live``."""
    rng = random.Random(seed)
    live = list(range(n_nodes))
    victims = []
    for _ in range(kills):
        if len(live) <= min_live:
            break
        victim = rng.choice(live)
        live.remove(victim)
        victims.append(victim)
    return victims


class TestPlanKills:
    @pytest.mark.parametrize("n_nodes", [4, 6, 12])
    @pytest.mark.parametrize("min_live", [1, 3])
    @pytest.mark.parametrize("kills", [1, 2, 4])
    def test_draws_what_the_cli_loop_drew(self, n_nodes, min_live, kills):
        schedule = [ChurnEvent(at=0.1 * (i + 1), action="kill")
                    for i in range(kills)]
        for seed in range(12):
            plan = plan_kills(range(n_nodes), schedule, seed, min_live)
            assert len(plan) == kills
            drawn = [v for v in plan if v is not None]
            assert drawn == _cli_victims(n_nodes, seed, min_live, kills)
            assert plan == drawn + [None] * (kills - len(drawn))

    def test_the_bench_draw_is_one_choice_over_the_fleet(self):
        for seed in range(20):
            assert plan_kills(range(12), [ChurnEvent(0.6, "kill")], seed) == [
                random.Random(seed).choice(range(12))
            ]

    def test_schedule_order_is_time_order_and_pins_take_no_draw(self):
        schedule = [ChurnEvent(0.3, "kill"), ChurnEvent(0.1, "kill", pid=2),
                    ChurnEvent(0.2, "kill")]
        rng = random.Random(5)
        first = rng.choice([0, 1, 3, 4, 5])
        second = rng.choice([v for v in [0, 1, 3, 4, 5] if v != first])
        assert plan_kills(range(6), schedule, 5) == [2, first, second]

    @pytest.mark.parametrize("action", ["crash", "join", "leave"])
    def test_only_kill_is_accepted(self, action):
        with pytest.raises(ConfigurationError, match="kill -9 only"):
            plan_kills(range(4), [ChurnEvent(0.1, action)], 0)
        # run_fleet refuses it before it forks anything.
        with pytest.raises(ConfigurationError, match="kill -9 only"):
            run_fleet(RuntimeConfig(m=2, tcp=True), 4, ["f"], rps=10,
                      duration=0.1, kills=[ChurnEvent(0.1, action)])

    def test_a_sharded_closed_loop_is_refused_before_any_fork(self):
        with pytest.raises(ConfigurationError, match="closed loop"):
            run_fleet(RuntimeConfig(m=2, tcp=True), 4, ["f"], rps=10,
                      duration=0.1, closed_loop=4, client_shards=2)


# ---------------------------------------------------------------------------
# real worker processes over loopback TCP (runtime marker)
# ---------------------------------------------------------------------------

def _fleet_config(**overrides) -> RuntimeConfig:
    base = dict(m=3, b=1, seed=5, tcp=True, capacity=40.0,
                service_time=0.002, cooldown=0.05)
    base.update(overrides)
    return RuntimeConfig(**base)


@pytest.mark.runtime
class TestWorkerLifecycle:
    def test_clean_boot_serve_sigterm_drain_ships_goodbye_snapshots(self):
        """Boot -> serve -> SIGTERM drain -> goodbye: every worker ships
        its final store/word snapshot, and the central snapshot built
        from worker stores replays conformant."""
        run = run_fleet(_fleet_config(), 8, [f"life-{i}" for i in range(5)],
                        rps=60, duration=0.8, seed=3)
        report, snapshot, stats = run.report, run.snapshot, run.stats
        assert report.conserved and report.completed > 0
        conformance = verify_snapshot(snapshot)
        assert conformance.ok, conformance.mismatches
        # Every worker terminated cleanly and shipped a goodbye body.
        assert sorted(run.goodbyes) == list(range(8))
        for pid, body in run.goodbyes.items():
            assert {"store", "word", "served"} <= set(body)
            assert pid in body["word"]
        assert sum(stats.served_by_node.values()) == report.completed

    def test_worker_subcommand_spawn_mode_boots_and_drains(self):
        """Subprocess spawn exercises the ``lesslog worker`` entrypoint
        for every node in the fleet."""
        config = _fleet_config()
        supervisor = ScaleoutSupervisor(config, n_nodes=6, mode="subprocess")
        host, port = supervisor.launch()

        async def drive() -> object:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            client = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
            await client.insert("sub-0", payload="p")
            got = await client.get("sub-0")
            await client.close()
            await endpoint.quiesce()
            await endpoint.close()
            await supervisor.shutdown()
            return got

        got = asyncio.run(drive())
        assert got.payload == "p"
        assert sorted(supervisor.bootstrap.goodbyes) == list(range(6))


@pytest.mark.runtime
class TestFleetInsert:
    def test_duplicate_insert_is_refused_by_the_claim(self):
        """A second INSERT of a name, through another worker, is the
        client's ``already inserted`` error: the bootstrap's one claim
        refuses it, and the oplog holds one insert."""
        supervisor = ScaleoutSupervisor(RuntimeConfig(m=2, tcp=True), mode="fork")
        host, port = supervisor.launch()

        async def drive() -> tuple:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            first = await RuntimeClient(endpoint, 0).connect()
            second = await RuntimeClient(endpoint, 3).connect()
            await first.insert("once", payload="v1")
            with pytest.raises(ClientError, match="already inserted"):
                await second.insert("once", payload="v2")
            got = await second.get("once")
            await first.close()
            await second.close()
            await endpoint.quiesce()
            snapshot, _stats = await supervisor.bootstrap.collect_snapshot()
            await endpoint.close()
            await supervisor.shutdown()
            return got, snapshot

        got, snapshot = asyncio.run(drive())
        assert got.payload == "v1"
        assert [rec.kind for rec in snapshot.oplog].count("insert") == 1
        conformance = verify_snapshot(snapshot)
        assert conformance.ok, conformance.mismatches


@pytest.mark.runtime
class TestFleetUpdate:
    def test_updates_to_a_replica_chain_discard_no_frame(self):
        """Each copy of a chain is placed by its broadcast parent's
        ``decide`` RPC, whose reply names the target: the UPDATEs sent
        through the endpoint reach every holder, and no worker without
        a copy is sent one."""
        config = _fleet_config(b=0)
        supervisor = ScaleoutSupervisor(config, n_nodes=8, mode="fork")
        host, port = supervisor.launch()
        bootstrap = supervisor.bootstrap

        async def drive() -> tuple:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            try:
                client = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
                for name in ("doc", "memo"):
                    await client.insert(name, payload=f"v1:{name}")
                await endpoint.drain()
                chain = list(bootstrap.mirror.holders_of("doc"))
                for seed in (1, 2, 3):
                    before = len(bootstrap.oplog)
                    await bootstrap.trigger_overload(chain[-1], "doc", seed)
                    await _until(lambda: len(bootstrap.oplog) > before)
                    await endpoint.drain()
                    target = bootstrap.oplog[-1].target
                    if target is None:
                        break
                    chain.append(target)
                for i in range(4):
                    for name in ("doc", "memo"):
                        assert (await client.update(name, f"v{i + 2}:{name}")).ok
                await client.close()
                await endpoint.quiesce()
                snapshot, stats = await bootstrap.collect_snapshot()
                return chain, snapshot, stats
            finally:
                await endpoint.close()
                await supervisor.shutdown()

        chain, snapshot, stats = asyncio.run(drive())
        assert len(chain) >= 3, chain
        conformance = verify_snapshot(snapshot)
        assert conformance.ok, conformance.mismatches
        assert sorted(snapshot.placement["doc"]) == sorted(chain)
        assert set(snapshot.held["doc"].values()) == {5}
        assert stats.counters.get("update_discards", 0) == 0
        assert stats.counters.get("handler_errors", 0) == 0


@pytest.mark.runtime
class TestShutdownDeadline:
    def test_sigstopped_worker_ends_in_a_typed_error_inside_the_deadline(self):
        """A worker that cannot answer SIGTERM (stopped, here) must not
        wedge ``shutdown()``: past ``term_timeout`` it is SIGKILLed,
        reaped, and named — OS pid and node id — in the error."""
        config = RuntimeConfig(m=2, drain_timeout=15.0)
        supervisor = ScaleoutSupervisor(config, mode="fork")
        supervisor.launch()

        async def drive() -> tuple:
            await supervisor.start(boot_timeout=60.0)
            victim = supervisor.bootstrap.worker_pids()[1]
            ospid = supervisor.bootstrap.ospid_of(victim)
            os.kill(ospid, signal.SIGSTOP)
            started = time.monotonic()
            with pytest.raises(FleetLifecycleError) as caught:
                await supervisor.shutdown(term_timeout=2.0)
            return victim, ospid, caught.value, time.monotonic() - started

        victim, ospid, error, elapsed = asyncio.run(drive())
        assert elapsed < 5.0
        assert error.stuck == {ospid: victim}
        assert str(ospid) in str(error) and f"P({victim})" in str(error)
        assert not any(supervisor.alive().values())
        # The three healthy workers still said goodbye.
        assert sorted(supervisor.bootstrap.goodbyes) == sorted(
            set(range(4)) - {victim}
        )


@pytest.mark.runtime
class TestBootDeath:
    def test_worker_dead_before_registering_ends_start_with_a_typed_error(self):
        """A fleet one member short never becomes ready: ``start()``
        must notice the exit, not sit out ``boot_timeout``, name the
        dead process and leave no other worker running."""
        supervisor = ScaleoutSupervisor(RuntimeConfig(m=2), mode="fork")
        supervisor.launch()
        victim = supervisor._children[2]
        os.kill(victim, signal.SIGKILL)

        async def drive() -> tuple:
            started = time.monotonic()
            with pytest.raises(FleetLifecycleError) as caught:
                await supervisor.start(boot_timeout=60.0)
            return caught.value, time.monotonic() - started

        error, elapsed = asyncio.run(drive())
        assert elapsed < 5.0
        assert list(error.stuck) == [victim]
        assert "exited before registering" in str(error)
        assert str(victim) in str(error)
        assert not any(supervisor.alive().values())


@pytest.mark.runtime
class TestCollectDeadline:
    def test_sigstopped_shard_ends_in_a_typed_error_inside_the_deadline(
        self, monkeypatch
    ):
        """A load shard that never reports (stopped, here) must not
        wedge ``collect()`` in its executor threads: past the deadline
        it is SIGKILLed, reaped and named — shard index and OS pid —
        while the healthy shard is still reaped normally."""
        from repro.runtime.scaleout import loadshard

        monkeypatch.setattr(loadshard, "_COLLECT_SLACK", 1.5)
        config = RuntimeConfig(m=2, tcp=True)
        supervisor = ScaleoutSupervisor(config, mode="fork")
        host, port = supervisor.launch()
        driver = ShardedLoadDriver(
            host, port, ["stop-0"], shards=2, rps=40, duration=0.3,
            timeout=0.5, seed=3, inherited_sockets=[supervisor.listen_socket],
        )
        driver.launch()
        ospids = [shard.ospid for shard in driver._handles]

        async def drive() -> tuple:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            client = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
            await client.insert("stop-0", payload="p")
            await client.close()
            await endpoint.drain()
            os.kill(ospids[1], signal.SIGSTOP)
            driver.start()
            started = time.monotonic()
            with pytest.raises(FleetLifecycleError) as caught:
                await driver.collect()
            elapsed = time.monotonic() - started
            await endpoint.close()
            await supervisor.shutdown()
            return caught.value, elapsed

        try:
            error, elapsed = asyncio.run(drive())
        finally:
            driver.kill()
        assert elapsed < 6.0
        assert error.stuck == {ospids[1]: 1}
        assert str(ospids[1]) in str(error) and "shard 1" in str(error)
        for ospid in ospids:  # both reaped: nothing left to wait for
            with pytest.raises(ChildProcessError):
                os.waitpid(ospid, os.WNOHANG)


@pytest.mark.runtime
class TestKillDashNine:
    def test_kill9_mid_burst_with_inherited_subtree_replays_conformant(self):
        """kill -9 a worker mid-burst; after the autopsy the victim's
        subtree is inherited per §5 and the centrally collected
        snapshot replays against the oracle with zero diffs."""
        config = _fleet_config(seed=7)
        supervisor = ScaleoutSupervisor(config, n_nodes=8, mode="fork")
        host, port = supervisor.launch()

        async def drive() -> tuple:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            files = [f"crash-{i}" for i in range(6)]
            client = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
            for name in files:
                await client.insert(name, payload=f"payload:{name}")
            await client.close()
            gen = LoadGenerator(endpoint, files, seed=9, timeout=5.0)
            burst = asyncio.ensure_future(gen.run_open_loop(rps=80, duration=1.2))
            await asyncio.sleep(0.5)
            victim = sorted(endpoint.nodes)[2]
            victim_os = supervisor.bootstrap.ospid_of(victim)
            await supervisor.kill(victim)
            report = await burst
            await gen.close()
            # The process is provably gone (reaped) before the autopsy.
            assert supervisor.alive().get(victim_os) is False
            await supervisor.bootstrap.announce_crash(victim)
            await endpoint.quiesce()
            snapshot, _stats = await supervisor.bootstrap.collect_snapshot()
            await endpoint.close()
            await supervisor.shutdown()
            return victim, report, snapshot

        victim, report, snapshot = asyncio.run(drive())
        assert report.conserved
        conformance = verify_snapshot(snapshot)
        assert conformance.ok, conformance.mismatches
        # The victim is dead in the authoritative word and its files
        # were inherited by live holders.
        assert victim not in snapshot.live_pids
        for name, holders in snapshot.placement.items():
            assert holders, f"{name} lost all replicas"
            assert victim not in holders
        # Survivors ship goodbyes; the kill -9 victim cannot.
        survivors = sorted(set(range(8)) - {victim})
        assert sorted(supervisor.bootstrap.goodbyes) == survivors

    def test_killed_worker_disappears_from_client_books(self):
        config = _fleet_config(seed=11)
        supervisor = ScaleoutSupervisor(config, n_nodes=6, mode="fork")
        host, port = supervisor.launch()

        async def drive() -> tuple:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            before = set(endpoint.nodes)
            victim = sorted(endpoint.nodes)[1]
            await supervisor.kill(victim)
            deadline = asyncio.get_running_loop().time() + 5.0
            while (victim in endpoint.nodes
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.01)
            after = set(endpoint.nodes)
            await supervisor.bootstrap.announce_crash(victim)
            await endpoint.quiesce()
            await endpoint.close()
            await supervisor.shutdown()
            return victim, before, after

        victim, before, after = asyncio.run(drive())
        assert victim in before
        assert after == before - {victim}


@pytest.mark.runtime
class TestShardedBurst:
    def test_two_shard_burst_merges_exactly_and_quiesces(self):
        """Two forked driver processes over disjoint entry partitions:
        the merged ledger conserves, equals the per-shard sum, the
        fleet's serve totals match the merged completions, every worker
        goodbyes, and the snapshot replays conformant — the full
        sharded measurement path in one lifecycle."""
        run = run_fleet(_fleet_config(seed=13), 8, [f"shard-{i}" for i in range(4)],
                        rps=60, duration=0.8, seed=13, client_shards=2)
        report, snapshot, stats = run.report, run.snapshot, run.stats
        assert report.conserved and report.completed > 0
        assert len(run.shard_reports) == 2
        for field_name in LoadReport._COUNTERS:
            assert getattr(report, field_name) == sum(
                getattr(part, field_name) for part in run.shard_reports
            )
        assert report.hist.total == sum(
            part.hist.total for part in run.shard_reports
        )
        # Each shard generated real load through its own partition.
        assert all(part.completed > 0 for part in run.shard_reports)
        # The fleet's serve totals account for every merged completion.
        assert sum(stats.served_by_node.values()) == report.completed
        conformance = verify_snapshot(snapshot)
        assert conformance.ok, conformance.mismatches
        assert sorted(run.goodbyes) == list(range(8))
        assert run.left_running == ()


#: The report keys ``lesslog loadgen --processes`` prints, in order; the
#: test pins them, and the non-timing lines, to the seed-0 output.
_LOADGEN_KEYS = [
    "requests", "completed", "faults", "errors", "timeouts", "shed",
    "churn_lost", "stale_sheds", "overloads", "redirected", "rerouted",
    "duration_s", "achieved_rps", "latency_p50_s", "latency_p99_s",
    "served_by_node", "latency_hist",
]


@pytest.mark.runtime
class TestLoadgenFleet:
    """``lesslog loadgen --processes`` end to end, in a fresh interpreter."""

    @pytest.mark.parametrize("extra, keys", [
        ([], _LOADGEN_KEYS + ["replicas"]),
        (["--client-processes", "2"],
         _LOADGEN_KEYS + ["client_shards", "shard_rps", "replicas"]),
    ])
    def test_kill_run_prints_what_it_printed(self, extra, keys):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "loadgen", "--m", "3",
             "--processes", "4", "--rps", "40", "--duration", "0.4",
             "--churn-kills", "1", "--conformance", *extra],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "churn: 1 kill -9 event(s): P(3)"
        assert lines[1] == ("loadgen over 3 worker process(es), tcp: m=3, "
                            "b=1, workload=zipf, seed=0")
        assert [line.split()[0] for line in lines[2:-1]] == keys
        assert lines[-2] == f"  {'replicas':15} 0"
        assert lines[-1] == (
            "conformance: 10 ops replayed, 8 files, 0 replicas created -- OK"
        )
