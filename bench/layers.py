"""Driven layers: public functions called directly on the run's own inputs.

After a traced window the benchmark holds the request stream the client
sent and the cluster's oplog.  Each function here replays those through
one layer's public entry point with no I/O around it, so the figure is
that layer's cost alone: the wire codec on the workload's frames, the
routing table on the workload's entries, the synchronous oracle on the
same GETs and UPDATEs, the placement rule on the recorded decisions.

Every timing is bracketed by calibration spins and normalised like a
slice (:mod:`bench.calibrate`).
"""

from __future__ import annotations

import random
import statistics
from time import process_time
from typing import Any, Callable

from repro.core.hashing import Psi
from repro.core.replication import choose_replica_target
from repro.core.routing import routing_table, routing_table_cache_clear
from repro.core.tree import LookupTree
from repro.net.message import MessageKind, fast_message
from repro.node.loadmon import LoadMonitor
from repro.node.membership import StatusWord
from repro.runtime import (
    CLIENT,
    FRAME_GENERIC,
    WIRE_VERSION_BINARY,
    AdmissionController,
    FrameEncoder,
    RuntimeConfig,
    decode_message,
    replay_oplog,
)

from .calibrate import factor, spin
from .spec import Workload
from .workloads import Outcome, payload_of, runtime_config

REPS = 3
STREAM_SAMPLE = 4000
"""Requests of the captured stream each driven layer replays."""


def timed(work: Callable[[], Any], reps: int = REPS) -> float:
    """Normalised CPU seconds of one ``work()``: median over ``reps``,
    each scaled by the spins on either side of it."""
    readings = []
    before = spin()
    for _ in range(reps):
        t0 = process_time()
        work()
        elapsed = process_time() - t0
        after = spin()
        readings.append(elapsed * factor((before, after)))
        before = after
    return statistics.median(readings)


def _frames_of(stream: list[tuple[str, str, int]], workload: Workload) -> list:
    """The messages one request puts on the wire, for each request of the
    stream: client GET, one forwarded hop, the reply to the origin and to
    the client; UPDATE, one broadcast hop and its ACK; and, where the
    workload sheds, an OVERLOAD reply for every tenth GET."""
    nodes = 1 << workload.m
    out = []
    for i, (kind, name, entry) in enumerate(stream):
        peer = (entry + 1) % nodes
        if kind == MessageKind.UPDATE.value:
            update = fast_message(
                MessageKind.UPDATE, CLIENT, entry, name, payload_of(name),
                request_id=i,
            )
            out.append(update)
            out.append(fast_message(
                MessageKind.UPDATE, entry, peer, name, payload_of(name),
                2, 1, entry, i,
            ))
            out.append(fast_message(
                MessageKind.ACK, entry, CLIENT, name, {}, 2, 0, entry, i,
            ))
            continue
        get = fast_message(MessageKind.GET, CLIENT, entry, name, request_id=i)
        out.append(get)
        out.append(fast_message(
            MessageKind.GET, entry, peer, name, None, 0, 1, entry, i,
        ))
        reply = {"payload": payload_of(name), "server": peer}
        out.append(fast_message(
            MessageKind.GET_REPLY, peer, entry, name, reply, 1, 1, entry, i,
        ))
        out.append(fast_message(
            MessageKind.GET_REPLY, peer, CLIENT, name, reply, 1, 1, entry, i,
        ))
        if workload.sheds and i % 10 == 0:
            out.append(fast_message(
                MessageKind.OVERLOAD, peer, CLIENT, name,
                {"shed_by": peer, "redirect": entry}, 0, 0, entry, i,
            ))
    return out


def _wire(stream: list, workload: Workload, config: RuntimeConfig) -> dict[str, float]:
    messages = _frames_of(stream, workload)
    if not messages:
        return {}
    encoder = FrameEncoder(fixed=config.fixed_frames)
    version = min(config.wire_version, WIRE_VERSION_BINARY)
    frames: list[bytes] = []
    for msg in messages:
        encoder.add(msg, version)
        frames.append(encoder.take_bytes())

    def encode() -> None:
        add, take = encoder.add, encoder.take_bytes
        for msg in messages:
            add(msg, version)
            take()

    def decode() -> None:
        for frame in frames:
            decode_message(frame)

    count = len(messages)
    return {
        "wire.encode_us_per_frame": timed(encode) / count * 1e6,
        "wire.decode_us_per_frame": timed(decode) / count * 1e6,
        "wire.bytes_per_frame": sum(len(f) for f in frames) / count,
        # Header: magic(2) version(1) flags(1) length(4).
        "wire.fixed_lane_frac": sum(f[3] != FRAME_GENERIC for f in frames) / count,
    }


def _routing(stream: list, workload: Workload) -> dict[str, float]:
    m = workload.m
    word = StatusWord.full(m)
    trees = [LookupTree(root, m) for root in range(1 << m)]

    def build() -> None:
        routing_table_cache_clear()
        for tree in trees:
            routing_table(tree, word)

    build_s = timed(build)
    table = routing_table(trees[0], word)
    entries = [entry for _kind, _name, entry in stream] or [0]

    def find() -> None:
        find_live = table.find_live
        for entry in entries:
            find_live(entry)

    return {
        "routing.table_build_us": build_s / len(trees) * 1e6,
        "routing.find_live_ns": timed(find) / len(entries) * 1e9,
    }


def _oracle(stream: list, outcome: Outcome, config: RuntimeConfig,
            live: tuple[int, ...]) -> dict[str, float]:
    """The synchronous ``LessLogSystem`` over the same GETs, UPDATEs and
    replicate decisions: the protocol's cost with no I/O at all."""
    out: dict[str, float] = {}
    system = replay_oplog(outcome.oplog, config, live)
    gets = [(n, e) for k, n, e in stream if k == MessageKind.GET.value]
    updates = [n for k, n, _e in stream if k == MessageKind.UPDATE.value]
    if gets:
        hops = 0
        for name, entry in gets:
            found = system.resolve(name, entry)
            hops += len(found.route) - 1 if found is not None else 0
        out["routing.hops_per_get"] = hops / len(gets)

        def run_gets() -> None:
            get = system.get
            for name, entry in gets:
                get(name, entry)

        out["system.get_us"] = timed(run_gets) / len(gets) * 1e6
    if updates:
        def run_updates() -> None:
            update = system.update
            for name in updates:
                update(name, "driven")

        out["system.update_us"] = timed(run_updates) / len(updates) * 1e6
    decisions = [rec for rec in outcome.oplog if rec.kind == "replicate"]
    if decisions:
        placed = [rec for rec in outcome.oplog if rec.kind == "insert"]
        fresh = [replay_oplog(placed, config, live) for _ in range(REPS)]

        def run_replicates() -> None:
            oracle = fresh.pop()
            for rec in decisions:
                oracle.replicate(
                    rec.name, rec.pid, forwarder_rates=rec.rates,
                    rng=random.Random(rec.seed),
                )

        out["system.replicate_us"] = timed(run_replicates) / len(decisions) * 1e6
        out["replication.choose_us"] = _choose(decisions, config, live)
    return out


def _choose(decisions: list, config: RuntimeConfig, live: tuple[int, ...]) -> float:
    """``choose_replica_target`` on each recorded (holder, seed) with the
    holder set as it stood at that decision."""
    psi = Psi(config.m)
    word = StatusWord(config.m, live)
    contexts = []
    holders: dict[str, set[int]] = {}
    for rec in decisions:
        root = psi(rec.name)
        held = holders.setdefault(rec.name, {root})
        tree = LookupTree(root, config.m)
        contexts.append(
            (tree, rec.pid, frozenset(held), rec.seed, routing_table(tree, word))
        )
        if rec.target is not None:
            held.add(rec.target)

    def run() -> None:
        for tree, holder, held, seed, table in contexts:
            choose_replica_target(
                tree, holder, word, held, random.Random(seed), table
            )

    return timed(run) / len(contexts) * 1e6


def _loadmon(stream: list, config: RuntimeConfig) -> dict[str, float]:
    serves = [(name, entry) for _kind, name, entry in stream]
    if not serves:
        return {}
    monitors: list[LoadMonitor] = []

    def record() -> None:
        monitor = LoadMonitor(capacity=1.0, window=config.window)
        monitors.append(monitor)
        record_served = monitor.record_served
        now = 0.0
        for name, entry in serves:
            now += 0.001
            record_served(name, entry, now)

    record_s = timed(record)
    monitor = monitors[-1]
    now = 0.001 * len(serves)
    sweeps = 200

    def sweep() -> None:
        for _ in range(sweeps):
            monitor.is_overloaded(now)
            hottest = monitor.hottest_file(now)
            if hottest is not None:
                monitor.source_rates(hottest, now)

    return {
        "loadmon.record_ns": record_s / len(serves) * 1e9,
        "loadmon.sweep_us": timed(sweep) / sweeps * 1e6,
    }


def _admission(stream: list, outcome: Outcome, config: RuntimeConfig) -> dict[str, float]:
    gets = [
        fast_message(MessageKind.GET, CLIENT, entry, name, request_id=i)
        for i, (kind, name, entry) in enumerate(stream)
        if kind == MessageKind.GET.value
    ]
    if not gets:
        return {}
    limit = config.inbox_limit or 8
    depth = min(
        limit - 1,
        int(statistics.median(outcome.inbox_depths)) if outcome.inbox_depths else 0,
    )

    def cycle() -> None:
        gate = AdmissionController(config.overload_policy(), limit)
        for j in range(depth):  # the standing queue the run saw
            gate.admit(fast_message(
                MessageKind.GET, CLIENT, 0, "standing", request_id=-1 - j
            ))
        admit, release, finish = gate.admit, gate.release, gate.finish
        for msg in gets:
            admit(msg)
            release(msg)
            finish(msg)

    return {"overload.admit_ns": timed(cycle) / len(gets) * 1e9}


def drive(outcome: Outcome, workload: Workload) -> dict[str, float]:
    """Every driven per-layer figure of one traced outcome."""
    tracer = outcome.tracer
    if tracer is None:
        return {}
    stream = tracer.stream[:STREAM_SAMPLE]
    config = runtime_config(workload)
    live = tuple(range(1 << workload.m))
    out: dict[str, float] = {}
    out.update(_wire(stream, workload, config))
    out.update(_routing(stream, workload))
    out.update(_oracle(stream, outcome, config, live))
    out.update(_loadmon(stream, config))
    out.update(_admission(stream, outcome, config))
    return out
