#!/usr/bin/env python
"""Benchmark the live asyncio runtime: sustained RPS and latency, per codec.

Boots a live cluster (in-process streams by default, ``--tcp`` for real
loopback TCP), inserts a file set, and drives a seeded Zipf GET workload
through the open-loop load generator at a ramp of target rates — once
for each wire-protocol profile:

* ``json-v1``   — the v1 JSON codec with the serialized inbox consumer
  (``batch_max=1``), i.e. the runtime as it behaved before the fast
  path landed.
* ``binary-v2`` — the v2 binary codec with batched inbox draining and
  pipelined GET serving (``batch_max=16``).

``service_time`` models per-request storage latency (a 4 ms read).  The
compat profile awaits each read inside the consumer, so a node serves
reads serially; the fast path overlaps them, which is where most of the
throughput headroom comes from.

Each rate runs ``trials`` times on a fresh cluster: a warmup window at
the target rate (so overload replication reaches steady state), then a
measured window with the cyclic GC paused (collection pauses otherwise
dominate tail latency near saturation).  A rate is *sustained* when
every trial completes >= 99% of requests with no timeouts and the
median p99 latency stays within the SLO (50 ms).  The ramp for a codec
stops at its first unsustained rate.  Every trial is replayed against
the synchronous oracle; a single divergence fails the run.

Results go to ``BENCH_runtime.json`` at the repo root.  Top-level
``sustained_rps``/latency fields describe the binary profile; the
``codecs`` section carries both profiles and ``speedup`` is the ratio
of sustained rates.  Every ramp entry also persists the HDR-style
per-rate latency histogram (``latency_hist``) and the per-stage
``encode``/``decode``/``route``/``serve`` seconds; a human-readable
bar-chart rendering of all histograms goes to ``BENCH_runtime_hist.txt``.

Usage::

    PYTHONPATH=src python tools/bench_runtime.py            # full ramp
    PYTHONPATH=src python tools/bench_runtime.py --check    # CI smoke
    PYTHONPATH=src python tools/bench_runtime.py --tcp      # over TCP

``--check`` runs a reduced ramp and exits non-zero if conformance
fails, the smallest rate cannot be sustained, or — when the committed
baseline records a check-mode expectation — sustained throughput drops
more than 30% below it (the CI regression gate), or the latency
*shape* at the top check rate drifts more than ``SHAPE_TOLERANCE``
bucket-widths of earth-mover distance from the committed reference
(the shape gate: it catches bimodality and new tail modes that leave
the p99 SLO untouched, while staying insensitive to a uniform
machine-speed shift, which costs only ~4 buckets per octave).  Full
runs re-measure the check grid at the end to refresh that reference.

``--processes N`` switches to the **multi-process scale-out
benchmark** instead: N per-node worker OS processes are forked behind
the bootstrap/address-book service and driven over real loopback TCP.
Three segments run at matched node count (``2**m`` nodes, binary-v2
codec):

1. a single-process baseline ramp (``LiveCluster`` over TCP),
2. the multi-process fleet over the same coarse rate ladder — its max
   sustained rate must be >= the single-process figure,
3. a crash segment at the ladder's base rate: one worker is
   ``kill -9``-ed mid-burst, the post-burst autopsy runs §5 recovery,
   and the centrally collected snapshot must replay against the
   oracle with zero conformance diffs and full request conservation.

Results go to ``BENCH_scaleout.json`` (the single-process artifact and
its CI gates are left untouched).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runtime import (  # noqa: E402
    LatencyHistogram,
    LiveCluster,
    LoadGenerator,
    RuntimeClient,
    RuntimeConfig,
    WorkloadShape,
    diff_states,
    replay_oplog,
)

OUTPUT = REPO_ROOT / "BENCH_runtime.json"
HIST_OUTPUT = REPO_ROOT / "BENCH_runtime_hist.txt"
BASELINE = REPO_ROOT / "BENCH_runtime.json"
SCALE_OUTPUT = REPO_ROOT / "BENCH_scaleout.json"

#: Latency SLO: a rate only counts as sustained while the median-trial
#: p99 stays under this.
P99_SLO_S = 0.050

#: Allowed drop below the committed baseline before --check fails.
REGRESSION_TOLERANCE = 0.30

#: Latency-shape gate: max earth-mover distance (in bucket-widths of
#: normalized probability mass) between the check-grid histogram and
#: the committed reference.  The buckets are log-linear with 4 per
#: octave, so a uniform 2x machine-speed shift costs ~4.0 — the
#: threshold tolerates that while flagging new multi-octave latency
#: modes that a p99-only gate can miss.
SHAPE_TOLERANCE = 8.0

#: The CI smoke grid.  Full runs re-measure CHECK_SHAPE_RATE with these
#: exact parameters to refresh the committed latency-shape reference,
#: so check-mode histograms compare like with like.
CHECK_RATES = [100.0, 200.0]
CHECK_SHAPE_RATE = 200.0
CHECK_WARMUP, CHECK_DURATION, CHECK_FILES = 0.4, 0.5, 6

PROFILES: dict[str, dict] = {
    "json-v1": {"wire_version": 1, "batch_max": 1, "fixed_frames": False},
    "binary-v2": {"wire_version": 2, "batch_max": 16, "fixed_frames": True},
}

#: Scale-out rate ladder — coarse on purpose: every rung runs against
#: both the single-process baseline and the fleet, and the comparison
#: gate is per-rung, so fine steps only add wall-clock.  The top rung
#: is sized to what a small host can *schedule*: with 128 worker
#: processes plus the load generator sharing the machine's cores, the
#: OS scheduler — not the runtime — caps aggregate rate, and pushing
#: the shared grid past that point makes the fleet-vs-single
#: comparison measure core count instead of the scale-out plane.  Both
#: sides run the identical grid, so the >= gate stays meaningful.
SCALE_RATES = [40.0, 80.0, 120.0]
SCALE_CHECK_RATES = [40.0, 80.0]

#: The scale-out gate is on *throughput* (zero timeouts, >= 99%
#: completion): with every hop crossing the kernel scheduler, fleet
#: latency on a small host measures the machine's core count more than
#: the runtime (a 1-CPU box time-slices all 128 workers).  Latency
#: percentiles and per-stage seconds are reported, and a loose p99
#: backstop — well under the 5 s client timeout — still catches
#: pathological collapse.  Applied to baseline and fleet alike.
SCALE_P99_SLO_S = 1.0


def _run_meta(m: int, node_count: int, codec: str, process_mode: str,
              client_processes: int = 1) -> dict:
    """Reproducibility metadata carried by every benchmark artifact.

    ``host_cpus`` is the honest ``os.cpu_count()`` of the measuring
    host and ``available_cpus`` the schedulable subset (cgroup/affinity
    aware) — a scale-out figure from a 1-CPU box measures the kernel
    scheduler as much as the runtime, and the artifact must say so.
    """
    import os
    import platform

    return {
        "m": m,
        "node_count": node_count,
        "codec": codec,
        "process_mode": process_mode,
        "client_processes": client_processes,
        "python": platform.python_version(),
        "host_cpus": os.cpu_count(),
        "available_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


async def _run_trial(
    config: RuntimeConfig,
    files: int,
    rps: float,
    warmup: float,
    duration: float,
    seed: int,
) -> tuple[dict, dict, int, bool]:
    """One fresh cluster, one target rate, one trial.

    Returns (report dict, stage seconds, replicas created, conformant?).
    """
    cluster = await LiveCluster.start(config)
    try:
        names = [f"bench-{i}.dat" for i in range(files)]
        boot = await RuntimeClient(cluster, min(cluster.nodes)).connect()
        for name in names:
            await boot.insert(name, f"payload of {name}")
        await boot.close()
        await cluster.drain()
        gen = LoadGenerator(
            cluster, names, WorkloadShape(kind="zipf", s=1.2), seed=seed
        )
        if warmup > 0:
            await gen.run_open_loop(rps=rps, duration=warmup)
        stage_before = dict(cluster.stage_seconds)
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            report = await gen.run_open_loop(rps=rps, duration=duration)
        finally:
            if gc_was_enabled:
                gc.enable()
        stages = {
            k: round(v - stage_before.get(k, 0.0), 6)
            for k, v in cluster.stage_seconds.items()
        }
        await gen.close()
        await cluster.quiesce()
        system = replay_oplog(cluster.oplog, config, cluster.initial_live)
        system.check_invariants()
        conformance = diff_states(cluster, system)
        return report.as_dict(), stages, cluster.replicas_created(), conformance.ok
    finally:
        await cluster.shutdown()


def _ramp_codec(
    codec: str,
    rates: list[float],
    base_config: dict,
    files: int,
    warmup: float,
    duration: float,
    trials: int,
    seed: int,
) -> tuple[list[dict], float, dict | None, int, bool]:
    """Ramp one codec profile; stop at the first unsustained rate.

    Returns (ramp entries, sustained rps, report at that rate,
    replicas there, all trials conformant?).
    """
    ramp: list[dict] = []
    sustained_rps = 0.0
    best: dict | None = None
    best_replicas = 0
    all_conformant = True
    config = RuntimeConfig(**base_config, **PROFILES[codec])
    for rps in rates:
        reports: list[dict] = []
        stages: list[dict] = []
        replicas = 0
        conformant = True
        for trial in range(trials):
            report, stage, repl, ok = asyncio.run(
                _run_trial(config, files, rps, warmup, duration, seed + trial)
            )
            reports.append(report)
            stages.append(stage)
            replicas = max(replicas, repl)
            conformant = conformant and ok
        all_conformant = all_conformant and conformant
        p99s = sorted(r["latency_p99_s"] for r in reports)
        median_p99 = p99s[len(p99s) // 2]
        median_report = next(
            r for r in reports if r["latency_p99_s"] == median_p99
        )
        complete = all(
            r["timeouts"] == 0
            and r["requests"] > 0
            and r["completed"] >= 0.99 * r["requests"]
            for r in reports
        )
        sustained = complete and median_p99 <= P99_SLO_S
        stage_totals = {
            k: round(sum(s.get(k, 0.0) for s in stages), 6)
            for k in (stages[0] if stages else {})
        }
        ramp.append({
            "codec": codec,
            "target_rps": rps,
            "sustained": sustained,
            "conformant": conformant,
            "replicas_to_balance": replicas,
            "trial_p99_s": p99s,
            "stage_seconds": stage_totals,
            **median_report,
        })
        marker = "ok " if sustained else "SAT"
        print(f"  {marker} {codec:9s} target {rps:7.0f} rps -> achieved "
              f"{median_report['achieved_rps']:8.1f}, "
              f"p50 {median_report['latency_p50_s']*1e3:6.2f} ms, "
              f"p99 {median_p99*1e3:7.2f} ms (median of {trials}), "
              f"{replicas} replicas, conformant={conformant}")
        if sustained and rps > sustained_rps:
            sustained_rps = rps
            best = median_report
            best_replicas = replicas
        if not sustained:
            break
    return ramp, sustained_rps, best, best_replicas, all_conformant


def _load_baseline() -> dict | None:
    """The committed artifact, read *before* this run overwrites it."""
    if not BASELINE.exists():
        return None
    try:
        loaded = json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return None
    return loaded if isinstance(loaded, dict) else None


def _regression_gate(
    grid: str, sustained: dict[str, float], baseline: dict | None
) -> list[str]:
    """Compare check-mode sustained rates against the committed baseline.

    Returns a list of failure messages (empty when the gate passes or no
    comparable baseline exists).
    """
    if baseline is None:
        print("regression gate: no committed baseline, skipping")
        return []
    expectation = baseline.get("check_expectation")
    if not isinstance(expectation, dict):
        print("regression gate: baseline has no check expectation, skipping")
        return []
    failures: list[str] = []
    for codec, expect in expectation.items():
        # Either the bare rps floor (legacy artifacts) or a dict with
        # "sustained_rps" alongside the latency-shape reference.
        floor = expect.get("sustained_rps") if isinstance(expect, dict) else expect
        if not isinstance(floor, (int, float)) or floor <= 0:
            continue
        got = sustained.get(codec, 0.0)
        allowed = (1.0 - REGRESSION_TOLERANCE) * floor
        if got < allowed:
            failures.append(
                f"{codec}: sustained {got:.0f} rps < {allowed:.0f} "
                f"(baseline {floor:.0f} - {REGRESSION_TOLERANCE:.0%})"
            )
    if not failures:
        print(f"regression gate: ok ({grid} grid vs committed baseline)")
    return failures


def _shape_gate(ramp: list[dict], baseline: dict | None) -> list[str]:
    """Compare check-grid latency *shape* against the committed reference.

    For each codec, the histogram measured at ``CHECK_SHAPE_RATE`` is
    compared to the baseline's ``latency_shape`` reference by
    earth-mover distance in bucket units; drift beyond
    ``SHAPE_TOLERANCE`` fails.  Returns failure messages (empty when
    the gate passes or no comparable reference exists).
    """
    expectation = (baseline or {}).get("check_expectation")
    if not isinstance(expectation, dict):
        print("shape gate: no committed shape reference, skipping")
        return []
    failures: list[str] = []
    compared = False
    for codec, expect in expectation.items():
        reference = expect.get("latency_shape") if isinstance(expect, dict) else None
        if not isinstance(reference, dict):
            continue
        entry = next(
            (e for e in ramp
             if e["codec"] == codec
             and e["target_rps"] == CHECK_SHAPE_RATE
             and isinstance(e.get("latency_hist"), dict)),
            None,
        )
        if entry is None:
            continue
        compared = True
        measured = LatencyHistogram.from_dict(entry["latency_hist"])
        drift = measured.shape_distance(LatencyHistogram.from_dict(reference))
        if drift > SHAPE_TOLERANCE:
            failures.append(
                f"{codec}: latency-shape drift {drift:.1f} buckets > "
                f"{SHAPE_TOLERANCE:.1f} at {CHECK_SHAPE_RATE:.0f} rps"
            )
        else:
            print(f"shape gate: {codec} drift {drift:.1f} buckets "
                  f"(tolerance {SHAPE_TOLERANCE:.1f})")
    if not compared and not failures:
        print("shape gate: baseline predates shape references, skipping")
    return failures


def _render_hist(hist: dict) -> list[str]:
    """ASCII bar chart of one sparse histogram dict."""
    lines: list[str] = []
    counts = hist.get("counts", [])
    bounds = hist.get("le_ms", [])
    peak = max(counts, default=0)
    if not peak:
        return ["  (empty)"]
    prev = 0.0
    for le, count in zip(bounds, counts):
        label = f"> {prev:7.2f} ms" if le is None else f"<= {le:7.2f} ms"
        bar = "#" * max(1, round(40 * count / peak))
        lines.append(f"  {label:>14s} {count:7d} {bar}")
        if le is not None:
            prev = le
    return lines


def _write_hist_plot(ramp: list[dict], label: str, mode: str) -> None:
    """Render every ramp entry's latency histogram to HIST_OUTPUT."""
    lines = [f"latency histograms ({label} grid, {mode} transport), "
             f"log-linear buckets, 4 per octave", ""]
    for entry in ramp:
        hist = entry.get("latency_hist")
        if not isinstance(hist, dict):
            continue
        lines.append(
            f"{entry['codec']} @ {entry['target_rps']:.0f} rps "
            f"(p50 {entry['latency_p50_s']*1e3:.2f} ms, "
            f"p99 {entry['latency_p99_s']*1e3:.2f} ms, "
            f"{'sustained' if entry['sustained'] else 'saturated'})"
        )
        lines.extend(_render_hist(hist))
        lines.append("")
    HIST_OUTPUT.write_text("\n".join(lines) + "\n")


def _shape_reference(base_config: dict, seed: int) -> dict[str, dict]:
    """Re-measure the check grid's top rate to refresh the committed
    check-mode expectation (rps floor + latency-shape reference)."""
    reference: dict[str, dict] = {}
    for codec in PROFILES:
        config = RuntimeConfig(**base_config, **PROFILES[codec])
        report, _, _, ok = asyncio.run(_run_trial(
            config, CHECK_FILES, CHECK_SHAPE_RATE, CHECK_WARMUP,
            CHECK_DURATION, seed,
        ))
        reference[codec] = {
            "sustained_rps": CHECK_SHAPE_RATE,
            "latency_shape": report["latency_hist"],
        }
        print(f"  {codec:9s} @ {CHECK_SHAPE_RATE:.0f} rps: "
              f"{report['completed']} samples, conformant={ok}")
    return reference


async def _drive_scaleout(
    supervisor,
    host: str,
    port: int,
    files: int,
    rps: float,
    warmup: float,
    duration: float,
    seed: int,
    kill: bool,
    driver=None,
) -> dict:
    """Drive one booted fleet through one rate; optionally kill -9.

    With ``driver`` (a pre-forked `ShardedLoadDriver`) the load comes
    from K driver processes over disjoint entry partitions and the
    returned report is the exact merge of the K shard ledgers;
    without, a single in-loop `LoadGenerator` drives as before.
    """
    import random

    from repro.runtime import verify_snapshot
    from repro.runtime.scaleout import ScaleoutEndpoint

    n_nodes = supervisor.bootstrap.expected
    await supervisor.start(boot_timeout=60.0 + 0.5 * n_nodes)
    endpoint = await ScaleoutEndpoint.connect(host, port)
    killed: list[int] = []
    try:
        names = [f"bench-{i}.dat" for i in range(files)]
        boot = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
        for name in names:
            await boot.insert(name, f"payload of {name}")
        await boot.close()
        await endpoint.drain()

        async def _mid_burst_kill(delay: float) -> None:
            await asyncio.sleep(delay)
            victim = random.Random(seed).choice(
                supervisor.bootstrap.worker_pids()
            )
            await supervisor.kill(victim)
            killed.append(victim)

        loop = asyncio.get_running_loop()
        if driver is not None:
            # Shards run their own warmup after the gate opens, so the
            # mid-burst kill aims at warmup + half the measured window.
            driver.start()
            kill_task = (
                loop.create_task(_mid_burst_kill(warmup + duration / 2))
                if kill else None
            )
            report = await driver.collect()
            report.served_by_node = await endpoint.served_counts()
        else:
            gen = LoadGenerator(
                endpoint, names, WorkloadShape(kind="zipf", s=1.2), seed=seed
            )
            if warmup > 0:
                await gen.run_open_loop(rps=rps, duration=warmup)
            kill_task = (
                loop.create_task(_mid_burst_kill(duration / 2))
                if kill else None
            )
            report = await gen.run_open_loop(rps=rps, duration=duration)
        if kill_task is not None:
            await kill_task
        if driver is None:
            await gen.close()
        for victim in killed:
            await supervisor.bootstrap.announce_crash(victim)
        await endpoint.quiesce()
        snapshot, stats = await supervisor.bootstrap.collect_snapshot()
        conformance = verify_snapshot(snapshot)
        out = {
            **report.as_dict(),
            "conserved": report.conserved,
            "conformant": conformance.ok,
            "mismatches": conformance.mismatches,
            "killed": killed,
            "oplog_records": len(snapshot.oplog),
            "replicas_to_balance": snapshot.replicas_created,
            "stage_seconds": {
                k: round(v, 6) for k, v in sorted(stats.stage_seconds.items())
            },
        }
        if driver is not None:
            out["client_processes"] = driver.shards
            out["shard_rps"] = [
                round(r.achieved_rps, 3) for r in driver.shard_reports
            ]
        return out
    finally:
        await endpoint.close()
        await supervisor.shutdown()


def _scaleout_trial(
    base_config: dict,
    n_nodes: int,
    files: int,
    rps: float,
    warmup: float,
    duration: float,
    seed: int,
    kill: bool,
    spawn: str,
    client_processes: int = 1,
) -> dict:
    """One fresh fleet of worker processes, one target rate, one trial.

    The forks happen here, *before* any event loop exists — first the
    worker fleet, then (for ``client_processes > 1``) the K shard
    driver processes, which park on their go pipes until the fleet is
    booted, seeded, and drained.
    """
    from repro.runtime.scaleout import ScaleoutSupervisor, ShardedLoadDriver

    config = RuntimeConfig(**base_config, **PROFILES["binary-v2"])
    supervisor = ScaleoutSupervisor(config, n_nodes=n_nodes, mode=spawn)
    host, port = supervisor.launch()
    driver = None
    if client_processes > 1:
        driver = ShardedLoadDriver(
            host, port, [f"bench-{i}.dat" for i in range(files)],
            shards=client_processes, rps=rps, duration=duration,
            warmup=warmup, shape=WorkloadShape(kind="zipf", s=1.2),
            seed=seed,
            inherited_sockets=(
                [supervisor.listen_socket]
                if supervisor.listen_socket is not None else []
            ),
        )
        driver.launch()
    try:
        out = asyncio.run(_drive_scaleout(
            supervisor, host, port, files, rps, warmup, duration, seed,
            kill, driver,
        ))
    finally:
        if driver is not None:
            driver.kill()  # no-op after a clean collect()
    out["goodbyes"] = len(supervisor.bootstrap.goodbyes)
    return out


def _scale_sustained(entry: dict) -> bool:
    """The scale-out sustained criterion (shared by both segments)."""
    return (
        entry["timeouts"] == 0
        and entry["requests"] > 0
        and entry["completed"] >= 0.99 * entry["requests"]
        and entry["latency_p99_s"] <= SCALE_P99_SLO_S
    )


def _bench_scaleout(args: argparse.Namespace) -> int:
    """The --processes benchmark: baseline ramp, fleet ramp, crash run."""
    n_nodes = args.processes
    shards = max(1, args.client_processes)
    m = args.m
    while (1 << m) < n_nodes:
        m += 1
    if args.check:
        rates = list(SCALE_CHECK_RATES)
        warmup, duration, files = 0.4, 0.8, 6
    else:
        rates = list(SCALE_RATES)
        warmup, duration, files = 1.0, 2.0, 24
    base_config = dict(
        m=m, b=args.b, seed=args.seed, tcp=True,
        capacity=60.0, service_time=0.004, inflight_limit=32,
    )
    label = "fast" if args.check else "full"
    print(f"scale-out benchmark ({label}): {n_nodes} worker processes "
          f"(m={m}, b={args.b}, {args.spawn}), {shards} client process(es), "
          f"{files} files, {duration}s per rate, "
          f"p99 SLO {SCALE_P99_SLO_S*1e3:.0f} ms")
    wall_start = time.perf_counter()

    print("single-process baseline (matched node count, tcp):")
    config = RuntimeConfig(**base_config, **PROFILES["binary-v2"])
    single_ramp: list[dict] = []
    single_max = 0.0
    single_best: dict | None = None
    for rps in rates:
        report, stages, _repl, ok = asyncio.run(
            _run_trial(config, files, rps, warmup, duration, args.seed)
        )
        entry = {"target_rps": rps, "conformant": ok,
                 "stage_seconds": stages, **report}
        entry["sustained"] = _scale_sustained(entry) and ok
        single_ramp.append(entry)
        print(f"  {'ok ' if entry['sustained'] else 'SAT'} single "
              f"target {rps:6.0f} rps -> achieved {report['achieved_rps']:7.1f}, "
              f"p99 {report['latency_p99_s']*1e3:7.2f} ms, conformant={ok}")
        if entry["sustained"]:
            single_max, single_best = rps, entry
        else:
            break

    def _fleet_ramp(client_processes: int, tag: str) -> tuple[list[dict], float, dict | None]:
        ramp: list[dict] = []
        best_rps = 0.0
        best: dict | None = None
        for rps in rates:
            entry = _scaleout_trial(
                base_config, n_nodes, files, rps, warmup, duration,
                args.seed, kill=False, spawn=args.spawn,
                client_processes=client_processes,
            )
            entry["target_rps"] = rps
            entry["sustained"] = _scale_sustained(entry) and entry["conformant"]
            ramp.append(entry)
            shard_note = (
                f", shards={entry['shard_rps']}"
                if "shard_rps" in entry else ""
            )
            print(f"  {'ok ' if entry['sustained'] else 'SAT'} {tag} "
                  f"target {rps:6.0f} rps -> achieved "
                  f"{entry['achieved_rps']:7.1f}, "
                  f"p99 {entry['latency_p99_s']*1e3:7.2f} ms, "
                  f"conformant={entry['conformant']}, "
                  f"goodbyes={entry['goodbyes']}/{n_nodes}{shard_note}")
            if entry["sustained"]:
                best_rps, best = rps, entry
            else:
                break
        return ramp, best_rps, best

    print(f"multi-process fleet ({n_nodes} workers, "
          f"{shards} client process(es)):")
    multi_ramp, multi_max, multi_best = _fleet_ramp(shards, "fleet ")

    # The client-scaling column: the same fleet driven by ONE client
    # interpreter.  The sharded figure must not fall below it — K
    # drivers that measure less than one driver would mean the shard
    # plane itself became the serialization point.
    single_client_ramp: list[dict] = []
    single_client_max = 0.0
    if shards > 1:
        print("client-scaling baseline (same fleet, 1 client process):")
        single_client_ramp, single_client_max, _ = _fleet_ramp(1, "fleet1")

    print(f"crash segment: kill -9 mid-burst at {rates[0]:.0f} rps"
          + (f" ({shards} client shards)" if shards > 1 else "") + ":")
    crash = _scaleout_trial(
        base_config, n_nodes, files, rates[0], warmup, duration,
        args.seed + 1, kill=True, spawn=args.spawn, client_processes=shards,
    )
    victims = ", ".join(f"P({pid})" for pid in crash["killed"])
    print(f"  killed {victims} mid-burst: "
          f"{crash['completed']}/{crash['requests']} completed, "
          f"churn_lost={crash['churn_lost']}, conserved={crash['conserved']}, "
          f"conformant={crash['conformant']}, "
          f"goodbyes={crash['goodbyes']}/{n_nodes - 1}")
    wall = time.perf_counter() - wall_start

    payload = {
        "benchmark": "scaleout-runtime-throughput",
        "grid": label,
        "run_meta": _run_meta(m, n_nodes, "binary-v2", args.spawn,
                              client_processes=shards),
        "files": files,
        "warmup_per_rate_s": warmup,
        "duration_per_rate_s": duration,
        "p99_slo_s": SCALE_P99_SLO_S,
        "single_sustained_rps": single_max,
        "multi_sustained_rps": multi_max,
        "single_latency_p99_s": (single_best or {}).get("latency_p99_s"),
        "multi_latency_p99_s": (multi_best or {}).get("latency_p99_s"),
        "multi_stage_seconds": (multi_best or {}).get("stage_seconds"),
        "single_ramp": single_ramp,
        "multi_ramp": multi_ramp,
        "crash": crash,
        "wallclock_seconds": round(wall, 3),
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if shards > 1:
        payload["client_scaling"] = {
            "client_processes": shards,
            "single_client_sustained_rps": single_client_max,
            "sharded_sustained_rps": multi_max,
            "shard_rps": (multi_best or {}).get("shard_rps"),
            "single_client_ramp": single_client_ramp,
        }
    SCALE_OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    scaling_note = (
        f" (1-client fleet {single_client_max:.0f} rps)" if shards > 1 else ""
    )
    print(f"sustained: single-process {single_max:.0f} rps, "
          f"{n_nodes}-process fleet {multi_max:.0f} rps with {shards} "
          f"client process(es){scaling_note}; wrote {SCALE_OUTPUT}")

    failures: list[str] = []
    if multi_max <= 0:
        failures.append("fleet could not sustain the smallest target rate")
    if multi_max < single_max:
        failures.append(
            f"fleet sustained {multi_max:.0f} rps < single-process "
            f"{single_max:.0f} rps at matched node count"
        )
    if shards > 1 and multi_max < single_client_max:
        failures.append(
            f"sharded fleet ({shards} clients) sustained {multi_max:.0f} "
            f"rps < single-client fleet {single_client_max:.0f} rps"
        )
    if not all(
        e["conformant"]
        for e in single_ramp + multi_ramp + single_client_ramp
    ):
        failures.append("a ramp trial diverged from the oracle replay")
    if not crash["conformant"]:
        failures.append(
            f"crash segment diverged: {crash['mismatches'][:3]}"
        )
    if not crash["conserved"]:
        failures.append("crash segment lost requests (conservation)")
    if not crash["killed"]:
        failures.append("crash segment never fired its kill -9")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: reduced ramp, regression gate")
    parser.add_argument("--tcp", action="store_true",
                        help="real TCP on loopback instead of in-process streams")
    parser.add_argument("--m", type=int, default=4, help="identifier width")
    parser.add_argument("--b", type=int, default=1, help="fault-tolerance degree")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per rate (default: 3 full, 1 check)")
    parser.add_argument("--processes", type=int, default=0, metavar="N",
                        help="scale-out benchmark: N worker OS processes "
                        "behind the bootstrap (0 = single-process bench)")
    parser.add_argument("--spawn", default="fork",
                        choices=["fork", "subprocess"],
                        help="how --processes workers are spawned")
    parser.add_argument("--client-processes", type=int, default=1,
                        metavar="K",
                        help="scale-out bench: drive the fleet from K "
                        "forked load-generator processes with disjoint "
                        "entry partitions (1 = single client interpreter); "
                        "adds the client-scaling column and its gate")
    args = parser.parse_args(argv)

    if args.client_processes > 1 and args.processes <= 0:
        parser.error("--client-processes needs --processes N "
                     "(the single-process bench is one interpreter)")

    if args.processes > 0:
        return _bench_scaleout(args)

    if args.check:
        rates = list(CHECK_RATES)
        warmup, duration = CHECK_WARMUP, CHECK_DURATION
        files = CHECK_FILES
        trials = args.trials or 1
    else:
        rates = [800.0, 1600.0, 2400.0, 3200.0, 4800.0, 6400.0,
                 7200.0, 8000.0, 9600.0, 11200.0]
        warmup, duration, files = 2.0, 2.0, 24
        trials = args.trials or 3
    base_config = dict(
        m=args.m, b=args.b, seed=args.seed, tcp=args.tcp,
        capacity=60.0, service_time=0.004, inflight_limit=32,
    )
    mode = "tcp" if args.tcp else "streams"
    label = "fast" if args.check else "full"
    print(f"runtime ramp ({label}, {mode}): m={args.m}, b={args.b}, "
          f"{files} files, {trials} trial(s) x {duration}s per rate, "
          f"p99 SLO {P99_SLO_S*1e3:.0f} ms")

    baseline = _load_baseline() if args.check else None

    wall_start = time.perf_counter()
    ramp: list[dict] = []
    sustained: dict[str, float] = {}
    best: dict[str, dict | None] = {}
    replicas: dict[str, int] = {}
    all_conformant = True
    for codec in PROFILES:
        print(f"{codec}:")
        entries, rps, report, repl, conformant = _ramp_codec(
            codec, rates, base_config, files, warmup, duration, trials,
            args.seed,
        )
        ramp.extend(entries)
        sustained[codec] = rps
        best[codec] = report
        replicas[codec] = repl
        all_conformant = all_conformant and conformant
    wall = time.perf_counter() - wall_start

    json_rps = sustained.get("json-v1", 0.0)
    binary_rps = sustained.get("binary-v2", 0.0)
    speedup = round(binary_rps / json_rps, 2) if json_rps else None
    binary_best = best.get("binary-v2")
    payload = {
        "benchmark": "live-runtime-throughput",
        "grid": label,
        "transport": mode,
        "run_meta": _run_meta(args.m, 1 << args.m, "binary-v2", "single"),
        "m": args.m,
        "b": args.b,
        "files": files,
        "trials_per_rate": trials,
        "warmup_per_rate_s": warmup,
        "duration_per_rate_s": duration,
        "p99_slo_s": P99_SLO_S,
        "sustained_rps": binary_rps,
        "latency_p50_s": binary_best["latency_p50_s"] if binary_best else None,
        "latency_p99_s": binary_best["latency_p99_s"] if binary_best else None,
        "replicas_to_balance": replicas.get("binary-v2", 0),
        "conformant": all_conformant,
        "codecs": {
            codec: {
                "sustained_rps": sustained[codec],
                "latency_p50_s": (best[codec] or {}).get("latency_p50_s"),
                "latency_p99_s": (best[codec] or {}).get("latency_p99_s"),
                "replicas_to_balance": replicas[codec],
            }
            for codec in PROFILES
        },
        "speedup": speedup,
        "ramp": ramp,
        "wallclock_seconds": round(wall, 3),
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if not args.check:
        # The committed full-grid artifact records what the CI smoke is
        # expected to sustain — rps floor plus latency-shape reference,
        # measured with the check grid's own parameters so --check runs
        # compare like with like.
        print("check-grid reference (for the CI regression + shape gates):")
        payload["check_expectation"] = _shape_reference(base_config, args.seed)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    _write_hist_plot(ramp, label, mode)
    print(f"sustained: json-v1 {json_rps:.0f} rps, binary-v2 {binary_rps:.0f} "
          f"rps (speedup {speedup}); wrote {OUTPUT} and {HIST_OUTPUT}")

    if not all_conformant:
        print("FAIL: live run diverged from the oracle replay", file=sys.stderr)
        return 1
    if args.check and (json_rps <= 0 or binary_rps <= 0):
        print("FAIL: could not sustain the smallest target rate", file=sys.stderr)
        return 1
    if args.check:
        failures = _regression_gate(label, sustained, baseline)
        failures.extend(_shape_gate(ramp, baseline))
        if failures:
            for failure in failures:
                print(f"FAIL: regression gate: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
