#!/usr/bin/env python
"""Benchmark the overload control plane under a flash crowd, per policy cell.

Boots a live cluster per trial and drives a *flash crowd* — a heavily
skewed Zipf GET workload (``s=2.0``) over a small file set, so one hot
file's home node takes the brunt — through the open-loop generator at a
ramp of target rates.  The ramp runs once for every cell of the
admission-policy grid (shed x queue x victim, 12 cells) plus a
``no-control`` baseline with the bounded inbox disabled
(``inbox_limit=0``): the runtime exactly as it behaves without the
overload control plane.

A rate is *sustained* for a cell when every trial:

* completes with no client timeouts,
* keeps p99 completion latency within the SLO (50 ms) — for policy
  cells this includes redirect-and-retry time, so shedding only wins
  when the hint lands somewhere that can actually serve,
* delivers goodput (completed requests/s) of at least 75% of the
  target rate — a cell cannot "sustain" by refusing everyone,
* conserves the request ledger
  (``requests == completed + faults + errors + timeouts + shed``), and
* replays conformantly against the synchronous oracle.

The ramp for a cell stops at its first unsustained rate.  All
configurations run the *serialized* inbox consumer (``batch_max=1``),
where per-node service capacity is a real resource (``1/service_time``
requests/second) rather than an overlapped delay — a node genuinely
melts when the crowd lands on it.  The rate-based replication trigger
is disabled (``capacity`` huge) so the only escape valve is the
SLO-aware trigger: its windowed-p99 budget (20 ms) is deliberately
tighter than the client SLO (50 ms), because a bounded inbox holds the
*served* latency near ``inbox_limit x service_time`` — a budget looser
than that would never fire and the control plane would starve its own
escape valve.  Only admission control differs between configurations,
so the comparison isolates the shed/queue/victim policy itself.

Results go to ``BENCH_overload.json`` at the repo root: per-cell
sustained rps at the 50 ms SLO, the best policy cell, and the full ramp
with shed/overload/redirect accounting per entry.

Usage::

    PYTHONPATH=src python tools/bench_overload.py            # full grid
    PYTHONPATH=src python tools/bench_overload.py --check    # CI smoke
    PYTHONPATH=src python tools/bench_overload.py --churn    # churned grid

``--check`` runs a reduced ramp and exits non-zero when any trial in
any cell breaks ledger conservation or oracle conformance, when no
configuration sustains the smallest rate, or when every policy cell
sustains strictly less than the no-control baseline (the control plane
must never be the bottleneck it was built to remove).

``--churn`` reruns the grid with silent mid-burst crashes
(:class:`ChurnInjector`, ``crash(pid, announce=False)``) landing in the
middle half of every measured burst, against a churned no-control
baseline; results go to ``BENCH_overload_churn.json``.  The request
ledger gains the ``churn_lost`` terminal
(``requests == completed + faults + errors + timeouts + shed +
churn_lost``) and the autopsy announce runs between generator close and
the conformance replay, so every cell must stay conserved *and*
conformant despite nodes dying under load.  Composes with ``--check``
for the CI smoke gate.
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
    ChurnInjector,
    LiveCluster,
    LoadGenerator,
    RuntimeClient,
    RuntimeConfig,
    WorkloadShape,
    diff_states,
    policy_grid,
    replay_oplog,
)

OUTPUT = REPO_ROOT / "BENCH_overload.json"
OUTPUT_CHURN = REPO_ROOT / "BENCH_overload_churn.json"

#: Latency SLO: a rate only counts as sustained while every trial's p99
#: (including redirect retries) stays under this.
P99_SLO_S = 0.050

#: Minimum goodput (completed rps / target rps) for a sustained rate.
GOODPUT_FLOOR = 0.75

#: The no-control baseline's label in the grid.
BASELINE = "no-control"

#: Flash-crowd shape: a steep Zipf over few files concentrates load on
#: one home node until replication and redirects spread it.
ZIPF_S = 2.0

#: Simulated storage read, and the per-node capacity it implies under
#: the serialized consumer: 1/0.01 = 100 requests/second.
SERVICE_TIME_S = 0.010

#: Windowed-p99 budget for the SLO-aware replication trigger.  Tighter
#: than the client SLO on purpose (see the module docstring).
SLO_BUDGET_S = 0.020

CHECK_RATES = [200.0, 300.0]
CHECK_WARMUP, CHECK_DURATION, CHECK_FILES = 0.3, 0.5, 4
FULL_RATES = [200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0]
FULL_WARMUP, FULL_DURATION, FULL_FILES = 0.4, 1.0, 4


def _run_meta(m: int, node_count: int, codec: str, process_mode: str,
              client_processes: int = 1) -> dict:
    """Reproducibility metadata carried by every benchmark artifact."""
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


def _configs(args: argparse.Namespace) -> dict[str, RuntimeConfig]:
    """One RuntimeConfig per grid cell, plus the no-control baseline."""
    base = dict(
        m=args.m, b=args.b, seed=args.seed, tcp=args.tcp,
        capacity=100_000.0, service_time=SERVICE_TIME_S, batch_max=1,
        slo_budget=SLO_BUDGET_S,
    )
    configs = {BASELINE: RuntimeConfig(**base, inbox_limit=0)}
    for policy in policy_grid():
        configs[policy.cell] = RuntimeConfig(
            **base,
            inbox_limit=args.inbox_limit,
            shed_policy=policy.shed,
            queue_policy=policy.queue,
            victim_policy=policy.victim,
        )
    return configs


async def _run_trial(
    config: RuntimeConfig,
    files: int,
    rps: float,
    warmup: float,
    duration: float,
    seed: int,
    churn_kills: int = 0,
) -> tuple[dict, int, int, bool]:
    """One fresh cluster, one cell, one target rate, one trial.

    With ``churn_kills`` nonzero, that many *silent* crashes
    (``crash(pid, announce=False)``) land inside the middle half of the
    measured burst on a seeded schedule; the announce half (recovery,
    oplog close) runs as an autopsy after
    the generator closes, so the conformance replay still sees a fully
    self-organized membership.

    Returns (report dict + ``conserved``, replicas created, total GETs
    shed server-side, conformant?).
    """
    cluster = await LiveCluster.start(config)
    try:
        names = [f"crowd-{i}.dat" for i in range(files)]
        boot = await RuntimeClient(cluster, min(cluster.nodes)).connect()
        for name in names:
            await boot.insert(name, f"payload of {name}")
        await boot.close()
        await cluster.drain()
        gen = LoadGenerator(
            cluster, names, WorkloadShape(kind="zipf", s=ZIPF_S),
            seed=seed, timeout=2.0,
        )
        if warmup > 0:
            await gen.run_open_loop(rps=rps, duration=warmup)
        injector = None
        if churn_kills:
            injector = ChurnInjector.scheduled(
                cluster, duration, kills=churn_kills, seed=seed, min_live=3,
            )
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            if injector is not None:
                injector.start()
            report = await gen.run_open_loop(rps=rps, duration=duration)
        finally:
            if gc_was_enabled:
                gc.enable()
        await gen.close()
        applied: list[dict] = []
        if injector is not None:
            applied = await injector.finalize()
        await cluster.quiesce()
        shed_total = sum(node.shed_total for node in cluster.nodes.values())
        system = replay_oplog(cluster.oplog, config, cluster.initial_live)
        system.check_invariants()
        conformance = diff_states(cluster, system)
        entry = {**report.as_dict(), "conserved": report.conserved}
        if injector is not None:
            entry["churn"] = [
                f"{e['action']}@P({e['pid']})" for e in applied
            ]
        return entry, cluster.replicas_created(), shed_total, conformance.ok
    finally:
        await cluster.shutdown()


def _ramp_cell(
    cell: str,
    config: RuntimeConfig,
    rates: list[float],
    files: int,
    warmup: float,
    duration: float,
    trials: int,
    seed: int,
    churn_kills: int = 0,
) -> tuple[list[dict], float, bool, bool]:
    """Ramp one cell; stop at its first unsustained rate.

    Returns (ramp entries, sustained rps, every trial conserved?,
    every trial conformant?).
    """
    ramp: list[dict] = []
    sustained_rps = 0.0
    all_conserved = True
    all_conformant = True
    for rps in rates:
        reports: list[dict] = []
        replicas = 0
        shed_total = 0
        conformant = True
        for trial in range(trials):
            report, repl, shed, ok = asyncio.run(
                _run_trial(config, files, rps, warmup, duration,
                           seed + trial, churn_kills)
            )
            reports.append(report)
            replicas = max(replicas, repl)
            shed_total += shed
            conformant = conformant and ok
        conserved = all(r["conserved"] for r in reports)
        all_conserved = all_conserved and conserved
        all_conformant = all_conformant and conformant
        p99s = sorted(r["latency_p99_s"] for r in reports)
        median_p99 = p99s[len(p99s) // 2]
        median_report = next(
            r for r in reports if r["latency_p99_s"] == median_p99
        )
        goodput = all(
            r["requests"] > 0
            and r["completed"] / max(r["duration_s"], 1e-9)
            >= GOODPUT_FLOOR * rps
            for r in reports
        )
        complete = all(r["timeouts"] == 0 for r in reports)
        sustained = (
            complete and goodput and conserved and conformant
            and median_p99 <= P99_SLO_S
        )
        ramp.append({
            "cell": cell,
            "target_rps": rps,
            "sustained": sustained,
            "conformant": conformant,
            "replicas_to_balance": replicas,
            "shed_server_side": shed_total,
            "trial_p99_s": p99s,
            **median_report,
        })
        marker = "ok " if sustained else "SAT"
        churn_note = ""
        if churn_kills:
            churn_note = (f"churn_lost {median_report.get('churn_lost', 0):3d}, "
                          f"rerouted {median_report.get('rerouted', 0):3d}, ")
        print(f"  {marker} {cell:28s} target {rps:6.0f} rps -> "
              f"goodput {median_report['completed'] / max(median_report['duration_s'], 1e-9):7.1f} rps, "
              f"p99 {median_p99 * 1e3:7.2f} ms, "
              f"shed {median_report['shed']:4d}, "
              f"overloads {median_report['overloads']:4d}, "
              f"redirected {median_report['redirected']:4d}, "
              f"{churn_note}"
              f"conserved={conserved}, conformant={conformant}")
        if sustained and rps > sustained_rps:
            sustained_rps = rps
        if not sustained:
            break
    return ramp, sustained_rps, all_conserved, all_conformant


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: reduced ramp, conservation + "
                        "baseline gates")
    parser.add_argument("--tcp", action="store_true",
                        help="real TCP on loopback instead of in-process "
                        "streams")
    parser.add_argument("--m", type=int, default=3, help="identifier width")
    parser.add_argument("--b", type=int, default=1,
                        help="fault-tolerance degree")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inbox-limit", type=int, default=2,
                        help="bounded-inbox depth for the policy cells")
    parser.add_argument("--trials", type=int, default=1,
                        help="trials per rate")
    parser.add_argument("--churn", action="store_true",
                        help="silent mid-burst crashes per trial; results "
                        "go to BENCH_overload_churn.json")
    parser.add_argument("--churn-kills", type=int, default=2,
                        help="silent crashes per churned trial")
    args = parser.parse_args(argv)

    if args.check:
        rates, files = list(CHECK_RATES), CHECK_FILES
        warmup, duration = CHECK_WARMUP, CHECK_DURATION
    else:
        rates, files = list(FULL_RATES), FULL_FILES
        warmup, duration = FULL_WARMUP, FULL_DURATION

    mode = "tcp" if args.tcp else "streams"
    label = "fast" if args.check else "full"
    churn_kills = args.churn_kills if args.churn else 0
    configs = _configs(args)
    churn_note = (f", {churn_kills} silent mid-burst crash(es)/trial"
                  if churn_kills else "")
    print(f"flash-crowd ramp ({label}, {mode}): m={args.m}, b={args.b}, "
          f"{files} files, zipf s={ZIPF_S}, inbox_limit={args.inbox_limit}, "
          f"{args.trials} trial(s) x {duration}s per rate, "
          f"p99 SLO {P99_SLO_S * 1e3:.0f} ms, "
          f"goodput floor {GOODPUT_FLOOR:.0%}{churn_note}")

    wall_start = time.perf_counter()
    ramp: list[dict] = []
    sustained: dict[str, float] = {}
    all_conserved = True
    all_conformant = True
    for cell, config in configs.items():
        print(f"{cell}:")
        entries, rps, conserved, conformant = _ramp_cell(
            cell, config, rates, files, warmup, duration, args.trials,
            args.seed, churn_kills,
        )
        ramp.extend(entries)
        sustained[cell] = rps
        all_conserved = all_conserved and conserved
        all_conformant = all_conformant and conformant
    wall = time.perf_counter() - wall_start

    baseline_rps = sustained.get(BASELINE, 0.0)
    cells = {name: rps for name, rps in sustained.items() if name != BASELINE}
    best_cell = max(cells, key=lambda name: cells[name]) if cells else None
    best_rps = cells.get(best_cell, 0.0) if best_cell else 0.0
    payload = {
        "benchmark": ("overload-flash-crowd-churn" if churn_kills
                      else "overload-flash-crowd"),
        "grid": label,
        "transport": mode,
        "run_meta": _run_meta(args.m, 1 << args.m, "binary-v2", "single"),
        "m": args.m,
        "b": args.b,
        "files": files,
        "zipf_s": ZIPF_S,
        "inbox_limit": args.inbox_limit,
        "churn_kills_per_trial": churn_kills,
        "trials_per_rate": args.trials,
        "warmup_per_rate_s": warmup,
        "duration_per_rate_s": duration,
        "p99_slo_s": P99_SLO_S,
        "goodput_floor": GOODPUT_FLOOR,
        "baseline_sustained_rps": baseline_rps,
        "best_cell": best_cell,
        "best_cell_sustained_rps": best_rps,
        "conserved": all_conserved,
        "conformant": all_conformant,
        "cells": {
            name: {"sustained_rps": rps} for name, rps in sustained.items()
        },
        "ramp": ramp,
        "wallclock_seconds": round(wall, 3),
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    output = OUTPUT_CHURN if churn_kills else OUTPUT
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"sustained: baseline {baseline_rps:.0f} rps, best cell "
          f"{best_cell} {best_rps:.0f} rps; wrote {output}")

    if not all_conserved:
        print("FAIL: a trial broke request-ledger conservation",
              file=sys.stderr)
        return 1
    if not all_conformant:
        print("FAIL: a live run diverged from the oracle replay",
              file=sys.stderr)
        return 1
    if max(sustained.values(), default=0.0) <= 0:
        print("FAIL: no configuration sustained the smallest target rate",
              file=sys.stderr)
        return 1
    if best_rps < baseline_rps:
        print(f"FAIL: every policy cell sustains less than the no-control "
              f"baseline ({best_rps:.0f} < {baseline_rps:.0f} rps)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
