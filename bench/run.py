#!/usr/bin/env python3
"""Run the benchmark: ``python3 bench/run.py [--workload W] [--seed S] [--trace 0|1]``.

Each workload runs in its own subprocess under a hard deadline.  The
subprocess builds the cluster, measures, checks the run for correctness
and writes a self-describing run directory under ``bench/results/``;
this process prints every metric by name with its unit and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  An incorrect run prints no metrics, names the failed
check and exits non-zero; so does a workload that outlives its deadline,
after its whole process group has been killed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if sys.path and Path(sys.path[0]).resolve() == ROOT / "bench":
    # Run as a script: its own directory would put bench/trace.py ahead
    # of the standard library's ``trace``; the repo root goes there.
    sys.path[0] = str(ROOT)

try:
    import bench  # noqa: F401  (puts src/ on sys.path)
    from bench import calibrate, layers, spec, workloads
    from bench.calibrate import quantile
    from bench.trace import CPU_SPANS, SpanTotals
except ImportError as exc:  # a checkout without src/ cannot run
    sys.exit(f"bench/run.py: cannot import the runtime under test: {exc}")

RESULTS = ROOT / "bench" / "results"
DEADLINE_CAP_S = 170.0
"""No workload may outlive this, whatever ``--seconds`` says."""

CHILD_ENV = {
    # String hashing decides dict and set layout, and with it a
    # per-process share of the run-to-run spread.
    "PYTHONHASHSEED": "0",
    # glibc gives the top of the heap back to the kernel and takes it
    # again, depending on what happens to sit there: asyncio allocates a
    # 256 KiB buffer per socket read, and the same commit ran steady_get
    # at 3100 or at 4500 req/s for minutes at a time, switching within a
    # run.  Never trimming, and serving those buffers from the heap, pins
    # the fast state (forked fleet workers inherit it).
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_MMAP_THRESHOLD_": str(1 << 25),
    "MALLOC_TOP_PAD_": str(1 << 24),
}
"""Environment of every workload subprocess: part of the time base."""


def run_seconds_default() -> float:
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20.0


# -- metrics ----------------------------------------------------------------

def window_figures(workload: spec.Workload, out: workloads.Outcome) -> dict[str, float]:
    """Rates, costs and latency figures of one outcome's window."""
    report = out.report
    stats = calibrate.summarise(
        out.slices, normalise_times=workload.time_base == "normalised"
    )
    latencies = stats.latencies_s
    throughput, cpu_us = stats.throughput_rps, stats.cpu_us_per_req
    raw_throughput, raw_cpu_us = stats.raw_throughput_rps, stats.raw_cpu_us_per_req
    if workload.loop == "open":
        # The open loop has one transient, not a steady state: totals
        # over the window, not medians over its one-second slices.
        latencies = report.latencies
        done = max(1, report.completed)
        throughput = raw_throughput = report.achieved_rps
        cpu_us = sum(s.cpu_s * s.factor for s in out.slices) / done * 1e6
        raw_cpu_us = sum(s.cpu_s for s in out.slices) / done * 1e6
    served = sum(out.served.values())
    within = sum(1 for lat in latencies if lat <= spec.SLO_S)
    gets = max(1, len(latencies))
    # UPDATEs count as within the limit by the same rule as GETs.
    within += sum(1 for lat in out.update_latencies if lat <= spec.SLO_S)
    return {
        "lat_p50_ms": quantile(latencies, 0.5) * 1e3,
        "lat_p90_ms": quantile(latencies, 0.9) * 1e3,
        "lat_p99_ms": quantile(latencies, 0.99) * 1e3,
        "lat_samples": float(gets),
        "update_p50_ms": quantile(out.update_latencies, 0.5) * 1e3,
        "slo_ok_frac": within / max(1, report.requests),
        "throughput_rps": throughput,
        "cpu_us_per_req": cpu_us,
        "raw_throughput_rps": raw_throughput,
        "raw_cpu_us_per_req": raw_cpu_us,
        "ok_frac": report.completed / max(1, report.requests),
        "max_node_share": max(out.served.values()) / served if served else 0.0,
    }


def end_to_end(
    out: workloads.Outcome, fig: dict[str, float], setup_s: float,
) -> dict[str, float]:
    """The nine end-to-end metrics from one untraced outcome and its
    :func:`window_figures`."""
    return {
        "setup_s": setup_s,
        "lat_p50_ms": fig["lat_p50_ms"],
        "slo_ok_frac": fig["slo_ok_frac"],
        "throughput_rps": fig["throughput_rps"],
        "cpu_us_per_req": fig["cpu_us_per_req"],
        "ok_frac": fig["ok_frac"],
        "copies_total": float(out.copies_total),
        "max_node_share": fig["max_node_share"],
        "peak_rss_mb": out.peak_rss_mb,
    }


def _balance_s(out: workloads.Outcome) -> float:
    """Seconds until 90% of the run's final replica count existed."""
    if not out.replica_times:
        return 0.0
    final = out.replica_times[-1][1]
    for when, count in out.replica_times:
        if count >= 0.9 * final:
            return when
    return 0.0


def per_layer(
    workload: spec.Workload, plain: workloads.Outcome, traced: workloads.Outcome,
    fig: dict[str, float],
) -> dict[str, float]:
    """Every per-layer figure: counters and samples from the untraced
    window (``fig`` is its :func:`window_figures`), spans and driven
    layers from the traced one."""
    tfig = window_figures(workload, traced)
    report = plain.report
    done = max(1, report.completed)
    tdone = max(1, traced.report.completed)
    spins = [s for piece in plain.slices for s in piece.spins]
    speed, spread = calibrate.host_speed(spins)
    assert traced.tracer is not None
    totals = traced.tracer.totals()

    def span(name: str) -> SpanTotals:
        return totals.get(name, SpanTotals())

    # Budget of the traced window, raw seconds against raw seconds.
    attributed = sum(span(name).self_s for name in CPU_SPANS)
    window_cpu = sum(s.cpu_s for s in traced.slices)
    if workload.fleet:
        serves = traced.timers.get("stage_serves", 0.0)
        share = sum(traced.served.values()) / serves if serves else 0.0
        attributed += share * sum(traced.stage_s.values())
        stage_ops = max(1.0, plain.timers.get("stage_serves", 0.0))
    else:
        attributed += sum(
            traced.stage_s.get(k, 0.0) for k in ("decode", "route", "serve")
        )
        stage_ops = float(done)
    cache = plain.routing_cache
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    updates = traced.timers.get("updates", 0.0)
    out = {
        "bench.host_speed": speed,
        "bench.host_speed_spread": spread,
        "bench.gen_late_p90_ms": quantile(plain.lateness_s, 0.9) * 1e3,
        "bench.trace_overhead_frac": (
            tfig["cpu_us_per_req"] / fig["cpu_us_per_req"] - 1.0
            if fig["cpu_us_per_req"] else 0.0
        ),
        "bench.unattributed_frac": (
            1.0 - attributed / window_cpu if window_cpu else 0.0
        ),
        "bench.raw_throughput_rps": fig["raw_throughput_rps"],
        "bench.raw_cpu_us_per_req": fig["raw_cpu_us_per_req"],
        "client.lat_p90_ms": fig["lat_p90_ms"],
        "client.lat_p99_ms": fig["lat_p99_ms"],
        "client.update_p50_ms": fig["update_p50_ms"],
        "client.request_us": span("client.request_future").self_us,
        "client.redirects_per_req": report.redirected / max(1, report.requests),
        "client.rerouted": float(report.rerouted),
        "client.timeouts": float(report.timeouts),
        "wire.frames_per_req": span("wire.encode").count / tdone,
        "wire.decode_errors": float(plain.counters.get("wire_decode_errors", 0)),
        "node.inbox_depth_p90": quantile(plain.inbox_depths, 0.9),
        "node.inbox_depth_max": float(max(plain.inbox_depths, default=0)),
        "node.handler_errors": float(plain.counters.get("handler_errors", 0)),
        "node.get_faults": float(plain.counters.get("get_faults", 0)),
        "cluster.send_us_per_frame": span("cluster.send").self_us,
        "cluster.decide_us": span("cluster.decide").mean_us,
        "cluster.decisions": float(span("cluster.decide").count),
        "cluster.decide_probe_us": (
            statistics.median(plain.probes_s) * 1e6
            if plain.probes_s and not workload.fleet else 0.0
        ),
        "cluster.catalog_advance_us": span("cluster.catalog_advance").mean_us,
        "cluster.update_frames_per_update": (
            traced.tracer.update_frames / updates if updates else 0.0
        ),
        "cluster.quiesce_s": plain.timers.get("quiesce_s", 0.0),
        "cluster.oplog_records": float(plain.oplog_records),
        "cluster.replicas_created": float(plain.replicas_created),
        "cluster.balance_s": _balance_s(plain),
        "routing.cache_hit_frac": cache.get("hits", 0) / lookups if lookups else 0.0,
        "overload.shed": float(plain.counters.get("overload_shed", 0)),
        "overload.replies": float(report.overloads),
        "overload.redirect_ok_frac": (
            report.redirected / report.overloads if report.overloads else 0.0
        ),
        "overload.stale_sheds": float(report.stale_sheds),
        "conformance.replay_s": plain.timers.get("replay_s", 0.0),
        "conformance.mismatches": plain.timers.get("mismatches", 0.0),
        "scaleout.boot_s": plain.timers.get("boot_s", 0.0),
        "scaleout.shutdown_s": plain.timers.get("shutdown_s", 0.0),
        "scaleout.snapshot_s": plain.timers.get("snapshot_s", 0.0),
        "scaleout.worker_cpu_us_per_req": (
            plain.cpu_split.get("workers", 0.0) / done * 1e6
        ),
        "scaleout.driver_cpu_us_per_req": (
            plain.cpu_split.get("driver", 0.0) / done * 1e6
        ),
        "scaleout.decide_probe_ms": (
            statistics.median(plain.probes_s) * 1e3
            if plain.probes_s and workload.fleet else 0.0
        ),
        "scaleout.control_call_us": span("scaleout.control_call").mean_us,
        "scaleout.goodbyes_missing": float(plain.goodbyes_missing),
    }
    for stage in ("encode", "decode", "route", "serve"):
        out[f"node.{stage}_us_per_req"] = (
            plain.stage_s.get(stage, 0.0) / stage_ops * 1e6
        )
    out.update(layers.drive(traced, workload))
    # A layer the workload never enters reads 0.
    return {name: out.get(name, 0.0) for name, _unit, _on in spec.PER_LAYER}


# -- the child: one workload, one process --------------------------------------

def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            # A checkout that is no repository is "nogit", whatever
            # repository its parent directories happen to sit in.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "nogit"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "nogit"


def _config_snapshot(args: argparse.Namespace, workload: spec.Workload) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "time_base": workload.time_base,
        "parameters": {
            k: getattr(workload, k)
            for k in (
                "m", "files", "shape", "loop", "outstanding", "rate_rps",
                "warmup_ops", "update_share", "preseed_hot", "preseed_copies",
                "fleet", "probe_decisions", "setup_reps", "config",
            )
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "slices": args.slices,
        "trace": args.trace,
        "slice_ops": spec.SLICE_OPS,
        "slo_s": spec.SLO_S,
        "ref_spin_s": calibrate.REF_SPIN_S,
        "spin_builds": calibrate.SPIN_BUILDS,
        "spin_round_trips": calibrate.SPIN_ROUND_TRIPS,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _unexpected_ends(workload: spec.Workload, report) -> int:
    """Operations that ended where the workload does not expect them to."""
    if workload.sheds:
        # Admission control answering OVERLOAD is this workload working,
        # and ok_frac carries it; only an unexpected end is a failure.
        return report.timeouts + report.faults + report.errors + report.churn_lost
    return report.requests - report.completed


def _print_metrics(
    workload: spec.Workload, args: argparse.Namespace, values: dict[str, float],
    raw: dict[str, float], units: dict[str, str], footer: str,
) -> None:
    applies = {name: on for name, _unit, on in spec.PER_LAYER}
    print(f"== {workload.name} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'} "
          f"({workload.time_base} time base) ==")
    for name, value in values.items():
        note = ""
        if name in raw:
            note = f"   (raw {raw[name]:.6g})"
        elif workload.name not in applies.get(name, (workload.name,)):
            note = "   (not entered by this workload)"
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    print(footer)


def _write_run(
    out_dir: Path, workload: spec.Workload, args: argparse.Namespace,
    config: dict, values: dict[str, float], raw: dict[str, float],
    units: dict[str, str], outcomes: list[workloads.Outcome],
    setups: list[tuple[float, tuple[float, float]]],
) -> None:
    """metrics.json, slices.jsonl, spans.jsonl and the history line."""
    plain = outcomes[0]
    (out_dir / f"{workload.name}.metrics.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "normalised": values, "raw": raw,
        "setups": [
            {"seconds": sec, "spins_s": list(spins)} for sec, spins in setups
        ],
        "host_speed": calibrate.host_speed(
            [s for piece in plain.slices for s in piece.spins]
        )[0],
        "units": {name: units[name] for name in values},
    }, indent=1))
    with (out_dir / f"{workload.name}.slices.jsonl").open("w") as fh:
        for out in outcomes:
            for i, piece in enumerate(out.slices):
                fh.write(json.dumps({"traced": out.traced, **piece.row(i)}) + "\n")
    tracer = outcomes[-1].tracer
    if tracer is not None:
        tracer.write(out_dir / f"{workload.name}.spans.jsonl")
        config["stream_sha256"] = tracer.stream_digest()
        config["spans_recorded"] = len(tracer.spans)
        (out_dir / f"{workload.name}.config.json").write_text(
            json.dumps(config, indent=1)
        )
    with (out_dir.parent / "history.jsonl").open("a") as fh:
        fh.write(json.dumps({
            "run": out_dir.name, "utc": config["utc"],
            "git_sha": config["git_sha"], "workload": workload.name,
            "seed": args.seed, "trace": args.trace, "metrics": values,
        }) + "\n")


def child(args: argparse.Namespace) -> int:
    """Measure one workload in this process; 0 when the run is correct."""
    workload = spec.WORKLOADS[args.workload]
    out_dir = Path(args.out)
    phase_file = out_dir / f"{workload.name}.phase"

    def phase(name: str) -> None:
        phase_file.write_text(name)

    config = _config_snapshot(args, workload)
    (out_dir / f"{workload.name}.config.json").write_text(json.dumps(config, indent=1))
    samples = []
    if args.trace:
        outcomes = [
            workloads.measure(
                workload, args.seed, args.seconds / 2, args.slices, traced, phase
            )
            for traced in (False, True)
        ]
    else:
        for rep in range(workload.setup_reps - 1):
            phase(f"set-up repetition {rep}")
            samples.append(workloads.setup_once(workload))
        outcomes = [workloads.measure(
            workload, args.seed, args.seconds, args.slices, False, phase
        )]
        samples.append(outcomes[0].setup)
    phase("report")
    plain = outcomes[0]
    failed_checks = [c for out in outcomes for c in out.failed_checks]
    late = quantile(plain.lateness_s, 0.9) * 1e3
    if workload.loop == "open" and late > spec.GEN_LATE_LIMIT_MS:
        failed_checks.append(f"generator-lateness: p90 {late:.2f} ms")
    result: dict = {
        "correct": not failed_checks,
        "attempted": sum(out.report.requests for out in outcomes),
        "failed": sum(_unexpected_ends(workload, out.report) for out in outcomes),
        "metrics": {},
    }
    for check in failed_checks:
        print(f"bench: {workload.name}: FAILED CHECK {check}", file=sys.stderr)
    if not failed_checks:
        units = dict(spec.END_TO_END) | {n: u for n, u, _on in spec.PER_LAYER}
        fig = window_figures(workload, plain)
        raw: dict[str, float] = {}
        if args.trace:
            values = per_layer(workload, plain, outcomes[1], fig)
        else:
            setup_s, raw_setup_s = workloads.median_setup(samples)
            values = end_to_end(plain, fig, setup_s)
            raw = {
                "setup_s": raw_setup_s,
                "throughput_rps": fig["raw_throughput_rps"],
                "cpu_us_per_req": fig["raw_cpu_us_per_req"],
            }
        result["metrics"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        }
        _print_metrics(
            workload, args, values, raw, units,
            f"  latency samples: {int(fig['lat_samples'])}, attempted "
            f"{result['attempted']}, failed {result['failed']}",
        )
        _write_run(
            out_dir, workload, args, config, values, raw, units, outcomes, samples
        )
    (out_dir / f"{workload.name}.result.json").write_text(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


# -- the parent: subprocess, deadline, printing ---------------------------------

def _new_run_dir(results: Path, seed: int) -> Path:
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    base = f"{stamp}-{_git_sha()}-{seed}"
    for attempt in range(1000):
        path = results / (base if attempt == 0 else f"{base}-{attempt}")
        try:
            path.mkdir()
        except FileExistsError:
            continue
        return path
    raise RuntimeError(f"cannot create a run directory under {results}")


def deadline_s(workload: spec.Workload, seconds: float) -> float:
    """Three times the expected wall time of one workload's subprocess:
    the window, the repeated set-ups, teardown and the driven layers."""
    per_setup = 1.0 if workload.fleet else 0.4
    expected = seconds + per_setup * workload.setup_reps + 8.0
    return min(DEADLINE_CAP_S, 3.0 * expected)


def run_workload(args: argparse.Namespace, workload: spec.Workload, out_dir: Path) -> dict | None:
    """Run one workload's subprocess; its result, or ``None`` if it
    failed, crashed or was killed at its deadline."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload.name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--slices", str(args.slices), "--out", str(out_dir),
    ]
    limit = deadline_s(workload, args.seconds)
    env = {**os.environ, **CHILD_ENV}
    proc = subprocess.Popen(command, start_new_session=True, env=env)

    def kill_group() -> None:
        try:  # the child leads its own session: this reaches its fleet too
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    try:
        code = proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        kill_group()
        phase_file = out_dir / f"{workload.name}.phase"
        where = phase_file.read_text() if phase_file.exists() else "start"
        print(f"bench: {workload.name}: killed after {limit:.0f} s "
              f"in phase '{where}'", file=sys.stderr)
        return None
    except BaseException:
        kill_group()
        raise
    result_file = out_dir / f"{workload.name}.result.json"
    if not result_file.exists():
        print(f"bench: {workload.name}: subprocess exited {code} "
              f"without a result", file=sys.stderr)
        return None
    result = json.loads(result_file.read_text())
    if code != 0 or not result.get("correct"):
        return None
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=run_seconds_default(),
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--slices", type=int, default=0,
                        help="measure exactly this many slices instead of "
                             "--seconds (smoke tests)")
    parser.add_argument("--results", default=str(RESULTS),
                        help="where run directories go")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.slices < 0:
        parser.error("--seconds must be positive and --slices non-negative")
    if args.child:
        return child(args)
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = _new_run_dir(Path(args.results), args.seed)
    status = 0
    for name in names:
        started = time.monotonic()
        result = run_workload(args, spec.WORKLOADS[name], out_dir)
        sys.stdout.flush()
        if result is None:
            status = 1
            continue
        print(f"  [{name}: {time.monotonic() - started:.1f} s, "
              f"results in {out_dir}]")
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
