#!/usr/bin/env python
"""Long-budget invariant fuzzing campaign (nightly job).

Runs the scenario fuzzer far past the tier-1 smoke budget — many seeds
across a grid of (m, b) system shapes and longer event sequences —
shrinks every violation to a replayable repro file, and writes a
machine-readable summary to ``results/fuzz_report.json``.

Usage::

    PYTHONPATH=src python tools/fuzz_nightly.py [--seeds 200] [--events 120]

Exit status is non-zero if any configuration produced a violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.verify import (  # noqa: E402
    FuzzConfig,
    ScenarioFuzzer,
    Shrinker,
    generate_scenario,
    save_repro,
)

def burst_kind(event) -> str | None:
    """Which coverage bucket a ``live_cluster`` event's burst falls in.

    The in-process burst invariants (overload-shed conservation,
    stale-redirect) only audit scenarios whose ``live_cluster`` events
    fire a burst (``rps``), with or without mid-burst churn, so the
    nightly counts both kinds to prove they ran.
    """
    if event.op != "live_cluster" or "rps" not in event.params:
        return None
    return "churned" if event.params.get("burst_churn") else "plain"

DEFAULT_GRID = ((4, 0), (4, 1), (5, 0), (5, 1), (5, 2), (6, 1), (6, 2), (7, 2))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="seeds per (m, b) cell")
    parser.add_argument("--events", type=int, default=120, help="events per scenario")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument(
        "--grid", default=None,
        help="comma-separated m:b cells, e.g. '5:1,6:2' (default: full grid)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("results"),
        help="output directory (report + repro files)",
    )
    args = parser.parse_args(argv)

    if args.grid:
        grid = [
            (int(cell.split(":")[0]), int(cell.split(":")[1]))
            for cell in args.grid.split(",")
        ]
    else:
        grid = list(DEFAULT_GRID)

    args.out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    cells = []
    total_violations = 0
    for m, b in grid:
        config = FuzzConfig(
            seeds=args.seeds, m=m, b=b, events=args.events,
            base_seed=args.base_seed,
        )
        t0 = time.time()
        report = ScenarioFuzzer().fuzz(config)
        elapsed = time.time() - t0
        cell = report.to_dict()
        cell["elapsed_s"] = round(elapsed, 2)
        # Generation is seed-deterministic: re-derive the campaign's
        # scenarios to tally how many live bursts each cell carried.
        coverage = {"plain": 0, "churned": 0}
        for s in range(args.base_seed, args.base_seed + args.seeds):
            for e in generate_scenario(seed=s, m=m, b=b, n_events=args.events).events:
                kind = burst_kind(e)
                if kind is not None:
                    coverage[kind] += 1
        cell["live_burst_coverage"] = coverage
        cell["repros"] = []
        for violation in report.violations:
            total_violations += 1
            shrinker = Shrinker()
            minimized, shrunk = shrinker.shrink(violation.scenario, violation)
            path = save_repro(
                args.out / f"repro_m{m}b{b}_seed{violation.seed}_{shrunk.invariant}.json",
                minimized,
                shrunk,
            )
            cell["repros"].append(
                {
                    "path": str(path),
                    "events": len(minimized.events),
                    "shrink_runs": shrinker.runs,
                }
            )
        cells.append(cell)
        status = "ok" if report.ok else f"{len(report.violations)} VIOLATIONS"
        print(
            f"m={m} b={b}: {report.scenarios} scenarios, "
            f"{report.checks} checks, "
            f"{coverage['plain']} plain / "
            f"{coverage['churned']} churned bursts, "
            f"{elapsed:.1f}s — {status}"
        )

    summary = {
        "elapsed_s": round(time.time() - started, 2),
        "total_violations": total_violations,
        "cells": cells,
    }
    report_path = args.out / "fuzz_report.json"
    report_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"report written to {report_path}")
    return 1 if total_violations else 0


if __name__ == "__main__":
    sys.exit(main())
