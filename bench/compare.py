#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``python3 bench/compare.py A B``.

``A`` and ``B`` are directories that hold run directories (what
``bench/run.py --results DIR`` fills); every untraced run found beneath
each is one sample.  For each workload and end-to-end metric this prints
both medians with their quartiles, how much worse ``B`` reads than ``A``
as a share of ``A``'s median, the bound committed in ``BENCHMARK.json``
and a verdict:

``ok``          ``B``'s median is not worse than ``A``'s by more than the bound;
``worse``       it is;
``unresolved``  the run-to-run spread of either set is wider than the
                bound, so the medians cannot settle it — unless every
                run of ``B`` reads better than every run of ``A``.

Exit status 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per untraced run under ``path``;
    ``host_speed`` rides along as a pseudo-metric."""
    out: dict[str, dict[str, list[float]]] = {}
    for file in sorted(path.rglob("*.metrics.json")):
        data = json.loads(file.read_text())
        if data.get("trace"):
            continue
        metrics = out.setdefault(data["workload"], {})
        for name, value in data["normalised"].items():
            metrics.setdefault(name, []).append(float(value))
        metrics.setdefault("host_speed", []).append(float(data["host_speed"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """(how much worse B's median is, as a share of A's; the verdict)."""
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread = max(
        (qa[2] - qa[0]) / abs(med_a) if med_a else 0.0,
        (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0,
    )
    if spread > bound:
        b_always_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        if not b_always_better:
            return worse_by, "unresolved"
    return worse_by, "worse" if worse_by > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_a, set_b = load_set(Path(argv[0])), load_set(Path(argv[1]))
    status = 0
    for workload in (w["name"] for w in declared["workloads"]):
        a, b = set_a.get(workload), set_b.get(workload)
        if not a or not b:
            print(f"{workload}: no untraced runs in "
                  f"{'A' if not a else 'B'}; skipped")
            continue
        speed_a = statistics.median(a["host_speed"])
        speed_b = statistics.median(b["host_speed"])
        print(f"{workload}: {len(a['host_speed'])} runs in A "
              f"(host speed {speed_a:.3f}), {len(b['host_speed'])} in B "
              f"(host speed {speed_b:.3f})")
        print(f"  {'metric':16s} {'A q1':>10s} {'A med':>10s} {'A q3':>10s} "
              f"{'B q1':>10s} {'B med':>10s} {'B q3':>10s} "
              f"{'worse by':>9s} {'bound':>6s}  verdict")
        for metric in declared["end_to_end"]:
            name = metric["name"]
            if name not in a or name not in b:
                continue
            worse_by, word = verdict(a[name], b[name], metric["better"], metric["bound"])
            if word == "worse":
                status = 1
            qa, qb = quartiles(a[name]), quartiles(b[name])
            print(f"  {name:16s} {qa[0]:10.5g} {qa[1]:10.5g} {qa[2]:10.5g} "
                  f"{qb[0]:10.5g} {qb[1]:10.5g} {qb[2]:10.5g} "
                  f"{worse_by:+9.2%} {metric['bound']:6.2f}  {word}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
