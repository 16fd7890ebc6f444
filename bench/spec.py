"""What the benchmark runs and what it reports: workloads and metric names.

``BENCHMARK.json`` at the repo root carries the names, units, directions
and regression bounds the driver checks; this module is the runner's own
copy of the same names plus what the contract's file has no key for:
workload parameters, the time base of each workload, and which per-layer
metric applies to which workload (``bench/test_bench.py`` holds the two
files to each other).
"""

from __future__ import annotations

from dataclasses import dataclass, field

SLO_S = 0.050
"""A request counts towards ``slo_ok_frac`` when it completes within this."""

SLICE_OPS = 1000
"""Operations per measured slice; a calibration spin sits between slices."""

SAMPLE_PERIOD_S = 0.010
"""Period of the outside sampler (oplog length, inbox depth, lateness)."""

GEN_LATE_LIMIT_MS = 2.0
"""``flash_crowd`` is invalid when the loop ran later than this at p90."""


@dataclass(frozen=True)
class Workload:
    """One named workload: cluster shape, demand shape, loop shape."""

    name: str
    why: str
    time_base: str
    """``normalised`` (CPU-bound: every time is scaled by the adjacent
    spins) or ``wall`` (timer-paced: only ``cpu_us_per_req`` is)."""
    m: int
    files: int
    shape: dict
    loop: str  # closed | open
    outstanding: int = 0
    rate_rps: float = 0.0
    warmup_ops: int = 0
    update_share: float = 0.0
    preseed_hot: int = 0
    """Hottest files pre-seeded to ``preseed_copies`` copies at set-up."""
    preseed_copies: int = 1
    fleet: bool = False
    probe_decisions: int = 0
    setup_reps: int = 5
    config: dict = field(default_factory=dict)
    """``RuntimeConfig`` fields beside ``m``."""

    @property
    def sheds(self) -> bool:
        """Admission control is on: OVERLOAD replies are the workload
        working, not operations failing."""
        return self.config.get("inbox_limit", 0) > 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady_get",
            why="Saturated closed-loop GETs on 32 in-process nodes: every "
                "microsecond is codec, socket, routing, serve and client; "
                "placement, load monitoring and admission do nothing.",
            time_base="normalised",
            m=5, files=512, shape={"kind": "zipf", "s": 1.0},
            loop="closed", outstanding=32, warmup_ops=3000, setup_reps=7,
        ),
        Workload(
            name="flash_crowd",
            why="The paper's experiment live: one holder of a hot file melts, "
                "sheds and redirects while placement spreads copies; paced by "
                "timers at 40% CPU, so codec and routing speed decide nothing.",
            time_base="wall",
            m=5, files=16,
            shape={"kind": "locality", "hot_fraction": 1 / 16, "hot_share": 0.9},
            loop="open", rate_rps=1000.0, setup_reps=15,
            config={
                "capacity": 60.0, "window": 1.0, "cooldown": 0.1,
                "service_time": 0.004, "batch_max": 1, "inbox_limit": 8,
            },
        ),
        Workload(
            name="read_write_mix",
            why="64 replicas used both ways: each copy that shortens a GET "
                "widens an UPDATE's top-down broadcast; a read gain that "
                "costs writes shows here and nowhere else.",
            time_base="normalised",
            m=5, files=128, shape={"kind": "zipf", "s": 1.0},
            loop="closed", outstanding=32, warmup_ops=2000,
            update_share=0.2, preseed_hot=16, preseed_copies=5, setup_reps=9,
        ),
        Workload(
            name="fleet_get",
            why="The steady path across 8 real worker processes: loopback "
                "TCP, one routing cache per process, the control link and "
                "the decision RPC, which only show outside one process.",
            time_base="normalised",
            m=3, files=128, shape={"kind": "zipf", "s": 1.0},
            loop="closed", outstanding=16, warmup_ops=1000,
            fleet=True, probe_decisions=16, setup_reps=13,
        ),
    )
}

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("slo_ok_frac", "ratio"),
    ("throughput_rps", "ops/s"),
    ("cpu_us_per_req", "us"),
    ("ok_frac", "ratio"),
    ("copies_total", "count"),
    ("max_node_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

_ALL = ("steady_get", "flash_crowd", "read_write_mix", "fleet_get")
_IN_PROCESS = ("steady_get", "flash_crowd", "read_write_mix")
_FLEET = ("fleet_get",)

PER_LAYER: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    # (name, unit, workloads it applies to); 0 is printed elsewhere.
    ("bench.host_speed", "ratio", _ALL),
    ("bench.host_speed_spread", "ratio", _ALL),
    ("bench.gen_late_p90_ms", "ms", _IN_PROCESS),
    ("bench.trace_overhead_frac", "ratio", _ALL),
    ("bench.unattributed_frac", "ratio", _ALL),
    ("bench.raw_throughput_rps", "ops/s", _ALL),
    ("bench.raw_cpu_us_per_req", "us", _ALL),
    ("client.lat_p90_ms", "ms", _ALL),
    ("client.lat_p99_ms", "ms", _ALL),
    ("client.update_p50_ms", "ms", ("read_write_mix",)),
    ("client.request_us", "us", _ALL),
    ("client.redirects_per_req", "ratio", ("flash_crowd",)),
    ("client.rerouted", "count", ("flash_crowd",)),
    ("client.timeouts", "count", _ALL),
    ("wire.encode_us_per_frame", "us", _ALL),
    ("wire.decode_us_per_frame", "us", _ALL),
    ("wire.bytes_per_frame", "bytes", _ALL),
    ("wire.fixed_lane_frac", "ratio", _ALL),
    ("wire.frames_per_req", "ratio", _ALL),
    ("wire.decode_errors", "count", _ALL),
    ("node.encode_us_per_req", "us", _ALL),
    ("node.decode_us_per_req", "us", _ALL),
    ("node.route_us_per_req", "us", _ALL),
    ("node.serve_us_per_req", "us", _ALL),
    ("node.inbox_depth_p90", "count", _IN_PROCESS),
    ("node.inbox_depth_max", "count", _IN_PROCESS),
    ("node.handler_errors", "count", _ALL),
    ("node.get_faults", "count", _ALL),
    ("cluster.send_us_per_frame", "us", ("steady_get", "read_write_mix")),
    ("cluster.decide_us", "us", ("flash_crowd",)),
    ("cluster.decisions", "count", ("flash_crowd",)),
    ("cluster.decide_probe_us", "us", ("read_write_mix",)),
    ("cluster.catalog_advance_us", "us", ("read_write_mix",)),
    ("cluster.update_frames_per_update", "ratio", ("read_write_mix",)),
    ("cluster.quiesce_s", "s", _IN_PROCESS),
    ("cluster.oplog_records", "count", _ALL),
    ("cluster.replicas_created", "count", _ALL),
    ("cluster.balance_s", "s", ("flash_crowd",)),
    ("routing.table_build_us", "us", _ALL),
    ("routing.find_live_ns", "ns", _ALL),
    ("routing.cache_hit_frac", "ratio", _IN_PROCESS),
    ("routing.hops_per_get", "ratio", _ALL),
    ("system.get_us", "us", _ALL),
    ("system.update_us", "us", ("read_write_mix",)),
    ("system.replicate_us", "us", ("flash_crowd", "read_write_mix", "fleet_get")),
    ("replication.choose_us", "us", ("flash_crowd", "read_write_mix", "fleet_get")),
    ("loadmon.record_ns", "ns", _ALL),
    ("loadmon.sweep_us", "us", _ALL),
    ("overload.admit_ns", "ns", _ALL),
    ("overload.shed", "count", ("flash_crowd",)),
    ("overload.replies", "count", ("flash_crowd",)),
    ("overload.redirect_ok_frac", "ratio", ("flash_crowd",)),
    ("overload.stale_sheds", "count", ("flash_crowd",)),
    ("conformance.replay_s", "s", _ALL),
    ("conformance.mismatches", "count", _ALL),
    ("scaleout.boot_s", "s", _FLEET),
    ("scaleout.shutdown_s", "s", _FLEET),
    ("scaleout.snapshot_s", "s", _FLEET),
    ("scaleout.worker_cpu_us_per_req", "us", _FLEET),
    ("scaleout.driver_cpu_us_per_req", "us", _FLEET),
    ("scaleout.decide_probe_ms", "ms", _FLEET),
    ("scaleout.control_call_us", "us", _FLEET),
    ("scaleout.goodbyes_missing", "count", _FLEET),
)


def catalogue(workload: Workload) -> list[str]:
    """The workload's file names, hottest first; the same for every seed
    (the seed draws requests, not the catalogue, so runs with different
    seeds measure the same cluster)."""
    return [f"bench-{i:04d}.dat" for i in range(workload.files)]
