"""Command-line interface: ``lesslog`` / ``python -m repro``.

Subcommands:

* ``experiments`` — list the reproducible experiments.
* ``run <id> [--fast] [--csv PATH]`` — run a figure/extension
  reproduction and print its table.
* ``figures`` — dump the paper's structural Figures 1–4.
* ``tree --root R --m M [--dead ...]`` — render a lookup tree and its
  children list.
* ``demo`` — a 30-second tour of the system API.
* ``reliability`` — a DES run over a lossy transport with the
  request-retry layer, printing per-request lifecycle accounting.
* ``verify fuzz`` — randomized scenario fuzzing against the invariant
  registry, shrinking any failure to a replayable repro file.
* ``verify replay REPRO.json`` — deterministically replay a failure.
* ``serve`` — boot a live asyncio cluster on loopback TCP and serve
  the wire protocol until interrupted; with ``--processes`` the
  cluster is a fleet of per-node worker OS processes behind a
  bootstrap endpoint.
* ``worker`` — one LessLog node process: dial a bootstrap endpoint,
  receive an identifier, serve until SIGTERM (spawned by the scale-out
  supervisor's subprocess mode; also useful by hand).
* ``loadgen`` — drive a live cluster with a seeded workload, print
  latency percentiles, and optionally verify oracle conformance.
  ``--processes`` boots a multi-process fleet for the run;
  ``--bootstrap`` dials one already serving.
* ``profile`` — sample a seeded runtime workload's stack (SIGPROF) and print
  the hottest functions (the fast-path tuning loop).
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def _add_overload_options(parser: argparse.ArgumentParser) -> None:
    """Overload control-plane knobs shared by ``serve`` and ``loadgen``."""
    parser.add_argument("--inbox-limit", type=int, default=0,
                        help="bounded-inbox depth per node (0 = unbounded, "
                        "no admission control)")
    parser.add_argument("--shed-policy", default="conservative",
                        choices=["conservative", "aggressive"],
                        help="how much queued work an overloaded node sheds")
    parser.add_argument("--queue-policy", default="fcfs",
                        choices=["fcfs", "priority"],
                        help="victim eligibility ordering under pressure")
    parser.add_argument("--victim-policy", default="lifo",
                        choices=["lifo", "fifo", "random"],
                        help="which queued requests are shed first")
    parser.add_argument("--slo-budget", type=float, default=0.0,
                        help="windowed p99 service-latency budget in seconds "
                        "that triggers replication (0 = disabled)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lesslog",
        description="LessLog (IPDPS 2004) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list reproducible experiments")

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", help="experiment id (see `experiments`)")
    run.add_argument("--fast", action="store_true", help="reduced sweep")
    run.add_argument("--csv", type=Path, default=None, help="also write CSV here")
    run.add_argument("--chart", action="store_true", help="also draw an ASCII chart")
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for figure sweeps (fig5-fig8 only); "
        "0 = one per CPU",
    )

    sub.add_parser("figures", help="regenerate structural Figures 1-4")

    report = sub.add_parser(
        "report", help="run every experiment and emit a markdown report"
    )
    report.add_argument("--full", action="store_true", help="full paper grid")
    report.add_argument("-o", "--output", type=Path, default=None)
    report.add_argument(
        "--only", nargs="*", default=None, help="experiment ids to include"
    )

    tree = sub.add_parser("tree", help="render a lookup tree")
    tree.add_argument("--root", type=int, default=4)
    tree.add_argument("--m", type=int, default=4)
    tree.add_argument("--dead", type=int, nargs="*", default=[])

    sub.add_parser("demo", help="drive a small system end to end")

    rel = sub.add_parser(
        "reliability",
        help="DES run over a lossy transport with the request-retry layer; "
        "prints per-request lifecycle accounting",
    )
    rel.add_argument("--m", type=int, default=6, help="identifier width")
    rel.add_argument("--loss-rate", type=float, default=0.2,
                     help="per-message transport loss probability")
    rel.add_argument("--retries", type=int, default=4,
                     help="attempt budget per request (1 = fire-and-forget)")
    rel.add_argument("--timeout", type=float, default=0.25,
                     help="per-attempt deadline in simulated seconds")
    rel.add_argument("--rate", type=float, default=200.0,
                     help="aggregate client demand (requests/second)")
    rel.add_argument("--duration", type=float, default=5.0,
                     help="workload duration in simulated seconds")
    rel.add_argument("--seed", type=int, default=0)

    audit = sub.add_parser("audit", help="audit a system snapshot file")
    audit.add_argument("snapshot", type=Path, help="JSON snapshot path")

    snap = sub.add_parser(
        "snapshot-demo", help="build the demo system and write its snapshot"
    )
    snap.add_argument("-o", "--output", type=Path, required=True)

    verify = sub.add_parser(
        "verify", help="invariant fuzzing: randomized scenarios + replay"
    )
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)

    fuzz = verify_sub.add_parser(
        "fuzz", help="fuzz randomized scenarios against the invariant registry"
    )
    fuzz.add_argument("--seeds", type=int, default=25, help="scenarios to run")
    fuzz.add_argument("--m", type=int, default=5, help="identifier width")
    fuzz.add_argument("--b", type=int, default=1, help="fault-tolerance degree")
    fuzz.add_argument("--events", type=int, default=40, help="events per scenario")
    fuzz.add_argument("--base-seed", type=int, default=0, help="first seed")
    fuzz.add_argument(
        "--mutate", default=None,
        help="inject a named bug (test knob; see repro.verify.scenario.MUTATIONS)",
    )
    fuzz.add_argument(
        "--out", type=Path, default=Path("results"),
        help="directory for shrunken failing-seed repro files",
    )

    replay = verify_sub.add_parser(
        "replay", help="replay a serialized failing scenario deterministically"
    )
    replay.add_argument("repro", type=Path, help="repro JSON written by fuzz")

    serve = sub.add_parser(
        "serve", help="boot a live cluster on loopback TCP and serve frames"
    )
    serve.add_argument("--m", type=int, default=4, help="identifier width")
    serve.add_argument("--b", type=int, default=1, help="fault-tolerance degree")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--capacity", type=float, default=50.0,
                       help="per-node overload threshold (requests/second)")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="seconds to serve (0 = until interrupted)")
    serve.add_argument("--processes", type=int, default=0, metavar="N",
                       help="serve N nodes as separate OS processes behind "
                       "a bootstrap endpoint (0 = single process)")
    serve.add_argument("--spawn", default="fork",
                       choices=["fork", "subprocess"],
                       help="how --processes workers are spawned")
    _add_overload_options(serve)

    worker = sub.add_parser(
        "worker", help="one LessLog node as its own OS process"
    )
    worker.add_argument("--bootstrap", required=True, metavar="HOST:PORT",
                        help="bootstrap endpoint to register with")

    loadgen = sub.add_parser(
        "loadgen", help="drive a live cluster with a seeded GET workload"
    )
    loadgen.add_argument("--m", type=int, default=4, help="identifier width")
    loadgen.add_argument("--b", type=int, default=1, help="fault-tolerance degree")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--tcp", action="store_true",
                         help="real TCP on loopback instead of in-process streams")
    loadgen.add_argument("--files", type=int, default=8, help="files to insert")
    loadgen.add_argument("--workload", default="zipf",
                         choices=["uniform", "zipf", "locality"])
    loadgen.add_argument("--zipf-s", type=float, default=1.2,
                         help="Zipf exponent (workload=zipf)")
    loadgen.add_argument("--rps", type=float, default=200.0,
                         help="open-loop target requests/second")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="workload duration in seconds")
    loadgen.add_argument("--closed-loop", type=int, default=0, metavar="CONC",
                         help="closed loop with this concurrency instead of "
                         "open loop (fires rps*duration requests)")
    loadgen.add_argument("--capacity", type=float, default=50.0,
                         help="per-node overload threshold (requests/second)")
    loadgen.add_argument("--service-time", type=float, default=0.001,
                         help="simulated per-GET service latency (seconds)")
    loadgen.add_argument("--conformance", action="store_true",
                         help="replay the oplog through the synchronous "
                         "oracle and diff final state (exit 1 on mismatch)")
    loadgen.add_argument("--redirects", type=int, default=3,
                         help="client redirect budget per OVERLOAD-refused GET")
    loadgen.add_argument("--churn-kills", type=int, default=0,
                         help="silent crashes (no announce) injected mid-burst")
    loadgen.add_argument("--churn-crashes", type=int, default=0,
                         help="announced crashes injected mid-burst")
    loadgen.add_argument("--churn-joins", type=int, default=0,
                         help="node joins injected mid-burst")
    loadgen.add_argument("--churn-leaves", type=int, default=0,
                         help="graceful leaves injected mid-burst")
    loadgen.add_argument("--churn-min-live", type=int, default=3,
                         help="never churn the live set below this size")
    loadgen.add_argument("--processes", type=int, default=0, metavar="N",
                         help="boot N nodes as separate OS processes and "
                         "drive them through the bootstrap endpoint "
                         "(0 = in-process cluster)")
    loadgen.add_argument("--spawn", default="fork",
                         choices=["fork", "subprocess"],
                         help="how --processes workers are spawned")
    loadgen.add_argument("--bootstrap", default=None, metavar="HOST:PORT",
                         help="drive an already-serving bootstrap endpoint "
                         "(from `lesslog serve --processes`) instead of "
                         "booting a cluster")
    loadgen.add_argument("--client-processes", type=int, default=1,
                         metavar="K",
                         help="fork K load-driver processes, each with its "
                         "own event loop and a disjoint entry-node "
                         "partition; per-shard ledgers and latency "
                         "histograms merge exactly (scale-out mode only, "
                         "open loop only)")
    _add_overload_options(loadgen)

    profile = sub.add_parser(
        "profile",
        help="sample a seeded runtime workload's stack on a CPU-time "
        "timer and print the hottest functions",
    )
    profile.add_argument("--m", type=int, default=4, help="identifier width")
    profile.add_argument("--b", type=int, default=1, help="fault-tolerance degree")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--files", type=int, default=8, help="files to insert")
    profile.add_argument("--rps", type=float, default=800.0,
                         help="open-loop target requests/second")
    profile.add_argument("--duration", type=float, default=2.0,
                         help="workload duration in seconds")
    profile.add_argument("--codec", default="binary",
                         choices=["binary", "json"],
                         help="wire codec profile to run under")
    profile.add_argument("--top", type=int, default=25,
                         help="hot functions to print")
    profile.add_argument("-o", "--output", type=Path, default=None,
                         help="also write the whole table here, as JSON")

    return parser


def _cmd_experiments() -> int:
    from .experiments import list_experiments

    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


def _cmd_run(
    experiment_id: str, fast: bool, csv: Path | None, chart: bool,
    workers: int = 1,
) -> int:
    from .experiments import run_experiment

    try:
        result = run_experiment(experiment_id, fast=fast, workers=workers)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(result.render())
    if chart:
        from .analysis import render_sweep_chart

        print()
        print(render_sweep_chart(result))
    if csv is not None:
        csv.write_text(result.to_csv() + "\n")
        print(f"\nCSV written to {csv}")
    return 0


def _cmd_report(full: bool, output: Path | None, only: list[str] | None) -> int:
    from .experiments.report import generate_report

    try:
        text = generate_report(experiment_ids=only, fast=not full)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    if output is not None:
        output.write_text(text + "\n")
        print(f"report written to {output}")
    else:
        print(text)
    return 0


def _cmd_figures() -> int:
    from .experiments.structures import render_all

    print(render_all())
    return 0


def _cmd_tree(root: int, m: int, dead: list[int]) -> int:
    from .core.children import advanced_children_list
    from .core.liveness import SetLiveness
    from .core.tree import LookupTree

    tree = LookupTree(root, m)
    print(tree.render())
    liveness = SetLiveness.all_but(m, dead=dead)
    print(f"\nchildren list of P({root})"
          + (f" with dead={sorted(dead)}" if dead else "")
          + f": {advanced_children_list(tree, root, liveness)}")
    return 0


def _cmd_audit(snapshot_path: Path) -> int:
    from .cluster.audit import audit_system
    from .cluster.snapshot import restore_from_json

    try:
        system = restore_from_json(snapshot_path.read_text())
    except FileNotFoundError:
        print(f"no such snapshot: {snapshot_path}", file=sys.stderr)
        return 2
    audit = audit_system(system)
    print(audit.render())
    return 0 if audit.healthy else 1


def _cmd_snapshot_demo(output: Path) -> int:
    from .cluster.snapshot import snapshot_to_json
    from .cluster.system import LessLogSystem

    system = LessLogSystem.build(m=5, b=1, dead={3, 9})
    for i in range(6):
        system.insert(f"demo-{i}.dat", payload=f"payload {i}")
    home = system.holders_of("demo-0.dat")[0]
    system.replicate("demo-0.dat", overloaded=home)
    output.write_text(snapshot_to_json(system, indent=2) + "\n")
    print(f"snapshot of {system} written to {output}")
    return 0


def _cmd_demo() -> int:
    from .cluster.system import LessLogSystem

    print("Building a 16-node LessLog system (m=4, b=1)...")
    system = LessLogSystem.build(m=4, b=1)
    result = system.insert("report.pdf", payload=b"quarterly numbers")
    print(f"  inserted 'report.pdf' -> target P({result.target}), "
          f"homes {list(result.homes)}")
    got = system.get("report.pdf", entry=3)
    print(f"  get from P(3): served by P({got.server}) via {list(got.route)}")
    target = system.replicate("report.pdf", overloaded=got.server)
    print(f"  overloaded P({got.server}) replicated to P({target})")
    updated = system.update("report.pdf", payload=b"restated numbers")
    print(f"  update v{updated.version} reached {sorted(updated.updated)}")
    lost = system.fail(result.homes[0])
    print(f"  crashed P({result.homes[0]}); recovered files: {lost}")
    got = system.get("report.pdf", entry=3)
    print(f"  get after crash: served by P({got.server}), "
          f"version {got.version}")
    system.check_invariants()
    print("  invariants hold.")
    return 0


def _cmd_reliability(
    m: int, loss_rate: float, retries: int, timeout: float,
    rate: float, duration: float, seed: int,
) -> int:
    import numpy as np

    from .engine.des_driver import DesExperiment
    from .experiments.config import ReliabilityConfig

    config = ReliabilityConfig(
        loss_rate=loss_rate, timeout=timeout, max_attempts=retries
    )
    n = 1 << m
    experiment = DesExperiment(
        m=m,
        target=0,
        entry_rates=np.full(n, rate / n),
        seed=seed,
        loss_rate=config.loss_rate,
        retry=config.policy(),
    )
    result = experiment.run(duration, settle=config.settle_time())
    metrics = experiment.metrics
    print(
        f"reliability: m={m}, loss={loss_rate}, budget={retries} attempts, "
        f"timeout={timeout}s, {duration}s @ {rate} req/s (seed {seed})"
    )
    print(f"  issued      {result.requests_sent}")
    print(f"  completed   {result.requests_completed}")
    print(f"  retried     {result.requests_retried} retries "
          f"({metrics.counter('request.rerouted').value} rerouted)")
    print(f"  dead-letter {result.dead_letters}")
    inflight = experiment.reliability.inflight_count
    if inflight:
        print(f"  inflight    {inflight} (settle tail too short)")
    if result.requests_completed:
        print(f"  latency     mean {result.latency_mean * 1e3:.2f} ms, "
              f"p95 {result.latency_p95 * 1e3:.2f} ms")
    return 0 if result.dead_letters == 0 and not inflight else 1


def _cmd_verify_fuzz(
    seeds: int, m: int, b: int, events: int, base_seed: int,
    mutate: str | None, out: Path,
) -> int:
    from .verify import FuzzConfig, ScenarioFuzzer, Shrinker, save_repro

    config = FuzzConfig(
        seeds=seeds, m=m, b=b, events=events, base_seed=base_seed,
        mutation=mutate,
    )
    report = ScenarioFuzzer().fuzz(config)
    print(report.render())
    if report.ok:
        return 0
    for violation in report.violations:
        shrinker = Shrinker()
        minimized, shrunk = shrinker.shrink(violation.scenario, violation)
        path = save_repro(
            out / f"repro_seed{violation.seed}_{shrunk.invariant}.json",
            minimized,
            shrunk,
        )
        print(
            f"seed {violation.seed}: shrunk {len(violation.scenario.events)} -> "
            f"{len(minimized.events)} events ({shrinker.runs} runs); "
            f"repro written to {path}"
        )
        print(f"  replay with: lesslog verify replay {path}")
    return 1


def _overload_fields(args: "argparse.Namespace") -> dict[str, object]:
    """RuntimeConfig overrides from the shared overload options."""
    return {
        "inbox_limit": args.inbox_limit,
        "shed_policy": args.shed_policy,
        "queue_policy": args.queue_policy,
        "victim_policy": args.victim_policy,
        "slo_budget": args.slo_budget if args.slo_budget > 0 else float("inf"),
    }


def _cmd_worker(args: "argparse.Namespace") -> int:
    from .runtime.scaleout import run_worker

    host, _, port = args.bootstrap.rpartition(":")
    if not host or not port.isdigit():
        print(f"--bootstrap must be HOST:PORT, got {args.bootstrap!r}")
        return 2
    run_worker(host, int(port))
    return 0


def _cmd_serve_scaleout(args: "argparse.Namespace") -> int:
    import asyncio

    from .runtime import RuntimeConfig
    from .runtime.scaleout import ScaleoutSupervisor

    config = RuntimeConfig(
        m=args.m, b=args.b, seed=args.seed, tcp=True, capacity=args.capacity,
        **_overload_fields(args),
    )
    supervisor = ScaleoutSupervisor(
        config, n_nodes=args.processes, mode=args.spawn
    )
    # Fork the fleet before any event loop exists.
    host, port = supervisor.launch()

    async def run() -> int:
        await supervisor.start()
        book = supervisor.bootstrap.book
        print(f"bootstrap endpoint: {host}:{port}")
        print(f"fleet: {len(book)} worker process(es), m={args.m}, b={args.b}")
        for pid, (whost, wport) in sorted(book.items()):
            print(f"  P({pid}) -> {whost}:{wport} "
                  f"[os pid {supervisor.bootstrap.ospid_of(pid)}]")
        print(f"drive it with: lesslog loadgen --bootstrap {host}:{port}")
        if args.duration > 0:
            await asyncio.sleep(args.duration)
        else:  # pragma: no cover - interactive
            print("Ctrl-C to stop.")
            try:
                while True:
                    await asyncio.sleep(3600)
            except asyncio.CancelledError:
                pass
        await supervisor.shutdown()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def _cmd_serve(args: "argparse.Namespace") -> int:
    import asyncio

    from .runtime import LiveCluster, RuntimeConfig

    if args.processes > 0:
        return _cmd_serve_scaleout(args)

    m, b, duration = args.m, args.b, args.duration

    async def run() -> int:
        config = RuntimeConfig(
            m=m, b=b, seed=args.seed, tcp=True, capacity=args.capacity,
            **_overload_fields(args),
        )
        cluster = await LiveCluster.start(config)
        try:
            print(f"serving {cluster!r}")
            for pid, (host, port) in sorted(cluster.addresses.items()):
                print(f"  P({pid}) -> {host}:{port}")
            if duration > 0:
                await asyncio.sleep(duration)
            else:
                print("Ctrl-C to stop.")
                try:
                    while True:
                        await asyncio.sleep(3600)
                except asyncio.CancelledError:  # pragma: no cover
                    pass
        finally:
            await cluster.shutdown()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def _cmd_loadgen_scaleout(args: "argparse.Namespace") -> int:
    import asyncio
    import random

    from .runtime import (
        LoadGenerator,
        RuntimeClient,
        RuntimeConfig,
        WorkloadShape,
        verify_snapshot,
    )
    from .runtime.scaleout import (
        ScaleoutEndpoint,
        ScaleoutSupervisor,
        ShardedLoadDriver,
    )

    if args.churn_crashes or args.churn_joins or args.churn_leaves:
        print("loadgen --processes/--bootstrap supports --churn-kills only "
              "(kill -9 crash churn; joins/leaves need the in-process "
              "cluster)")
        return 2
    if args.client_processes > 1 and args.closed_loop > 0:
        print("--client-processes shards the open-loop driver; drop "
              "--closed-loop or run one client process")
        return 2

    supervisor = None
    if args.bootstrap is None:
        config = RuntimeConfig(
            m=args.m, b=args.b, seed=args.seed, tcp=True,
            capacity=args.capacity, service_time=args.service_time,
            inflight_limit=16, **_overload_fields(args),
        )
        supervisor = ScaleoutSupervisor(
            config, n_nodes=args.processes, mode=args.spawn
        )
        # Fork the fleet before any event loop exists.
        host, port = supervisor.launch()
    else:
        if args.churn_kills:
            print("--churn-kills needs --processes "
                  "(the supervisor owns kill -9)")
            return 2
        if args.conformance:
            print("--conformance needs --processes (the snapshot is "
                  "collected from the fleet this command booted)")
            return 2
        host, _, port_text = args.bootstrap.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"--bootstrap must be HOST:PORT, got {args.bootstrap!r}")
            return 2
        port = int(port_text)

    files = [f"file-{i}.dat" for i in range(args.files)]
    shape = WorkloadShape(kind=args.workload, s=args.zipf_s)
    driver = None
    if args.client_processes > 1:
        # Fork the shard drivers before any event loop exists, same
        # discipline as the fleet itself; they park on their go pipes
        # until the file set is inserted and the fleet drained.
        driver = ShardedLoadDriver(
            host, port, files, shards=args.client_processes,
            rps=args.rps, duration=args.duration, shape=shape,
            seed=args.seed, redirects=args.redirects,
            inherited_sockets=(
                [supervisor.listen_socket] if supervisor is not None
                and supervisor.listen_socket is not None else []
            ),
        )
        driver.launch()

    async def inject_kills(endpoint: "ScaleoutEndpoint",
                           kills: list[int]) -> None:
        rng = random.Random(args.seed)
        for i in range(args.churn_kills):
            await asyncio.sleep(args.duration / (args.churn_kills + 1))
            live = supervisor.bootstrap.worker_pids()
            if len(live) <= args.churn_min_live:
                break
            victim = rng.choice(live)
            await supervisor.kill(victim)
            kills.append(victim)

    async def run() -> int:
        if supervisor is not None:
            await supervisor.start()
        endpoint = await ScaleoutEndpoint.connect(host, port)
        try:
            boot = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
            for name in files:
                await boot.insert(name, f"payload of {name}")
            await boot.close()
            await endpoint.drain()
            kills: list[int] = []
            kill_task = None
            if supervisor is not None and args.churn_kills:
                kill_task = asyncio.create_task(inject_kills(endpoint, kills))
            if driver is not None:
                driver.start()
                report = await driver.collect()
                report.served_by_node = await endpoint.served_counts()
            else:
                gen = LoadGenerator(endpoint, files, shape, seed=args.seed,
                                    redirects=args.redirects)
                if args.closed_loop > 0:
                    report = await gen.run_closed_loop(
                        args.closed_loop, max(1, int(args.rps * args.duration))
                    )
                else:
                    report = await gen.run_open_loop(args.rps, args.duration)
            if kill_task is not None:
                await kill_task
            if driver is None:
                await gen.close()
            if kills:
                # Post-burst autopsy: §5 recovery for every victim.
                for victim in kills:
                    await supervisor.bootstrap.announce_crash(victim)
                print(f"churn: {len(kills)} kill -9 event(s): " + ", ".join(
                    f"P({pid})" for pid in kills))
            await endpoint.quiesce()
            print(f"loadgen over {len(endpoint.nodes)} worker process(es), "
                  f"tcp: m={args.m}, b={args.b}, "
                  f"workload={args.workload}, seed={args.seed}")
            for key, value in report.as_dict().items():
                print(f"  {key:15} {value}")
            if driver is not None:
                shard_rps = [
                    round(r.achieved_rps, 3) for r in driver.shard_reports
                ]
                print(f"  {'client_shards':15} {args.client_processes}")
                print(f"  {'shard_rps':15} {shard_rps}")
            if supervisor is not None:
                snapshot, _stats = await supervisor.bootstrap.collect_snapshot()
                print(f"  {'replicas':15} {snapshot.replicas_created}")
                if args.conformance:
                    conformance = verify_snapshot(snapshot)
                    print(conformance.render())
                    if not conformance.ok:
                        return 1
            return 0
        finally:
            await endpoint.close()
            if supervisor is not None:
                await supervisor.shutdown()

    try:
        return asyncio.run(run())
    finally:
        if driver is not None:
            driver.kill()  # no-op after a clean collect()


def _cmd_loadgen(args: "argparse.Namespace") -> int:
    import asyncio

    from .runtime import (
        ChurnInjector,
        LiveCluster,
        LoadGenerator,
        RuntimeClient,
        RuntimeConfig,
        WorkloadShape,
        diff_states,
        replay_oplog,
    )

    if args.processes > 0 or args.bootstrap is not None:
        return _cmd_loadgen_scaleout(args)
    if args.client_processes > 1:
        print("--client-processes needs the scale-out runtime "
              "(--processes N or --bootstrap HOST:PORT); the in-process "
              "cluster lives inside one interpreter, so extra driver "
              "processes cannot reach it")
        return 2

    async def run() -> int:
        config = RuntimeConfig(
            m=args.m, b=args.b, seed=args.seed, tcp=args.tcp,
            capacity=args.capacity, service_time=args.service_time,
            inflight_limit=16, **_overload_fields(args),
        )
        cluster = await LiveCluster.start(config)
        try:
            files = [f"file-{i}.dat" for i in range(args.files)]
            boot = await RuntimeClient(cluster, min(cluster.nodes)).connect()
            for name in files:
                await boot.insert(name, f"payload of {name}")
            await boot.close()
            await cluster.drain()
            shape = WorkloadShape(kind=args.workload, s=args.zipf_s)
            gen = LoadGenerator(cluster, files, shape, seed=args.seed,
                                redirects=args.redirects)
            injector = None
            if (args.churn_kills or args.churn_crashes
                    or args.churn_joins or args.churn_leaves):
                injector = ChurnInjector.scheduled(
                    cluster, args.duration,
                    kills=args.churn_kills, crashes=args.churn_crashes,
                    joins=args.churn_joins, leaves=args.churn_leaves,
                    seed=args.seed, min_live=args.churn_min_live,
                )
                injector.start()
            if args.closed_loop > 0:
                report = await gen.run_closed_loop(
                    args.closed_loop, max(1, int(args.rps * args.duration))
                )
            else:
                report = await gen.run_open_loop(args.rps, args.duration)
            await gen.close()
            if injector is not None:
                applied = await injector.finalize()
                fired = [e for e in applied if e["pid"] is not None]
                print(f"churn: {len(fired)} event(s) applied: " + ", ".join(
                    f"{e['action']}@P({e['pid']})" for e in fired))
            await cluster.quiesce()
            mode = "tcp" if args.tcp else "in-process streams"
            print(f"loadgen over {mode}: m={args.m}, b={args.b}, "
                  f"workload={args.workload}, seed={args.seed}")
            for key, value in report.as_dict().items():
                print(f"  {key:15} {value}")
            print(f"  {'replicas':15} {cluster.replicas_created()}")
            if args.conformance:
                system = replay_oplog(cluster.oplog, config, cluster.initial_live)
                system.check_invariants()
                conformance = diff_states(cluster, system)
                print(conformance.render())
                if not conformance.ok:
                    return 1
            return 0
        finally:
            await cluster.shutdown()

    return asyncio.run(run())


class _StackSampler:
    """Where the process's CPU time goes, by sampling the running stack.

    ``ITIMER_PROF`` counts process CPU time and raises ``SIGPROF`` every
    ``interval`` seconds of it; the handler walks the interrupted frame's
    callers.  A function's *self* share is the samples that caught it
    running, its *cumulative* share those that caught it anywhere on the
    stack — once per sample, however deep it recurses.  Unlike a tracing
    profiler this adds no per-call cost, so the shares are those of the
    unprofiled program, not a ranking by call count.  Main thread only,
    one sampler at a time (it owns the process's ``SIGPROF``).
    """

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.samples = 0
        self.self_hits: dict[tuple[str, int, str], int] = {}
        self.cum_hits: dict[tuple[str, int, str], int] = {}

    def _on_sigprof(self, _signum, frame) -> None:
        self.samples += 1
        self_hits, cum_hits = self.self_hits, self.cum_hits
        seen = set()
        running = True
        while frame is not None:
            code = frame.f_code
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if running:
                self_hits[key] = self_hits.get(key, 0) + 1
                running = False
            if key not in seen:
                seen.add(key)
                cum_hits[key] = cum_hits.get(key, 0) + 1
            frame = frame.f_back

    def __enter__(self) -> "_StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sigprof)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def table(self) -> list[dict[str, object]]:
        """One row per function seen, largest self share first."""
        total = self.samples or 1
        rows = [
            {
                "function": key[2], "file": key[0], "line": key[1],
                "self_share": self.self_hits.get(key, 0) / total,
                "cum_share": hits / total,
            }
            for key, hits in self.cum_hits.items()
        ]
        rows.sort(key=lambda r: (-r["self_share"], -r["cum_share"],
                                 r["file"], r["line"]))
        return rows


def _cmd_profile(args: "argparse.Namespace") -> int:
    import asyncio
    import json

    from .runtime import (
        LiveCluster,
        LoadGenerator,
        RuntimeClient,
        RuntimeConfig,
        WorkloadShape,
    )

    async def workload() -> tuple[int, float, dict[str, float]]:
        config = RuntimeConfig(
            m=args.m, b=args.b, seed=args.seed,
            wire_version=2 if args.codec == "binary" else 1,
            batch_max=16 if args.codec == "binary" else 1,
        )
        cluster = await LiveCluster.start(config)
        try:
            files = [f"file-{i}.dat" for i in range(args.files)]
            boot = await RuntimeClient(cluster, min(cluster.nodes)).connect()
            for name in files:
                await boot.insert(name, f"payload of {name}")
            await boot.close()
            await cluster.drain()
            gen = LoadGenerator(
                cluster, files, WorkloadShape(kind="zipf", s=1.2), seed=args.seed
            )
            baseline = dict(cluster.stage_seconds)
            report = await gen.run_open_loop(args.rps, args.duration)
            await gen.close()
            await cluster.quiesce()
            stages = {
                k: v - baseline.get(k, 0.0)
                for k, v in cluster.stage_seconds.items()
            }
            return report.completed, report.achieved_rps, stages
        finally:
            await cluster.shutdown()

    with _StackSampler() as sampler:
        completed, rps, stages = asyncio.run(workload())

    print(
        f"profile: codec={args.codec}, m={args.m}, b={args.b}, "
        f"seed={args.seed}, {args.duration}s @ {args.rps} req/s -> "
        f"{completed} completed ({rps:.1f} req/s achieved)"
    )
    total = sum(stages.values())
    print("stage breakdown (instrumented wall time inside the cluster):")
    for name in ("encode", "decode", "route", "serve"):
        seconds = stages.pop(name, 0.0)
        share = 100.0 * seconds / total if total > 0 else 0.0
        per_req = 1e6 * seconds / completed if completed else 0.0
        print(f"  {name:7s} {seconds:8.4f} s  ({share:5.1f}% of staged, "
              f"{per_req:7.2f} us/request)")
    for name, seconds in sorted(stages.items()):  # any future stages
        print(f"  {name:7s} {seconds:8.4f} s")
    rows = sampler.table()
    print(
        f"{sampler.samples} samples, one per {sampler.interval * 1e3:g} ms of "
        f"process CPU time; top {min(args.top, len(rows))} of {len(rows)} "
        "functions by self share:"
    )
    print("   self    cum  function")
    for row in rows[:args.top]:
        print(
            f"  {100 * row['self_share']:5.1f}% {100 * row['cum_share']:5.1f}%  "
            f"{row['function']}  ({row['file']}:{row['line']})"
        )
    if args.output is not None:
        args.output.write_text(json.dumps(
            {"samples": sampler.samples, "interval_s": sampler.interval,
             "functions": rows},
            indent=1,
        ))
        print(f"sample table written to {args.output}")
    return 0


def _cmd_verify_replay(repro: Path) -> int:
    from .verify import replay_file

    try:
        outcome = replay_file(repro)
    except FileNotFoundError:
        print(f"no such repro file: {repro}", file=sys.stderr)
        return 2
    print(outcome.render())
    return 0 if outcome.reproduced else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "experiments":
        return _cmd_experiments()
    if args.command == "run":
        return _cmd_run(
            args.experiment, args.fast, args.csv, args.chart, args.workers
        )
    if args.command == "figures":
        return _cmd_figures()
    if args.command == "report":
        return _cmd_report(args.full, args.output, args.only)
    if args.command == "tree":
        return _cmd_tree(args.root, args.m, args.dead)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "reliability":
        return _cmd_reliability(
            args.m, args.loss_rate, args.retries, args.timeout,
            args.rate, args.duration, args.seed,
        )
    if args.command == "audit":
        return _cmd_audit(args.snapshot)
    if args.command == "snapshot-demo":
        return _cmd_snapshot_demo(args.output)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "verify":
        if args.verify_command == "fuzz":
            return _cmd_verify_fuzz(
                args.seeds, args.m, args.b, args.events, args.base_seed,
                args.mutate, args.out,
            )
        return _cmd_verify_replay(args.repro)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
