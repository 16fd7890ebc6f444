#!/usr/bin/env python3
"""A live LessLog cluster: real frames, real sockets, oracle-checked.

Boots 16 asyncio node servers exchanging length-prefixed binary frames,
drives them with a client over the wire (insert / get / update), crashes
a home node mid-service, and lets a Zipf burst trip the per-node load
monitors into autonomous replication.  At the end, the cluster's
operation log is replayed through the synchronous ``LessLogSystem``
oracle and the final states are diffed — the live service and the
paper's synchronous model must agree bit for bit.

Run:  python examples/live_cluster.py
"""

import asyncio

from repro.runtime import (
    LiveCluster,
    LoadGenerator,
    RuntimeClient,
    RuntimeConfig,
    WorkloadShape,
    diff_states,
    replay_oplog,
)

M = 4           # 16 identifiers
B = 1           # §4 fault-tolerant model: 2 subtrees, 2 copies per file
CAPACITY = 30.0  # per-node comfortable service rate (req/s)


async def main() -> None:
    config = RuntimeConfig(
        m=M, b=B, seed=42, capacity=CAPACITY, service_time=0.001,
        inflight_limit=8,
    )
    cluster = await LiveCluster.start(config)
    print(f"booted {cluster!r}")

    # -- the paper's file operations, over the wire --------------------
    client = await RuntimeClient(cluster, 5).connect()
    insert = await client.insert("report.pdf", "quarterly numbers")
    homes = insert.payload["homes"]
    print(f"insert: homes {homes} (one per subtree), v{insert.version}")
    got = await client.get("report.pdf")
    print(f"get via P(5): served by P({got.server}), v{got.version}")
    upd = await client.update("report.pdf", "restated numbers")
    print(f"update: broadcast v{upd.version} top-down")

    # -- crash a home; the §3 reroute finds the surviving copy ---------
    victim = homes[0]
    await cluster.crash(victim)
    got = await client.get("report.pdf")
    print(f"crashed P({victim}); get now served by P({got.server}), "
          f"v{got.version}")
    await client.close()

    # -- a Zipf burst: load monitors replicate autonomously ------------
    boot = await RuntimeClient(cluster, got.server).connect()
    files = [f"doc-{i}" for i in range(6)]
    for name in files:
        await boot.insert(name, f"contents of {name}")
    await boot.close()
    await cluster.drain()
    generator = LoadGenerator(
        cluster, files, WorkloadShape(kind="zipf", s=1.4), seed=7
    )
    report = await generator.run_open_loop(rps=300, duration=1.0)
    await generator.close()
    await cluster.quiesce()
    print(f"burst: {report.completed}/{report.requests} served at "
          f"{report.achieved_rps:.0f} req/s, p50 {report.p50 * 1e3:.2f} ms, "
          f"p99 {report.p99 * 1e3:.2f} ms")
    print(f"autonomous replicas created under load: "
          f"{cluster.replicas_created()}")

    # -- the oracle must agree with everything that just happened ------
    system = replay_oplog(cluster.oplog, config, cluster.initial_live)
    system.check_invariants()
    conformance = diff_states(cluster, system)
    print(conformance.render())
    await cluster.shutdown()
    if not conformance.ok:
        raise SystemExit(1)


if __name__ == "__main__":
    asyncio.run(main())
