"""Tests for the overload control plane (``repro.runtime.overload``).

The deterministic pieces — the policy grid, every admission-policy
cell driven directly against scripted message sequences, the windowed
latency tracker, and the config validation — run in tier-1.  The
flood tests that boot real clusters, shed under a flash crowd, follow
redirects, and check SLO-triggered replication carry the ``runtime``
marker and run in CI's dedicated overload-smoke job.
"""

import asyncio

import pytest

from repro.core.errors import ConfigurationError
from repro.net.message import Message, MessageKind
from repro.runtime import (
    AdmissionController,
    LiveCluster,
    LoadGenerator,
    LoadReport,
    OverloadPolicy,
    RuntimeClient,
    RuntimeConfig,
    WorkloadShape,
    diff_states,
    policy_grid,
    replay_oplog,
)
from repro.runtime.overload import LatencyTracker

# ---------------------------------------------------------------------------
# the policy grid
# ---------------------------------------------------------------------------


class TestOverloadPolicy:
    def test_grid_is_the_full_2x2x3_matrix(self):
        cells = [p.cell for p in policy_grid()]
        assert len(cells) == 12 and len(set(cells)) == 12
        assert cells[0] == "conservative/fcfs/lifo"
        assert "aggressive/priority/random" in cells

    def test_default_cell(self):
        assert OverloadPolicy().cell == "conservative/fcfs/lifo"

    @pytest.mark.parametrize("kwargs", [
        {"shed": "gentle"},
        {"queue": "lcfs"},
        {"victim": "oldest"},
    ])
    def test_unknown_policy_names_rejected(self, kwargs):
        with pytest.raises(ValueError, match="policy must be one of"):
            OverloadPolicy(**kwargs)

    def test_config_validates_the_cell(self):
        with pytest.raises(ConfigurationError, match="victim policy"):
            RuntimeConfig(m=3, b=1, victim_policy="oldest")
        with pytest.raises(ConfigurationError, match="non-negative"):
            RuntimeConfig(m=3, b=1, inbox_limit=-1)
        with pytest.raises(ConfigurationError, match="slo_budget"):
            RuntimeConfig(m=3, b=1, slo_budget=0.0)
        for window in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="window"):
                RuntimeConfig(m=3, b=1, window=window)
        config = RuntimeConfig(m=3, b=1, shed_policy="aggressive",
                               queue_policy="priority", victim_policy="fifo")
        assert config.overload_policy().cell == "aggressive/priority/fifo"


# ---------------------------------------------------------------------------
# admission control: every cell, scripted deterministically
# ---------------------------------------------------------------------------


def _get(rid: int, src: int = -1) -> Message:
    return Message(kind=MessageKind.GET, src=src, dst=0, file=f"f-{rid}",
                   request_id=rid)


def _controller(shed="conservative", queue="fcfs", victim="lifo",
                limit=3, seed=0) -> AdmissionController:
    return AdmissionController(
        OverloadPolicy(shed=shed, queue=queue, victim=victim), limit, seed=seed
    )


class TestAdmissionController:
    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            _controller(limit=0)

    def test_under_limit_always_admits(self):
        ctl = _controller(limit=3)
        for rid in range(3):
            accepted, victims = ctl.admit(_get(rid))
            assert accepted and not victims
        assert ctl.depth == 3 and ctl.admitted == 3 and ctl.shed == 0

    def test_control_traffic_is_never_shed(self):
        ctl = _controller(limit=1)
        ctl.admit(_get(0))
        for kind in MessageKind:
            if kind is MessageKind.GET:
                continue
            msg = Message(kind=kind, src=-1, dst=0, file="x", request_id=99)
            accepted, victims = ctl.admit(msg)
            assert accepted and not victims
        assert ctl.shed == 0 and ctl.depth == 1

    def test_conservative_lifo_rejects_the_newcomer(self):
        # The arrival is the newest member of the pool: lifo picks it.
        ctl = _controller(shed="conservative", victim="lifo", limit=2)
        ctl.admit(_get(0))
        ctl.admit(_get(1))
        accepted, victims = ctl.admit(_get(2))
        assert not accepted and victims == []
        assert ctl.depth == 2 and ctl.shed == 1

    def test_conservative_fifo_drops_the_head(self):
        ctl = _controller(shed="conservative", victim="fifo", limit=2)
        ctl.admit(_get(0))
        ctl.admit(_get(1))
        accepted, victims = ctl.admit(_get(2))
        assert accepted  # the newcomer takes the vacated slot
        assert [v[0].request_id for v in victims] == [0]
        assert ctl.depth == 2 and ctl.shed == 1

    def test_random_victim_is_seeded(self):
        def run(seed):
            ctl = _controller(victim="random", limit=4, seed=seed)
            shed = []
            for rid in range(12):
                accepted, victims = ctl.admit(_get(rid))
                shed.extend(v[0].request_id for v in victims)
                if not accepted:
                    shed.append(rid)
            return shed

        assert run(7) == run(7)
        assert run(7) != run(8)  # a different stream picks differently

    def test_aggressive_clears_to_half_the_limit(self):
        ctl = _controller(shed="aggressive", victim="fifo", limit=4)
        for rid in range(4):
            ctl.admit(_get(rid))
        accepted, victims = ctl.admit(_get(4))
        # pool of 5, keep max(1, 4 // 2) = 2: three victims, oldest first.
        assert [v[0].request_id for v in victims] == [0, 1, 2]
        assert accepted and ctl.depth == 2 and ctl.shed == 3

    def test_priority_sheds_client_entries_before_forwarded(self):
        ctl = _controller(queue="priority", victim="fifo", limit=2)
        ctl.admit(_get(0, src=5))    # forwarded by a peer: protected
        ctl.admit(_get(1, src=-1))   # fresh client entry
        accepted, victims = ctl.admit(_get(2, src=7))
        # The forwarded arrival displaces the queued client entry.
        assert accepted
        assert [v[0].request_id for v in victims] == [1]
        assert sorted(m.request_id for m, _ in ctl._queued.values()) == [0, 2]

    def test_fcfs_ignores_the_source_class(self):
        ctl = _controller(queue="fcfs", victim="fifo", limit=2)
        ctl.admit(_get(0, src=5))
        ctl.admit(_get(1, src=-1))
        accepted, victims = ctl.admit(_get(2, src=7))
        # Oldest overall goes, forwarded or not.
        assert accepted and [v[0].request_id for v in victims] == [0]

    def test_release_skips_the_shed_husk(self):
        ctl = _controller(victim="fifo", limit=1)
        ctl.admit(_get(0))
        accepted, victims = ctl.admit(_get(1))
        assert accepted and [v[0].request_id for v in victims] == [0]
        assert ctl.release(_get(0)) is True   # husk: skip it
        assert ctl.release(_get(0)) is False  # idempotent
        assert ctl.release(_get(1)) is False  # live: serve it

    def test_window_spans_dispatch_to_finish(self):
        ctl = _controller(limit=2)
        ctl.admit(_get(0))
        ctl.admit(_get(1))
        assert ctl.release(_get(0)) is False
        assert ctl.depth == 2  # dispatched but unfinished still counts
        accepted, _ = ctl.admit(_get(2))
        assert not accepted
        ctl.finish(_get(0))
        assert ctl.depth == 1
        accepted, _ = ctl.admit(_get(3))
        assert accepted

    def test_in_service_work_is_never_victimized(self):
        ctl = _controller(shed="aggressive", victim="fifo", limit=2)
        ctl.admit(_get(0))
        ctl.admit(_get(1))
        ctl.release(_get(0))  # rid 0 is now in service
        accepted, victims = ctl.admit(_get(2))
        # Aggressive wants depth 1, but only the queued rid 1 and the
        # arrival are sheddable: rid 0 rides on.
        assert [v[0].request_id for v in victims] == [1]
        assert not accepted
        assert ctl.depth == 1  # just the in-service request

    @pytest.mark.parametrize("policy", policy_grid(),
                            ids=lambda p: p.cell.replace("/", "-"))
    def test_every_cell_bounds_depth_and_accounts_exactly(self, policy):
        ctl = AdmissionController(policy, limit=3, seed=policy_grid().index(policy))
        outcomes = {"accepted": 0, "shed": 0}
        for rid in range(40):
            accepted, victims = ctl.admit(_get(rid, src=-1 if rid % 3 else 4))
            outcomes["accepted"] += 1 if accepted else 0
            outcomes["shed"] += len(victims) + (0 if accepted else 1)
            assert ctl.depth <= 3
        assert outcomes["shed"] == ctl.shed
        assert outcomes["accepted"] == ctl.admitted
        # Every admitted request is still queued or was shed-after-queue.
        assert ctl.admitted == ctl.depth + (ctl.shed - (40 - outcomes["accepted"]))


# ---------------------------------------------------------------------------
# the windowed latency tracker
# ---------------------------------------------------------------------------


class TestLatencyTracker:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            LatencyTracker(window=0.0)

    def test_quantiles_over_the_window(self):
        t = LatencyTracker(window=1.0)
        for i in range(100):
            t.record(0.5, i / 1000.0)
        assert t.count(1.0) == 100
        assert t.quantile(1.0, 0.5) == pytest.approx(0.050)
        assert t.p99(1.0) == pytest.approx(0.099)

    def test_samples_expire(self):
        t = LatencyTracker(window=1.0)
        t.record(0.0, 0.9)
        t.record(2.0, 0.1)
        assert t.count(2.5) == 1
        assert t.p99(2.5) == pytest.approx(0.1)

    def test_empty_window_is_zero(self):
        t = LatencyTracker(window=1.0)
        assert t.count(0.0) == 0 and t.p99(0.0) == 0.0
        t.record(0.0, 0.5)
        t.reset()
        assert t.count(0.0) == 0


# ---------------------------------------------------------------------------
# live flood: shed, redirect, conserve, conform — per policy cell
# ---------------------------------------------------------------------------


class _ShedCohort(LoadGenerator):
    """A load generator that also counts the requests shed at least
    once that went on to complete at a redirect target (``rescued``)."""

    rescued = 0

    async def _follow_redirects(self, outcome, name, report, start, loop):
        # Its own report: requests completing meanwhile do not count.
        mine = LoadReport()
        await super()._follow_redirects(outcome, name, mine, start, loop)
        self.rescued += mine.completed
        report.merge(mine)


async def _flood(config: RuntimeConfig, rps: float = 600.0,
                 duration: float = 0.3, files: int = 2, seed: int = 7,
                 generator: type[LoadGenerator] = LoadGenerator):
    """Boot, insert a hot file set, flood, quiesce, replay the oracle."""
    cluster = await LiveCluster.start(config)
    try:
        names = [f"hot-{i}.dat" for i in range(files)]
        boot = await RuntimeClient(cluster, min(cluster.nodes)).connect()
        for name in names:
            await boot.insert(name, f"payload of {name}")
        await boot.close()
        await cluster.drain()
        gen = generator(cluster, names, WorkloadShape(kind="zipf", s=2.0),
                        seed=seed, timeout=2.0)
        report = await gen.run_open_loop(rps=rps, duration=duration)
        await gen.close()
        await cluster.quiesce()
        system = replay_oplog(cluster.oplog, config, cluster.initial_live)
        system.check_invariants()
        conformance = diff_states(cluster, system)
        shed_total = sum(n.shed_total for n in cluster.nodes.values())
        return report, conformance, shed_total, gen
    finally:
        await cluster.shutdown()


def _overload_config(policy: OverloadPolicy, **kwargs) -> RuntimeConfig:
    base = dict(m=3, b=1, seed=7, inbox_limit=1, service_time=0.003,
                shed_policy=policy.shed, queue_policy=policy.queue,
                victim_policy=policy.victim)
    base.update(kwargs)
    return RuntimeConfig(**base)


@pytest.mark.runtime
@pytest.mark.parametrize("policy", policy_grid(),
                        ids=lambda p: p.cell.replace("/", "-"))
def test_flash_crowd_conserves_in_every_cell(policy):
    report, conformance, shed_total, _ = asyncio.run(
        _flood(_overload_config(policy))
    )
    assert report.requests > 50
    assert report.conserved, report.as_dict()
    assert report.timeouts == 0
    assert conformance.ok, conformance.render()
    # The tiny admitted-work window under a hot zipf flood must shed.
    assert report.overloads > 0 and shed_total > 0


@pytest.mark.runtime
def test_overload_replies_redirect_to_live_replicas():
    policy = OverloadPolicy()  # conservative/fcfs/lifo
    report, conformance, _, cohort = asyncio.run(
        _flood(_overload_config(policy), generator=_ShedCohort)
    )
    assert report.conserved and conformance.ok
    # Redirect hints resolve: each names a live node, and requests
    # refused at first complete at the node it names.  How many do is
    # not asserted: under a slower loop (``python -X dev``) the
    # open-loop fires bunch, the holders the hints name shed too, and
    # completions can fall below sheds with the redirect path intact.
    assert report.redirected > 0
    assert report.stale_sheds == 0 and report.rerouted == 0
    assert cohort.rescued > 0


@pytest.mark.runtime
def test_unbounded_inbox_never_sheds():
    config = _overload_config(OverloadPolicy(), inbox_limit=0)
    report, conformance, shed_total, _ = asyncio.run(_flood(config))
    assert shed_total == 0 and report.overloads == 0 and report.shed == 0
    assert report.conserved and conformance.ok


@pytest.mark.runtime
def test_slo_trigger_replicates_where_rate_trigger_would_not():
    # A single hot file, long service time, generous hit capacity: the
    # raw-rate trigger stays cold while the windowed p99 blows the tiny
    # SLO budget — only the SLO path can explain the extra replicas.
    async def run(slo_budget):
        config = RuntimeConfig(m=3, b=1, seed=7, service_time=0.01,
                               capacity=10_000.0, window=0.5,
                               slo_budget=slo_budget)
        cluster = await LiveCluster.start(config)
        try:
            boot = await RuntimeClient(cluster, min(cluster.nodes)).connect()
            await boot.insert("hot-0.dat", "payload")
            await boot.close()
            await cluster.drain()
            gen = LoadGenerator(cluster, ["hot-0.dat"], WorkloadShape(),
                                seed=7, timeout=2.0)
            await gen.run_open_loop(rps=300.0, duration=0.5)
            await gen.close()
            await cluster.quiesce()
            return cluster.replicas_created()
        finally:
            await cluster.shutdown()

    with_slo = asyncio.run(run(0.001))
    without_slo = asyncio.run(run(float("inf")))
    assert with_slo > without_slo, (with_slo, without_slo)
