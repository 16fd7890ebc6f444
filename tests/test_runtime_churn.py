"""Tests for mid-burst churn against the live overload plane
(``repro.runtime.churn`` + the liveness-aware redirect machinery).

The deterministic pieces — event/injector validation and schedule
seeding — run in tier-1.  Everything that boots a real cluster, kills
nodes mid-flood, and audits the ledger afterwards carries the
``runtime`` marker and runs in CI's churn-overload smoke job.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.runtime import (
    ChurnEvent,
    ChurnInjector,
    LiveCluster,
    LoadGenerator,
    RuntimeClient,
    RuntimeConfig,
    WorkloadShape,
    diff_states,
    replay_oplog,
)

# ---------------------------------------------------------------------------
# events and schedules (deterministic, tier-1)
# ---------------------------------------------------------------------------


class TestChurnEvent:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown churn action"):
            ChurnEvent(at=0.1, action="explode")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            ChurnEvent(at=-0.1, action="kill")

    def test_valid_event_carries_optional_pid(self):
        event = ChurnEvent(at=0.5, action="crash", pid=3)
        assert event.at == 0.5 and event.action == "crash" and event.pid == 3
        assert ChurnEvent(at=0.0, action="join").pid is None


class TestChurnSchedule:
    def test_min_live_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="min_live"):
            ChurnInjector(object(), [], min_live=0)

    def test_window_fractions_validated(self):
        with pytest.raises(ConfigurationError, match="start_frac"):
            ChurnInjector.scheduled(object(), 1.0, start_frac=0.9, end_frac=0.1)

    def test_events_sorted_by_time(self):
        events = [
            ChurnEvent(at=0.8, action="kill"),
            ChurnEvent(at=0.2, action="join"),
            ChurnEvent(at=0.5, action="crash"),
        ]
        injector = ChurnInjector(object(), events)
        assert [e.at for e in injector.events] == [0.2, 0.5, 0.8]

    def test_scheduled_lands_inside_the_burst_window(self):
        injector = ChurnInjector.scheduled(
            object(), 2.0, kills=2, crashes=1, joins=1, seed=9
        )
        assert len(injector.events) == 4
        assert all(0.5 <= e.at <= 1.5 for e in injector.events)
        actions = sorted(e.action for e in injector.events)
        assert actions == ["crash", "join", "kill", "kill"]
        # Scheduled victims defer to fire time: never pinned up front.
        assert all(e.pid is None for e in injector.events)

    def test_schedule_is_seed_deterministic(self):
        def times(seed):
            inj = ChurnInjector.scheduled(object(), 1.0, kills=3, seed=seed)
            return [e.at for e in inj.events]

        assert times(7) == times(7)
        assert times(7) != times(8)

    def test_finalize_requires_start(self):
        injector = ChurnInjector.scheduled(object(), 1.0)
        with pytest.raises(ConfigurationError, match="never started"):
            asyncio.run(injector.finalize())


# ---------------------------------------------------------------------------
# live cluster helpers
# ---------------------------------------------------------------------------


def _churn_config(**kwargs) -> RuntimeConfig:
    base = dict(m=3, b=1, seed=7, inbox_limit=2, service_time=0.005)
    base.update(kwargs)
    return RuntimeConfig(**base)


async def _boot_with_hot_file(config, name="hot-0.dat", replicate=True):
    """Start a cluster, insert ``name``, optionally pre-seed a replica
    (via the recorded admin overload trigger) so the file has at least
    two holders.  Returns (cluster, home)."""
    cluster = await LiveCluster.start(config)
    boot = await RuntimeClient(cluster, min(cluster.nodes)).connect()
    await boot.insert(name, f"payload of {name}")
    await boot.close()
    await cluster.drain()
    home = min(cluster.holders(name))
    if replicate:
        await cluster.trigger_overload(home, name, config.seed)
        await cluster.drain()
    return cluster, home


# ---------------------------------------------------------------------------
# satellite: the redirect hint consults the shedder's status word
# ---------------------------------------------------------------------------


@pytest.mark.runtime
def test_redirect_hint_never_names_a_word_dead_replica():
    """Regression for the stale-hint fix: once the shedder's own word
    has processed a replica holder's death, its OVERLOAD hints must
    stop naming the corpse (pre-fix they kept doing so until the
    holder view itself caught up)."""

    async def run():
        cluster, home = await _boot_with_hot_file(_churn_config())
        try:
            name = "hot-0.dat"
            holders = sorted(cluster.holders(name))
            assert len(holders) >= 2, holders
            shedder = cluster.nodes[home]
            others = [p for p in holders if p != home]
            hint = shedder._redirect_hint(name)
            assert hint in others  # a live alternative while all is well
            for other in others:
                shedder.word.register_dead(other)
            assert shedder._redirect_hint(name) == -1
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_redirect_hint_falls_back_on_cached_holders():
    """When the fresh holder view goes empty (every alternative died
    silently), the hint falls back on the last holder set the node
    observed — stale knowledge, exactly what a real peer would have.
    The word filter still applies on top of the cache."""

    async def run():
        cluster, home = await _boot_with_hot_file(_churn_config())
        try:
            name = "hot-0.dat"
            shedder = cluster.nodes[home]
            others = [p for p in sorted(cluster.holders(name)) if p != home]
            assert shedder._redirect_hint(name) in others  # primes the cache
            for other in others:
                await cluster.crash(other, announce=False)
            assert cluster.holders(name) == {home}
            # Nobody told the shedder: the cache-backed hint still names
            # a corpse — the client-side reroute is what absorbs it.
            assert all(shedder.word.is_live(p) for p in others)
            assert shedder._redirect_hint(name) in others
            # Once its own FINDLIVENODE marks the deaths, the hint dries up.
            for other in others:
                shedder.word.register_dead(other)
            assert shedder._redirect_hint(name) == -1
        finally:
            await cluster.shutdown()

    asyncio.run(run())


# ---------------------------------------------------------------------------
# satellite: redirect chains crossing a silent crash terminate
# ---------------------------------------------------------------------------


@pytest.mark.runtime
def test_redirect_chain_over_silent_crash_terminates_in_budget():
    """Seed-stable: a flood whose redirect chains cross a mid-burst
    ``crash(announce=False)`` must terminate within the redirect
    budget — every request lands in exactly one terminal, none of them
    a stale shed, and nothing hangs past the deadline."""

    async def run():
        config = _churn_config(inbox_limit=1, service_time=0.008)
        cluster, home = await _boot_with_hot_file(config)
        try:
            name = "hot-0.dat"
            victim = next(
                p for p in sorted(cluster.holders(name)) if p != home
            )
            duration = 0.4
            injector = ChurnInjector(
                cluster,
                [ChurnEvent(at=0.3 * duration, action="kill", pid=victim)],
                seed=config.seed,
                min_live=3,
            )
            gen = LoadGenerator(
                cluster, [name], WorkloadShape(kind="zipf", s=2.0),
                seed=config.seed, timeout=2.0, redirects=3,
            )
            injector.start()
            report = await gen.run_open_loop(rps=500.0, duration=duration)
            await gen.close()
            applied = await injector.finalize()
            assert any(e["action"] == "kill" for e in applied)
            assert report.requests > 50
            assert report.conserved, report.as_dict()
            assert report.stale_sheds == 0
            # Redirect chains consume bounded budget: every redirected
            # retry traces back to an OVERLOAD reply.
            assert report.redirected <= report.overloads
        finally:
            await cluster.shutdown()

    # The whole point: the chain terminates.  A hang fails loudly here
    # instead of stalling the suite.
    asyncio.run(asyncio.wait_for(run(), timeout=30.0))


# ---------------------------------------------------------------------------
# the injector against a live flood
# ---------------------------------------------------------------------------


@pytest.mark.runtime
def test_mid_burst_churn_conserves_and_conforms():
    """The tentpole end to end: silent kills land mid-flood, autopsies
    close the oplog halves post-burst, the client ledger conserves
    (churn losses included), and the survivors still replay to the
    oracle's exact state."""

    async def run():
        config = _churn_config()
        cluster, _ = await _boot_with_hot_file(config)
        try:
            names = ["hot-0.dat"]
            duration = 0.5
            injector = ChurnInjector.scheduled(
                cluster, duration, kills=2, seed=config.seed, min_live=3
            )
            gen = LoadGenerator(
                cluster, names, WorkloadShape(kind="zipf", s=2.0),
                seed=config.seed, timeout=2.0,
            )
            injector.start()
            report = await gen.run_open_loop(rps=400.0, duration=duration)
            await gen.close()
            applied = await injector.finalize()
            kills = [e for e in applied if e["action"] == "kill"]
            autopsies = [e for e in applied if e["action"] == "autopsy"]
            killed = {e["pid"] for e in kills if e["pid"] is not None}
            # Every silent kill that was not resurrected got its autopsy.
            assert killed == {e["pid"] for e in autopsies}
            assert not cluster._silent_deaths
            assert report.requests > 50
            assert report.conserved, report.as_dict()
            # The oplog closed both halves for every victim.
            kinds = [(r.kind, r.pid) for r in cluster.oplog]
            for pid in killed:
                assert ("kill", pid) in kinds and ("recover", pid) in kinds
            await cluster.quiesce()
            system = replay_oplog(cluster.oplog, config, cluster.initial_live)
            system.check_invariants()
            conformance = diff_states(cluster, system)
            assert conformance.ok, conformance.render()
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_min_live_floor_skips_the_kill():
    """Events that would breach ``min_live`` are skipped and reported
    with ``pid=None`` — the injector never grinds a cluster to dust."""

    async def run():
        cluster = await LiveCluster.start(RuntimeConfig(m=2, b=0, seed=1))
        try:
            live = len(cluster.nodes)
            injector = ChurnInjector.scheduled(
                cluster, 0.05, kills=1, seed=3, min_live=live
            )
            injector.start()
            applied = await injector.finalize()
            assert applied == [{"at": injector.events[0].at,
                                "action": "kill", "pid": None}]
            assert len(cluster.nodes) == live
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_join_on_a_silent_corpse_runs_the_autopsy_first():
    """No resurrection before the coroner files: rejoining a silently
    dead PID must first announce the crash (recovery + the closing
    ``recover`` record), then register the arrival."""

    async def run():
        config = _churn_config()
        cluster, home = await _boot_with_hot_file(config)
        try:
            victim = next(
                p for p in sorted(cluster.holders("hot-0.dat")) if p != home
            )
            await cluster.crash(victim, announce=False)
            assert victim in cluster._silent_deaths
            await cluster.join(victim)
            assert victim not in cluster._silent_deaths
            kinds = [(r.kind, r.pid) for r in cluster.oplog]
            kill_at = kinds.index(("kill", victim))
            recover_at = kinds.index(("recover", victim))
            arrive_at = kinds.index(("arrive", victim))
            assert kill_at < recover_at < arrive_at
            await cluster.quiesce()
            system = replay_oplog(cluster.oplog, config, cluster.initial_live)
            assert diff_states(cluster, system).ok
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_generator_redials_a_rejoined_entry():
    """Regression: a cached client whose entry died silently is a husk;
    when the entry *rejoins*, the generator must redial instead of
    writing into the dead transport.  Pre-fix, the reused husk's sends
    were counted against the live-again entry but never arrived, so
    ``_inflight_to`` stuck above zero and every later ``drain()``
    (e.g. a mid-burst join's REGISTER_LIVE broadcast) hit its timeout."""

    async def run():
        config = _churn_config()
        cluster, _ = await _boot_with_hot_file(config, replicate=False)
        try:
            name = "hot-0.dat"
            entry = max(p for p in cluster.nodes if p not in
                        cluster.holders(name))
            gen = LoadGenerator(cluster, [name], seed=3, timeout=2.0)
            client = await gen._client(entry)
            assert (await client.get(name)).ok
            await cluster.crash(entry, announce=False)
            await asyncio.sleep(0)  # let the EOF reach the read loop
            assert client.connection_lost
            await cluster.join(entry)
            fresh = await gen._client(entry)
            assert fresh is not client and not fresh.connection_lost
            assert (await fresh.get(name)).ok
            await gen.close()
            # The ledger balanced: the drain terminates immediately.
            await cluster.drain()
        finally:
            await cluster.shutdown()

    asyncio.run(asyncio.wait_for(run(), timeout=30.0))


# ---------------------------------------------------------------------------
# satellite: lifecycle conservation under churn, property-tested live
# ---------------------------------------------------------------------------


@pytest.mark.runtime
class TestChurnedLifecycleProperty:
    """The live dual of the DES lifecycle property: under any seeded
    churn schedule, every fired request lands in exactly one terminal —
    completed, fault, error, timeout, shed, or churn-lost."""

    @given(
        seed=st.integers(min_value=0, max_value=31),
        kills=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=4, deadline=None)
    def test_terminals_partition_the_fired_requests(self, seed, kills):
        async def run():
            config = _churn_config(seed=seed)
            cluster, _ = await _boot_with_hot_file(config)
            try:
                duration = 0.25
                injector = ChurnInjector.scheduled(
                    cluster, duration, kills=kills, seed=seed, min_live=3
                )
                gen = LoadGenerator(
                    cluster, ["hot-0.dat"], WorkloadShape(kind="zipf", s=2.0),
                    seed=seed, timeout=2.0,
                )
                injector.start()
                report = await gen.run_open_loop(rps=300.0, duration=duration)
                await gen.close()
                await injector.finalize()
                return report
            finally:
                await cluster.shutdown()

        report = asyncio.run(run())
        assert report.requests > 0
        total = (
            report.completed + report.faults + report.errors
            + report.timeouts + report.shed + report.churn_lost
        )
        assert total == report.requests, report.as_dict()
        assert report.conserved
        assert report.stale_sheds == 0
