"""Scenario fuzzer, shrinker, and replay (repro.verify).

Covers the full loop the tooling promises: a clean system fuzzes
violation-free; an injected placement bug is caught, delta-debugged to
a handful of events, serialized, and replays deterministically.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.cluster import LessLogSystem
from repro.verify import (
    FuzzConfig,
    Scenario,
    ScenarioEvent,
    ScenarioFuzzer,
    ScenarioHarness,
    Shrinker,
    generate_scenario,
    load_repro,
    replay_file,
    replay_scenario,
    save_repro,
)
from repro.verify.fuzzer import NO_CRASH


class TestScenarioModel:
    def test_generation_deterministic(self):
        a = generate_scenario(seed=9, m=5, b=1, n_events=30)
        b = generate_scenario(seed=9, m=5, b=1, n_events=30)
        assert a.events == b.events and a.dead == b.dead

    def test_json_round_trip(self):
        scenario = generate_scenario(seed=4, m=5, b=1, n_events=25)
        back = Scenario.from_json(scenario.to_json())
        assert back.events == scenario.events
        assert (back.m, back.b, back.seed, back.dead) == (
            scenario.m, scenario.b, scenario.seed, scenario.dead,
        )

    def test_unknown_mutation_rejected(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown mutation"):
            ScenarioHarness(Scenario(m=4, b=0, seed=0, mutation="nope"))

    def test_infeasible_events_skipped_not_raised(self):
        harness = ScenarioHarness(Scenario(m=4, b=0, seed=0, dead=[3]))
        assert not harness.apply(ScenarioEvent("get", {"file": "ghost", "entry": 1}))
        assert not harness.apply(ScenarioEvent("get", {"file": "ghost", "entry": 3}))
        assert not harness.apply(ScenarioEvent("replicate", {"file": "ghost"}))
        assert not harness.apply(ScenarioEvent("join", {"pid": 1}))  # already live
        assert harness.skipped == 4 and harness.applied == 0

    def test_generator_stream_is_pinned(self):
        # sha256 of every event's (op, params), seeds 0-4, at two
        # shapes.  Pinned before the in-process live ops merged into
        # ``live_cluster`` (that rename and the churned bursts'
        # ``burst_churn`` flag applied): a changed draw anywhere shifts
        # every seed-pinned scenario after it.
        golden = [
            ({}, "2b7ade2ac997a03e466463f729ab9526f6c200f2a9697062ccd3618e4d575567"),
            ({"m": 4, "b": 1, "n_events": 40},
             "9be90f1934020b50d542a4ec4b02af9fe03ade606ba6c62f09e2f0a9076620d9"),
        ]
        for shape, digest in golden:
            h = hashlib.sha256()
            for seed in range(5):
                events = generate_scenario(seed=seed, **shape).events
                h.update(json.dumps([[e.op, e.params] for e in events],
                                    sort_keys=True).encode())
            assert h.hexdigest() == digest, shape

    def test_same_scenario_same_trajectory(self):
        scenario = generate_scenario(seed=12, m=5, b=1, n_events=40)
        from repro.cluster.snapshot import snapshot_to_json

        snapshots = []
        for _ in range(2):
            harness = ScenarioHarness(scenario)
            for event in scenario.events:
                harness.apply(event)
            snapshots.append(snapshot_to_json(harness.system))
        assert snapshots[0] == snapshots[1]


@pytest.mark.fuzz
class TestFuzzSmoke:
    """Bounded tier-1 smoke: N seeds, small m, all invariants."""

    def test_clean_system_fuzzes_clean(self):
        report = ScenarioFuzzer().fuzz(
            FuzzConfig(seeds=8, m=5, b=1, events=35)
        )
        assert report.ok, report.render()
        assert report.scenarios == 8
        assert report.checks > 1000
        assert report.events_applied > 100

    def test_b0_and_b2_shapes(self):
        for m, b in ((4, 0), (5, 2)):
            report = ScenarioFuzzer().fuzz(
                FuzzConfig(seeds=4, m=m, b=b, events=30)
            )
            assert report.ok, report.render()


def _live_cluster_params(seeds):
    """The params of every ``live_cluster`` event over ``seeds`` seeds."""
    return [
        event.params
        for seed in range(seeds)
        for event in generate_scenario(seed=seed, m=5, b=1, n_events=40).events
        if event.op == "live_cluster"
    ]


class TestLiveSegmentOp:
    """The runtime-driven fuzzer op: seeded segments through the live
    asyncio runtime, audited for oracle conformance."""

    def test_scripted_segment_records_a_conformant_report(self):
        harness = ScenarioHarness(Scenario(m=4, b=1, seed=0))
        event = ScenarioEvent(
            "live_cluster",
            {"m": 3, "b": 1, "files": 2, "ops": 6, "seed": 42},
        )
        assert harness.apply(event)
        assert len(harness.live_reports) == 1
        report = harness.live_reports[-1]
        assert report.ok, report.render()
        assert not harness.load_reports  # no rps, no burst

    def test_generator_emits_live_segments(self):
        assert any("ops" in p for p in _live_cluster_params(6))

    def test_conformance_invariant_audits_the_last_report(self):
        from repro.verify.invariants import RuntimeConformance

        names = [inv.name for inv in __import__(
            "repro.verify.invariants", fromlist=["default_invariants"]
        ).default_invariants()]
        assert RuntimeConformance.name in names


class TestLiveOverloadOp:
    """The overload fuzzer op: a flash-crowd burst against a bounded
    inbox through the live runtime, audited for ledger conservation
    and oracle conformance."""

    def _event(self, **overrides):
        params = {
            "shed": "conservative", "queue": "fcfs", "victim": "lifo",
            "inbox_limit": 2, "files": 1, "rps": 400,
            "duration": 0.15, "seed": 13,
        }
        params.update(overrides)
        return ScenarioEvent("live_cluster", params)

    def test_scripted_burst_records_a_conserved_report(self):
        harness = ScenarioHarness(Scenario(m=4, b=1, seed=0))
        assert harness.apply(self._event())
        assert len(harness.load_reports) == 1
        record = harness.load_reports[-1]
        assert record["cell"] == "conservative/fcfs/lifo"
        assert record["requests"] > 0
        assert record["conserved"], record
        assert len(harness.live_reports) == 1
        assert harness.live_reports[-1].ok, harness.live_reports[-1].render()

    def test_unknown_policy_cell_is_skipped_not_raised(self):
        harness = ScenarioHarness(Scenario(m=4, b=1, seed=0))
        assert not harness.apply(self._event(shed="nope"))
        assert harness.skipped == 1 and not harness.load_reports

    def test_generator_emits_live_overload(self):
        assert any("rps" in p and not p.get("burst_churn")
                   for p in _live_cluster_params(8))

    def test_overload_invariant_is_registered(self):
        from repro.verify.invariants import OverloadAccounting, default_invariants

        names = [inv.name for inv in default_invariants()]
        assert OverloadAccounting.name in names

    def test_generator_emits_live_churn_overload(self):
        assert any(p.get("burst_churn") for p in _live_cluster_params(8))

    def test_stale_redirect_invariant_is_registered(self):
        from repro.verify.invariants import StaleRedirect, default_invariants

        names = [inv.name for inv in default_invariants()]
        assert StaleRedirect.name in names

    def test_a_timeout_before_its_deadline_fails_the_burst(self):
        from repro.verify.invariants import (
            AuditContext,
            InvariantViolation,
            TimeoutTakesItsTime,
            default_invariants,
        )

        invariant = TimeoutTakesItsTime()
        assert invariant.name in [inv.name for inv in default_invariants()]
        ctx = AuditContext(harness=ScenarioHarness(Scenario(m=4, b=1, seed=0)))
        ledger = {"nodes": 4, "timeout": 5.0, "timeouts": 1}
        invariant.audit(ctx, {**ledger, "timeouts": 0, "timeout_min_s": None})
        invariant.audit(ctx, {**ledger, "timeout_min_s": 5.0})
        with pytest.raises(InvariantViolation, match="timeout-takes-its-time"):
            invariant.audit(ctx, {**ledger, "timeout_min_s": 0.72})


@pytest.mark.fuzz
class TestChurnedBurstsFuzzClean:
    """The churned overload op against the *fixed* runtime: across
    several generator seeds containing mid-burst silent kills, the
    stale-redirect and overload-conservation invariants hold."""

    def test_clean_across_seeds(self):
        # Deterministic precondition: these base seeds actually carry
        # churned bursts, so the stale-redirect invariant is exercised
        # on >= 3 distinct seeds rather than vacuously passing.
        churned_seeds = [
            seed for seed in range(7)
            if any(e.op == "live_cluster" and e.params.get("burst_churn")
                   for e in generate_scenario(seed=seed, m=5, b=1,
                                              n_events=40).events)
        ]
        assert len(churned_seeds) >= 3, churned_seeds
        report = ScenarioFuzzer().fuzz(
            FuzzConfig(seeds=7, m=5, b=1, events=40)
        )
        assert report.ok, report.render()


@pytest.mark.fuzz
class TestStaleHintCaught:
    """Acceptance path for the churn-hardened redirect machinery: with
    the client-side reroute disabled (the pre-fix behavior), a silent
    mid-burst crash turns cached redirect hints into terminal sheds —
    caught by stale-redirect, delta-debugged to the single churned
    burst, and replayed deterministically from its JSON."""

    def _scenario(self):
        return Scenario(
            m=3, b=1, seed=7, mutation="stale-hint",
            events=[
                ScenarioEvent("insert", {"file": "f0"}),
                ScenarioEvent("get", {"file": "f0", "entry": 1}),
                ScenarioEvent("live_cluster", {
                    "shed": "conservative", "queue": "fcfs",
                    "victim": "lifo", "inbox_limit": 2, "files": 1,
                    "rps": 800, "duration": 0.3, "seed": 7,
                    "service_time": 0.005, "burst_churn": True,
                }),
            ],
        )

    def test_stale_hint_caught_shrunk_and_replayed(self, tmp_path):
        violation = ScenarioFuzzer().run_scenario(self._scenario())
        assert violation is not None, "stale hints were not caught"
        assert violation.invariant == "stale-redirect"
        assert "hint named a dead node" in violation.message

        minimized, shrunk = Shrinker().shrink(violation.scenario, violation)
        assert [e.op for e in minimized.events] == ["live_cluster"]
        assert shrunk.invariant == violation.invariant

        path = save_repro(tmp_path / "stale.json", minimized, shrunk)
        outcomes = [replay_file(path) for _ in range(2)]
        assert all(o.reproduced for o in outcomes)
        assert outcomes[0].violation.step == outcomes[1].violation.step


@pytest.mark.fuzz
class TestPhantomShedCaught:
    """Acceptance path for the overload ledger: a mutation that invents
    a shed is caught by overload-shed-conservation, delta-debugged to a
    single burst event, and replays deterministically from its JSON."""

    def _scenario(self):
        return Scenario(
            m=4, b=1, seed=0, mutation="phantom-shed",
            events=[
                ScenarioEvent("insert", {"file": "f0"}),
                ScenarioEvent("get", {"file": "f0", "entry": 1}),
                ScenarioEvent("live_cluster", {
                    "shed": "aggressive", "queue": "priority",
                    "victim": "fifo", "inbox_limit": 2, "files": 1,
                    "rps": 400, "duration": 0.15, "seed": 13,
                }),
            ],
        )

    def test_phantom_shed_caught_shrunk_and_replayed(self, tmp_path):
        violation = ScenarioFuzzer().run_scenario(self._scenario())
        assert violation is not None, "phantom shed was not caught"
        assert violation.invariant == "overload-shed-conservation"
        assert "shed" in violation.message

        minimized, shrunk = Shrinker().shrink(violation.scenario, violation)
        assert [e.op for e in minimized.events] == ["live_cluster"]
        assert shrunk.invariant == violation.invariant

        path = save_repro(tmp_path / "shed.json", minimized, shrunk)
        outcomes = [replay_file(path) for _ in range(2)]
        assert all(o.reproduced for o in outcomes)
        assert outcomes[0].violation.step == outcomes[1].violation.step


@pytest.mark.fuzz
class TestMutationCaught:
    """Acceptance path: injected bug → caught → shrunk ≤ 10 → replays."""

    def _first_violation(self, mutation):
        report = ScenarioFuzzer().fuzz(
            FuzzConfig(seeds=4, m=5, b=1, events=40, mutation=mutation)
        )
        assert not report.ok, f"{mutation} was not caught"
        return report.violations[0]

    def test_placement_bug_caught_shrunk_and_replayed(self, tmp_path):
        violation = self._first_violation("misplace-replica")
        assert violation.invariant == "placement-binomial-subtree"

        shrinker = Shrinker()
        minimized, shrunk = shrinker.shrink(violation.scenario, violation)
        assert len(minimized.events) <= 10
        assert shrunk.invariant == violation.invariant

        path = save_repro(tmp_path / "repro.json", minimized, shrunk)
        outcomes = [replay_file(path) for _ in range(2)]
        assert all(o.reproduced for o in outcomes)
        assert outcomes[0].violation.step == outcomes[1].violation.step
        assert outcomes[0].violation.message == outcomes[1].violation.message

    def test_skip_update_caught(self):
        violation = self._first_violation("skip-update")
        assert violation.invariant == "version-coherence"

    def test_conflated_drop_accounting_caught(self):
        violation = self._first_violation("conflate-drops")
        assert violation.invariant == "metrics-trace-reconcile"

    def test_dropped_admin_frame_caught_shrunk_and_replayed(self, tmp_path):
        # The coordinator's mirror and oplog agree by construction; what
        # conformance still checks is that the frames it issued reached
        # the real stores.  Swallow one and the placement diff must say
        # so, shrunk to the one live probe that lost the copy.
        violation = self._first_violation("drop-admin-frame")
        assert violation.invariant == "runtime-oracle-conformance"
        assert "placement" in violation.message

        minimized, shrunk = Shrinker().shrink(violation.scenario, violation)
        assert [e.op for e in minimized.events] == ["live_cluster"]
        assert shrunk.invariant == violation.invariant

        path = save_repro(tmp_path / "dropped.json", minimized, shrunk)
        assert replay_file(path).reproduced

    def test_forgotten_placement_caught_shrunk_and_replayed(self, tmp_path):
        # A decider that does not learn its target leaves the new copy
        # out of its placed set, so its UPDATE fan-out skips it: the
        # holder keeps a stale version, found by the conformance diff
        # and shrunk to the one live probe that placed and updated.
        violation = self._first_violation("forget-placement")
        assert violation.invariant == "runtime-oracle-conformance"
        assert "version:" in violation.message and " at P(" in violation.message

        minimized, shrunk = Shrinker().shrink(violation.scenario, violation)
        assert [e.op for e in minimized.events] == ["live_cluster"]
        assert shrunk.invariant == violation.invariant

        path = save_repro(tmp_path / "forgotten.json", minimized, shrunk)
        assert replay_file(path).reproduced

    def test_dropped_timeout_caught(self):
        # The mutation cancels a doomed request's deadline event: it can
        # neither complete nor expire, so once the engine drains the
        # lifecycle invariant must see it stuck inflight.
        violation = self._first_violation("drop-timeout")
        assert violation.invariant == "request-lifecycle-conservation"
        assert "timeout event was lost" in violation.message


class TestShrinker:
    def test_shrinks_to_minimal_pair(self):
        scenario = generate_scenario(
            seed=1, m=4, b=1, n_events=40, mutation="misplace-replica"
        )
        violation = ScenarioFuzzer().run_scenario(scenario)
        assert violation is not None
        minimized, shrunk = Shrinker().shrink(violation.scenario, violation)
        ops = [e.op for e in minimized.events]
        assert ops == ["insert", "replicate"]
        assert shrunk.step == len(minimized.events) - 1

    def test_nonreproducing_input_returned_unshrunk(self):
        scenario = generate_scenario(seed=0, m=4, b=1, n_events=10)
        clean = ScenarioFuzzer().run_scenario(scenario)
        assert clean is None
        # Fabricate a "violation" that does not reproduce: the shrinker
        # must hand back its input rather than invent a repro.
        from repro.verify.fuzzer import Violation

        fake = Violation(
            invariant="placement-binomial-subtree", message="fake",
            seed=0, step=len(scenario.events) - 1, scenario=scenario,
        )
        minimized, result = Shrinker().shrink(scenario, fake)
        assert result is fake and minimized is scenario

    def test_repro_file_round_trip(self, tmp_path):
        scenario = generate_scenario(
            seed=2, m=4, b=1, n_events=30, mutation="skip-update"
        )
        violation = ScenarioFuzzer().run_scenario(scenario)
        assert violation is not None
        path = save_repro(tmp_path / "case.json", violation.scenario, violation)
        loaded, expected = load_repro(path)
        assert loaded.events == violation.scenario.events
        assert expected["invariant"] == violation.invariant


class TestSwallowedHandlerErrorCaught:
    """The runtime counts a node handler that raised and carries on; a
    live probe must still fail on it, naming the counter."""

    @staticmethod
    def _violation(monkeypatch):
        from repro.runtime.node import NodeServer

        serve = NodeServer._handle_get

        async def serve_then_raise(self, msg, conn):
            await serve(self, msg, conn)  # the client still gets its reply
            raise RuntimeError("injected handler fault")

        monkeypatch.setattr(NodeServer, "_handle_get", serve_then_raise)
        scenario = Scenario(
            m=4, b=1, seed=0,
            events=[ScenarioEvent(
                "live_cluster",
                {"m": 3, "b": 1, "files": 2, "ops": 6, "seed": 42},
            )],
        )
        return ScenarioFuzzer().run_scenario(scenario)

    def test_raising_get_handler_fails_the_live_probe(self, monkeypatch):
        violation = self._violation(monkeypatch)
        assert violation is not None, "a swallowed handler error passed"
        assert violation.invariant == "runtime-oracle-conformance"
        assert "handler_errors" in violation.message

    def test_the_violation_quotes_the_kept_traceback(self, monkeypatch):
        # The counter alone says that a handler raised; the host also
        # keeps the traceback, and the mismatch names the raising frame
        # and the exception.
        violation = self._violation(monkeypatch)
        assert violation is not None, "a swallowed handler error passed"
        assert "in serve_then_raise" in violation.message
        assert "RuntimeError: injected handler fault" in violation.message


class TestCrashTreatedAsViolation:
    def test_apply_exception_reported_not_raised(self):
        scenario = Scenario(
            m=4, b=0, seed=0,
            events=[ScenarioEvent("insert", {})],  # missing "file" → KeyError
        )
        violation = ScenarioFuzzer().run_scenario(scenario)
        assert violation is not None and violation.invariant == NO_CRASH
        assert "KeyError" in violation.message


class TestRemoveReplicaOrphanRegression:
    def test_counter_removal_gcs_orphaned_replicas(self):
        # Found by this fuzzer (seed 1, m=4, b=0): insert → replicate
        # twice builds a holder chain home → r1 → r2; counter-based
        # removal of the middle replica r1 used to leave r2 orphaned,
        # unreachable by the top-down update broadcast.
        scenario = Scenario(
            m=4, b=0, seed=1, dead=[2],
            events=[
                ScenarioEvent("insert", {"file": "f1"}),
                ScenarioEvent("replicate", {"file": "f1", "holder": 0}),
                ScenarioEvent("replicate", {"file": "f1", "holder": 13}),
                ScenarioEvent("remove_replica", {"file": "f1", "index": 2}),
            ],
        )
        assert replay_scenario(scenario) is None

    def test_remove_replica_keeps_reachability_directly(self):
        system = LessLogSystem.build(m=4, b=0)
        name = "doc"
        system.insert(name, payload="x")
        home = system.holders_of(name)[0]
        first = system.replicate(name, overloaded=home)
        second = system.replicate(name, overloaded=first) if first is not None else None
        if first is None or second is None:
            pytest.skip("policy had no placement for this shape")
        system.remove_replica(name, first)
        assert set(system.reachable_holders(name)) == set(system.holders_of(name))


class TestVerifyCli:
    def test_fuzz_clean_exit_zero(self, capsys):
        assert main(["verify", "fuzz", "--seeds", "2", "--m", "4", "--events", "20"]) == 0
        out = capsys.readouterr().out
        assert "no violations found" in out

    def test_fuzz_mutation_writes_repro_and_replay_reproduces(self, capsys, tmp_path):
        code = main([
            "verify", "fuzz", "--seeds", "3", "--m", "4", "--events", "25",
            "--mutate", "misplace-replica", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION" in out and "shrunk" in out
        repros = sorted(tmp_path.glob("repro_*.json"))
        assert repros
        document = json.loads(repros[0].read_text())
        assert document["violation"]["invariant"] == "placement-binomial-subtree"
        assert main(["verify", "replay", str(repros[0])]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_replay_missing_file(self, capsys, tmp_path):
        assert main(["verify", "replay", str(tmp_path / "nope.json")]) == 2
        assert "no such repro" in capsys.readouterr().err
