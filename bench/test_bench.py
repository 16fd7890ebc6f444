"""Tests of the benchmark itself: ``pytest bench/`` (outside tier-1's
``testpaths``; the smokes boot real in-process clusters)."""

from __future__ import annotations

import argparse
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import ROOT, calibrate, run, spec, streams, trace, workloads

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
IN_PROCESS = [name for name, w in spec.WORKLOADS.items() if not w.fleet]


# -- time base ---------------------------------------------------------------

def test_normalisation_is_identity_on_the_reference_host():
    ref = calibrate.REF_SPIN_S
    piece = calibrate.Slice(ops=1000, wall_s=0.5, cpu_s=0.4,
                            spins=(ref, ref), latencies=[0.01])
    assert piece.factor == pytest.approx(1.0)
    stats = calibrate.summarise([piece], normalise_times=True)
    assert stats.throughput_rps == pytest.approx(stats.raw_throughput_rps)
    assert stats.cpu_us_per_req == pytest.approx(stats.raw_cpu_us_per_req)
    assert stats.latencies_s == pytest.approx([0.01])


def test_normalisation_follows_the_spin():
    """A host twice as fast halves the spin and every measured time with
    it: the normalised figures must not move.  At a fixed measured time,
    half the spin means the reference host would have needed twice as
    long."""
    ref = calibrate.REF_SPIN_S
    slow = calibrate.Slice(1000, 0.5, 0.4, (ref, ref), [0.01])
    fast = calibrate.Slice(1000, 0.25, 0.2, (ref / 2, ref / 2), [0.005])
    a = calibrate.summarise([slow], True)
    b = calibrate.summarise([fast], True)
    assert b.throughput_rps == pytest.approx(a.throughput_rps)
    assert b.cpu_us_per_req == pytest.approx(a.cpu_us_per_req)
    assert b.latencies_s == pytest.approx(a.latencies_s)
    assert calibrate.factor([ref / 2, ref / 2]) == pytest.approx(2.0)
    assert calibrate.factor([2 * ref]) == pytest.approx(0.5)


def test_wall_time_base_normalises_only_cpu():
    ref = calibrate.REF_SPIN_S
    piece = calibrate.Slice(1000, 1.0, 0.4, (ref / 2,) * 9, [0.01])
    stats = calibrate.summarise([piece], normalise_times=False)
    assert stats.throughput_rps == pytest.approx(1000.0)
    assert stats.latencies_s == [0.01]
    assert stats.cpu_us_per_req == pytest.approx(800.0)
    assert stats.raw_cpu_us_per_req == pytest.approx(400.0)


def test_short_spin_reads_on_the_full_spin_scale():
    full = min(calibrate.spin() for _ in range(5))
    short = min(calibrate.spin(8) for _ in range(5))
    assert short == pytest.approx(full, rel=0.5)


# -- spans ---------------------------------------------------------------

def test_span_self_time_subtracts_children_clipped_to_the_parent():
    spans = [
        ["cluster.send", 10.0, 20.0, -1, 7],   # 10 s, children cover 3 + 2
        ["wire.encode", 11.0, 14.0, 0, 7],
        ["wire.encode", 18.0, 25.0, 0, 7],     # clipped to [18, 20]
        ["wire.encode", 30.0, 31.0, -1, 8],    # no parent
        ["request", 40.0, 0.0, -1, 9],         # never finished: skipped
    ]
    totals = trace.span_totals(spans)
    assert totals["cluster.send"].count == 1
    assert totals["cluster.send"].self_s == pytest.approx(5.0)
    assert totals["wire.encode"].count == 3
    assert totals["wire.encode"].total_s == pytest.approx(11.0)
    assert totals["wire.encode"].self_s == pytest.approx(11.0)
    assert "request" not in totals


def test_tracer_nests_by_open_span_and_restores_the_runtime():
    from repro.runtime.wire import FrameEncoder

    original = FrameEncoder.__dict__["add"]
    tracer = trace.Tracer()
    uninstall = trace.install(tracer)
    assert FrameEncoder.__dict__["add"] is not original
    outer = tracer.begin("cluster.send", 1)
    inner = tracer.begin("wire.encode", 1)
    tracer.end(inner)
    tracer.end(outer)
    uninstall()
    assert FrameEncoder.__dict__["add"] is original
    assert tracer.spans[inner][3] == outer
    assert tracer.spans[outer][3] == -1


# -- seeded inputs -----------------------------------------------------------

def _mix_bytes(seed: int) -> bytes:
    w = spec.WORKLOADS["read_write_mix"]
    ops = streams.mix_ops(seed, spec.catalogue(w), streams.shape_of(w.shape),
                          1 << w.m, w.update_share)
    return repr(list(itertools.islice(ops, 5000))).encode()


def test_request_stream_is_a_function_of_the_seed():
    assert _mix_bytes(13) == _mix_bytes(13)
    assert _mix_bytes(13) != _mix_bytes(14)
    ops = list(itertools.islice(streams.mix_ops(
        13, ["a", "b", "c"], streams.shape_of({"kind": "zipf", "s": 1.0}), 8, 0.2,
    ), 20000))
    share = sum(kind == "update" for kind, _n, _e in ops) / len(ops)
    assert share == pytest.approx(0.2, abs=0.02)
    by_name = [sum(n == name for _k, n, _e in ops) for name in "abc"]
    assert by_name[0] > by_name[1] > by_name[2]


@pytest.mark.parametrize("seed", [13, 14])
def test_generator_ranks_the_catalogue_hottest_first_for_any_seed(seed):
    """Whatever the seed, ``LoadGenerator`` must end up weighting the
    catalogue in its given order: the seed draws requests, not ranks."""
    from repro.runtime import LoadGenerator

    class _NoCluster:
        nodes: dict = {}

    for name in ("steady_get", "flash_crowd"):
        w = spec.WORKLOADS[name]
        names, shape = spec.catalogue(w), streams.shape_of(w.shape)
        gen = LoadGenerator(
            _NoCluster(), streams.generator_files(names, shape, seed), shape,
            seed=seed,
        )
        weight = dict(zip(gen.files, gen.weights))
        ranked = [weight[n] for n in names]
        assert ranked == sorted(ranked, reverse=True)
        assert ranked[0] > ranked[1]


# -- smokes -------------------------------------------------------------------

@pytest.mark.parametrize("name", IN_PROCESS)
def test_two_slice_smoke_passes_its_checks(name):
    w = spec.WORKLOADS[name]
    out = workloads.measure(w, seed=13, seconds=2.0, slices=2)
    assert out.failed_checks == []
    assert out.report.requests > 0 and out.report.conserved
    values = run.end_to_end(out, run.window_figures(w, out), 0.1)
    assert set(values) == {n for n, _u in spec.END_TO_END}
    assert all(v > 0 for v in values.values())
    if w.loop == "closed":
        assert len(out.slices) == 2
        assert out.report.completed == 2 * spec.SLICE_OPS


def test_traced_smoke_captures_a_deterministic_stream():
    w = spec.WORKLOADS["steady_get"]
    a = workloads.measure(w, seed=13, seconds=1.0, slices=1, traced=True)
    b = workloads.measure(w, seed=13, seconds=1.0, slices=1, traced=True)
    c = workloads.measure(w, seed=14, seconds=1.0, slices=1, traced=True)
    assert a.failed_checks == b.failed_checks == c.failed_checks == []
    assert len(a.tracer.stream) == spec.SLICE_OPS
    assert a.tracer.stream_digest() == b.tracer.stream_digest()
    assert a.tracer.stream_digest() != c.tracer.stream_digest()
    layered = run.per_layer(w, a, b, run.window_figures(w, a))
    assert list(layered) == [n for n, _u, _on in spec.PER_LAYER]
    assert layered["wire.frames_per_req"] > 1
    assert layered["conformance.mismatches"] == 0


def test_a_failed_check_is_named_and_yields_no_metrics(tmp_path, capsys, monkeypatch):
    real = workloads.measure

    def broken(*args, **kwargs):
        out = real(*args, **kwargs)
        out.check("oracle", False, "injected")
        return out

    monkeypatch.setattr(workloads, "measure", broken)
    monkeypatch.setattr(workloads, "setup_once", lambda w: (0.1, (0.018, 0.018)))
    args = argparse.Namespace(workload="steady_get", seed=13, seconds=1.0,
                              slices=1, trace=0, out=str(tmp_path))
    assert run.child(args) == 1
    result = json.loads((tmp_path / "steady_get.result.json").read_text())
    assert result["correct"] is False and result["metrics"] == {}
    assert "FAILED CHECK oracle: injected" in capsys.readouterr().err


# -- the command --------------------------------------------------------------

def _run(tmp_path: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "steady_get", "--slices", "2", "--results", str(tmp_path), *extra],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )


def test_benchmark_json_names_are_all_printed_by_the_runner(tmp_path):
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for trace_flag, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run(tmp_path, "--trace", trace_flag)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        assert {n: v["unit"] for n, v in last["metrics"].items()} == declared
        printed = {line.split()[0] for line in lines if line.startswith("  ")}
        for name in declared:
            assert name_re.match(name), name
            assert name in printed, name
    runs = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(runs) == 2
    assert (tmp_path / "history.jsonl").read_text().count("\n") == 2
    traced = next(p for p in runs if (p / "steady_get.spans.jsonl").exists())
    config = json.loads((traced / "steady_get.config.json").read_text())
    assert config["ref_spin_s"] == calibrate.REF_SPIN_S and config["seed"] == 13


def test_benchmark_json_agrees_with_the_spec():
    assert [w["name"] for w in DECLARED["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == [
        (n, u) for n, u, _on in spec.PER_LAYER
    ]
    assert DECLARED["paths"] == ["bench"]
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


def test_a_workload_past_its_deadline_is_killed_and_its_phase_reported(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(run, "deadline_s", lambda w, s: 1.5)
    args = argparse.Namespace(workload="steady_get", seed=13, seconds=30.0,
                              slices=0, trace=0)
    assert run.run_workload(args, spec.WORKLOADS["steady_get"], tmp_path) is None
    err = capsys.readouterr().err
    assert "steady_get: killed after 2 s in phase" in err


def test_compare_reads_two_sets(tmp_path):
    from bench import compare

    for label, cpu in (("a", 400.0), ("b", 500.0)):
        for i in range(5):
            run_dir = tmp_path / label / f"run{i}"
            run_dir.mkdir(parents=True)
            values = {n: 1.0 for n, _u in spec.END_TO_END}
            values["cpu_us_per_req"] = cpu + i
            (run_dir / "steady_get.metrics.json").write_text(json.dumps({
                "workload": "steady_get", "trace": 0, "normalised": values,
                "host_speed": 1.0,
            }))
    sets = compare.load_set(tmp_path / "a"), compare.load_set(tmp_path / "b")
    worse_by, word = compare.verdict(
        sets[0]["steady_get"]["cpu_us_per_req"],
        sets[1]["steady_get"]["cpu_us_per_req"], "lower", 0.10,
    )
    assert word == "worse" and worse_by == pytest.approx(0.2488, abs=0.001)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
