"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "fig5", "--fast"])
        assert args.experiment == "fig5" and args.fast

    def test_tree_args(self):
        args = build_parser().parse_args(["tree", "--root", "3", "--m", "5", "--dead", "1", "2"])
        assert (args.root, args.m, args.dead) == (3, 5, [1, 2])

    def test_reliability_args(self):
        args = build_parser().parse_args(
            ["reliability", "--m", "4", "--loss-rate", "0.3", "--retries", "6"]
        )
        assert (args.m, args.loss_rate, args.retries) == (4, 0.3, 6)


class TestCommands:
    def test_experiments_lists(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "ext-lookup" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fast_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        assert main(["run", "ext-lookup", "--fast", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "lookup path length" in out
        assert csv_path.exists()
        assert csv_path.read_text().startswith("N (nodes)")

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "[5, 6, 0, 12]" in out

    def test_tree_render(self, capsys):
        assert main(["tree", "--root", "4", "--m", "4", "--dead", "0", "5"]) == 0
        out = capsys.readouterr().out
        assert "P(4) vid=1111" in out
        assert "[6, 7, 1, 12, 13, 8]" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "invariants hold." in out

    def test_reliability_lossy_run_completes_with_retries(self, capsys):
        code = main([
            "reliability", "--m", "4", "--duration", "1", "--rate", "40",
            "--loss-rate", "0.2", "--retries", "8", "--timeout", "1.0",
            "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0  # every request completed: no dead letters
        assert "issued      36" in out
        assert "completed   36" in out
        assert "dead-letter 0" in out
        assert "retried" in out and "latency" in out


class TestStackSampler:
    """``lesslog profile``'s SIGPROF sampler (it replaced cProfile)."""

    def test_shares_are_of_cpu_time_and_the_signal_is_handed_back(self):
        import signal
        import time

        from repro.cli import _StackSampler

        def spin(cpu_seconds):
            end = time.process_time() + cpu_seconds
            while time.process_time() < end:
                pass

        def workload():
            spin(0.15)

        before = signal.getsignal(signal.SIGPROF)
        with _StackSampler(interval=0.002) as sampler:
            workload()
        assert signal.getsignal(signal.SIGPROF) == before
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert sampler.samples >= 20
        rows = {row["function"]: row for row in sampler.table()}
        # Every sample has exactly one running function ...
        assert sum(r["self_share"] for r in rows.values()) == pytest.approx(1.0)
        # ... and a caller is on the stack whenever its callee runs.
        assert rows["workload"]["cum_share"] >= rows["spin"]["cum_share"] > 0.9
        assert rows["workload"]["self_share"] < 0.1
        shares = [r["self_share"] for r in sampler.table()]
        assert shares == sorted(shares, reverse=True)

    @pytest.mark.runtime
    def test_profile_command_writes_the_table_as_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "profile.json"
        assert main(["profile", "--rps", "300", "--duration", "0.5",
                     "--top", "5", "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out and "functions by self share" in out
        table = json.loads(out_path.read_text())
        assert table["samples"] > 0 and table["interval_s"] == 0.001
        assert {"function", "file", "line", "self_share", "cum_share"} == set(
            table["functions"][0]
        )
