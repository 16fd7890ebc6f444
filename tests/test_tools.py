"""Tests for repository tooling (tools/gen_api_docs.py, tools/import_closure.py)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_api_doc_generator_runs(tmp_path, monkeypatch):
    out = tmp_path / "api_overview.md"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"), str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    # The tracked copy is current, and generating never touches it.
    assert text == (ROOT / "docs" / "api_overview.md").read_text(), (
        "docs/api_overview.md is stale: run tools/gen_api_docs.py"
    )
    # Spot-check a few load-bearing symbols are indexed.
    for symbol in (
        "choose_replica_target",
        "FluidSimulation",
        "LessLogSystem",
        "advanced_children_list",
        "DesExperiment",
    ):
        assert symbol in text, f"{symbol} missing from API overview"
    # Every core module section is present.
    for module in (
        "repro.core.vid",
        "repro.core.routing",
        "repro.engine.fluid",
        "repro.cluster.system",
    ):
        assert f"## `{module}`" in text


def test_import_closure_report_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "import_closure.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = {
        line.split("|")[1].strip(): line.split("|")[2].strip()
        for line in proc.stdout.splitlines()
        if line.startswith("| `")
    }
    # One row per entry point plus the contrast; of the runtime's entry
    # modules none names NumPy among its third-party packages.
    assert rows["`repro.runtime.scaleout`"] == "—"
    assert rows["`repro.cli`"] == "—"
    assert rows["`bench.workloads`"] == "—"
    assert "numpy" in rows["`repro.engine.fluid` (contrast)"]
    # The cli's command-function imports and the examples' imports are
    # entry points too: the experiments the commands run load NumPy.
    (commands,) = [label for label in rows if label.startswith("`repro.cli` commands")]
    (examples,) = [label for label in rows if label.startswith("`examples/*.py`")]
    assert "numpy" in rows[commands] and "numpy" in rows[examples]
    (verdict,) = [
        line for line in proc.stdout.splitlines()
        if "modules no entry point loads" in line
    ]
    # `repro.experiments` is reached only through the cli's lazy imports,
    # and `repro.node.gossip` only through a function-body import in the
    # DES: neither is a dead module.
    assert "`repro.experiments" not in verdict
    assert "`repro.node.gossip`" not in verdict
