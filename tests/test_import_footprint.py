"""The live runtime's import closure loads no NumPy.

LessLog's node needs only bit operations on its own status word, so the
processes that run it — ``lesslog serve``, every fleet worker, the bench
driver — import no NumPy.  Only the code that computes with it (fluid
engine, DES, vectorized routing tables, experiments, analysis) does.

Each check runs in a fresh interpreter: this pytest process already
holds NumPy.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNTIME_ENTRY_MODULES = (
    "repro",
    "repro.runtime",
    "repro.runtime.scaleout",
    "repro.cluster.system",
    "repro.cli",
)


def _loads_numpy(*modules: str) -> bool:
    code = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_live_runtime_import_closure_has_no_numpy():
    assert not _loads_numpy(*RUNTIME_ENTRY_MODULES)


def test_fluid_engine_still_loads_numpy():
    # Positive control: the probe does see NumPy where it is used.
    assert _loads_numpy("repro.engine.fluid")
