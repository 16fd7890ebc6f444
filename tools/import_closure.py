#!/usr/bin/env python
"""Report what importing each entry module loads (stdlib only).

Each entry module is imported in a fresh interpreter, which reports the
third-party top-level packages the import loaded, how many ``repro``
modules it loaded, ``ru_maxrss`` right after the import and the
import's wall time.  The report ends with the ``repro`` modules that
none of the entry modules load.  ``repro.engine.fluid`` is listed as a
contrast: it computes with NumPy, the live runtime does not.

Usage::

    python tools/import_closure.py          # Markdown table on stdout

Informational: it gates nothing (``tests/test_import_footprint.py``
is the gate on the runtime's NumPy-free closure).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

ENTRY_MODULES = ("repro.runtime.scaleout", "repro.cli", "bench.workloads")
CONTRAST = "repro.engine.fluid"

_PROBE = r"""
import importlib, json, resource, sys, time
before = set(sys.modules)
start = time.perf_counter()
importlib.import_module(sys.argv[1])
seconds = time.perf_counter() - start
loaded = set(sys.modules) - before
local = ("repro", "bench", "__main__")
third_party = sorted({
    name.partition(".")[0] for name in loaded
    if name.partition(".")[0] not in sys.stdlib_module_names
    and name.partition(".")[0] not in local
    and not name.startswith("_")
})
print(json.dumps({
    "third_party": third_party,
    "repro_modules": sorted(n for n in sys.modules if n.split(".")[0] == "repro"),
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "import_ms": seconds * 1e3,
}))
"""


def probe(module: str) -> dict:
    """Import ``module`` in a fresh interpreter; return its footprint."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(REPO_ROOT))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, module],
        capture_output=True, text=True, check=True, env=env, cwd=REPO_ROOT,
    )
    return json.loads(proc.stdout)


def all_repro_modules() -> list[str]:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if parts[-1] != "__main__":
            names.append(".".join(parts))
    return names


def main() -> int:
    rows = [(name, probe(name)) for name in ENTRY_MODULES]
    contrast = probe(CONTRAST)
    print("| entry module | third-party packages | `repro` modules "
          "| ru_maxrss (MB) | import (ms) |")
    print("|---|---|---|---|---|")
    labelled = [(f"`{name}`", info) for name, info in rows]
    for label, info in labelled + [(f"`{CONTRAST}` (contrast)", contrast)]:
        print(
            f"| {label} | {', '.join(info['third_party']) or '—'} "
            f"| {len(info['repro_modules'])} | {info['maxrss_mb']:.1f} "
            f"| {info['import_ms']:.0f} |"
        )
    reached = set().union(*(info["repro_modules"] for _name, info in rows))
    unreached = [name for name in all_repro_modules() if name not in reached]
    print()
    print(f"`repro` modules no entry module loads ({len(unreached)}): "
          + ", ".join(f"`{name}`" for name in unreached))
    return 0


if __name__ == "__main__":
    sys.exit(main())
