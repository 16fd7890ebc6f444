#!/usr/bin/env python
"""Report what importing each entry point loads (stdlib only).

Each entry point is imported in a fresh interpreter, which reports the
third-party top-level packages the import loaded, how many ``repro``
modules it loaded, ``ru_maxrss`` right after the import and the
import's wall time.  The entry points are three modules plus two
import sets found with ``ast``: the modules ``repro.cli`` imports inside
its command functions, and the ``repro`` modules ``examples/*.py``
import.  The report ends with the ``repro`` modules that no entry point
loads, neither when imported nor through a function-body import of a
module it loads.  ``repro.engine.fluid`` is listed as a contrast: it
computes with NumPy, the live runtime does not.

Usage::

    python tools/import_closure.py          # Markdown table on stdout

Informational: it gates nothing (``tests/test_import_footprint.py``
is the gate on the runtime's NumPy-free closure).
"""

from __future__ import annotations

import ast
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
for name in sys.argv[1:]:
    importlib.import_module(name)
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


def probe(*modules: str) -> dict:
    """Import ``modules`` in one fresh interpreter; return its footprint."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(REPO_ROOT))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *modules],
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


def _is_module(name: str) -> bool:
    path = SRC.joinpath(*name.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _imported(nodes, package: str) -> set[str]:
    """The ``repro`` modules the import statements among ``nodes`` name;
    a relative import resolves against ``package``."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            bases, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            bases, names = [base], [alias.name for alias in node.names]
        else:
            continue
        for base in bases:
            if base.partition(".")[0] != "repro":
                continue
            found.add(base)
            found.update(f"{base}.{n}" for n in names if _is_module(f"{base}.{n}"))
    return found


def function_imports(module: str) -> set[str]:
    """The ``repro`` modules ``module`` imports inside its functions."""
    path = SRC.joinpath(*module.split("."))
    is_package = (path / "__init__.py").is_file()
    source = path / "__init__.py" if is_package else path.with_suffix(".py")
    inner = [
        node
        for func in ast.walk(ast.parse(source.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
    ]
    package = module if is_package else module.rpartition(".")[0]
    return _imported(inner, package)


def example_imports() -> list[str]:
    """The ``repro`` modules ``examples/*.py`` import."""
    found: set[str] = set()
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        found |= _imported(ast.walk(ast.parse(path.read_text())), "")
    return sorted(found)


def main() -> int:
    rows = [(f"`{name}`", probe(name)) for name in ENTRY_MODULES]
    for label, modules in (
        ("`repro.cli` commands", sorted(function_imports("repro.cli"))),
        ("`examples/*.py`", example_imports()),
    ):
        rows.append((f"{label} ({len(modules)} imports)", probe(*modules)))
    contrast = probe(CONTRAST)
    print("| entry point | third-party packages | `repro` modules "
          "| ru_maxrss (MB) | import (ms) |")
    print("|---|---|---|---|---|")
    for label, info in rows + [(f"`{CONTRAST}` (contrast)", contrast)]:
        print(
            f"| {label} | {', '.join(info['third_party']) or '—'} "
            f"| {len(info['repro_modules'])} | {info['maxrss_mb']:.1f} "
            f"| {info['import_ms']:.0f} |"
        )
    reached = set().union(*(info["repro_modules"] for _name, info in rows))
    todo = list(reached)
    while todo:
        fresh = function_imports(todo.pop()) - reached
        reached |= fresh
        todo.extend(fresh)
    unreached = [name for name in all_repro_modules() if name not in reached]
    print()
    print(f"`repro` modules no entry point loads ({len(unreached)}): "
          + (", ".join(f"`{name}`" for name in unreached) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
