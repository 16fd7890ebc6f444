"""The repo's one benchmark: four workloads against the live runtime.

See ``bench/README.md``.  Importing the package only makes ``src/``
importable when the caller did not (``python3 bench/run.py`` is run
without ``PYTHONPATH``).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
