"""The repository benchmark (see README.md in this directory).

Six named workloads, eight end-to-end metrics and a per-layer table,
declared in ``BENCHMARK.json`` at the repository root.  Every run of the
program happens in a fresh child process (``basilbench.child``); this
parent side never imports ``repro``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout this package sits in; children run with it as cwd.
ROOT = Path(__file__).resolve().parent.parent

# The program under test is not installed: make ``import repro`` work
# whether or not the caller set PYTHONPATH=src.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
