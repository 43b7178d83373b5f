"""Benchmark entry point named by BENCHMARK.json.

``python3 basilbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a checkout; the last line of standard
output is the result object.  ``python -m basilbench`` has the
all-workloads run, ``--selftest`` and ``compare``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from basilbench.harness import driver_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(driver_main(sys.argv[1:]))
