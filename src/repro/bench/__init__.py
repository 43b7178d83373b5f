"""Benchmark harness: closed-loop clients, measurement, paper figures.

* :mod:`repro.bench.runner` — run a workload against any system
  (Basil, TAPIR, TxSMR) with closed-loop clients, warm-up exclusion and
  abort/retry handling, yielding throughput/latency/commit-rate results.
* :mod:`repro.bench.experiments` — one entry point per paper figure
  (4a/4b, 5a/5b/5c, 6a/6b, 7a/7b) and ablation, scaled down by default.
* :mod:`repro.bench.report` — renders rows and ratios between systems.
* :mod:`repro.bench.claims` — every shape the paper claims, as a named
  check judged by ``python -m repro sweep figures``.
"""

from repro.bench.runner import BenchResult, ExperimentRunner

__all__ = ["BenchResult", "ExperimentRunner"]
