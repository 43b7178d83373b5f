"""Drive a profiled run end to end and merge what comes back.

:func:`profile_run` is what ``python -m repro run --prof`` calls: take a
:class:`~repro.run.ModelSpec`, switch attribution (and optionally deep
sampling) on, execute through
:class:`~repro.parallel.runtime.ParallelRunner`, and fold the pieces —
per-partition attribution tables, worker-level exchange seams, per-worker
collapsed stacks — into one :class:`~repro.prof.report.ProfileReport`.

Profiling must never perturb the run: the spec is copied before the
``prof`` flags are set, and everything the hooks record is wall clock
only, so the returned report's digest equals the unprofiled run's digest
(pinned by tests/prof/test_golden_digest.py).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.parallel.runtime import ParallelResult, ParallelRunner
from repro.prof.deep import merge_collapsed
from repro.prof.profiler import merge_tables
from repro.prof.report import ProfileReport
from repro.run import ModelSpec


def profile_run(spec: ModelSpec, workers: int = 1, deep: bool = False) -> ProfileReport:
    """Run ``spec`` with attribution on and return the merged report.

    The spec is copied — the caller's is untouched.  ``deep=True``
    additionally samples Python-level stacks per worker via
    :class:`~repro.prof.deep.DeepProfiler` and merges the collapsed
    stacks into the report.
    """
    result = ParallelRunner(replace(spec, prof=True, prof_deep=deep), workers=workers).run()
    return merge_result(spec.run_name(), result)


def merge_result(name: str, result: ParallelResult) -> ProfileReport:
    """Fold a prof-enabled :class:`ParallelResult` into a report.

    Attribution comes from two disjoint layers that sum cleanly:
    per-partition tables (frames inside each partition's simulator,
    riding ``per_partition[pid]["prof"]``) and worker-level tables
    (exchange waits and pipe serialization, riding ``result.prof`` —
    recorded *outside* any simulator frame, so no interval is counted
    twice).  Coverage divides the merged total by measured wall times
    the worker count, since each worker accrues wall concurrently.
    """
    partition_tables: dict[str, dict[str, Any]] = {}
    for pid, summary in sorted(result.per_partition.items()):
        table = summary.get("prof")
        if table:
            partition_tables[str(pid)] = table
    worker_tables = [p["attr"] for p in result.prof if p.get("attr")]
    merged = merge_tables([*partition_tables.values(), *worker_tables])

    deep_parts = [p["deep"] for p in result.prof if p.get("deep")]
    collapsed = merge_collapsed(deep_parts) if deep_parts else None

    attributed = sum(row["wall_s"] for row in merged.values())
    budget = result.wall_s * max(1, result.workers)
    coverage = attributed / budget if budget > 0 else 0.0

    return ProfileReport(
        name=name,
        workers=result.workers,
        wall_s=result.wall_s,
        events=result.events,
        events_per_s=result.events_per_s,
        sim_seconds=result.sim_seconds,
        digest=result.digest,
        subsystems=merged,
        coverage=coverage,
        per_partition=partition_tables,
        collapsed=collapsed,
    )
