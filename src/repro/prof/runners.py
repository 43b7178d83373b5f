"""Fold a profiled windowed run into one attribution section.

A ``workers >= 2`` run (:class:`~repro.parallel.runtime.ParallelRunner`)
brings its profiles home in pieces: per-partition attribution tables,
worker-level exchange seams and per-worker collapsed stacks.
:func:`merge_result` sums them into the one
:class:`~repro.prof.profiler.Attribution` a single-process run's
:class:`~repro.run.SequentialRun` builds for itself.

Profiling never perturbs the run: everything the hooks record is wall
clock only, so a profiled run's digest equals the unprofiled run's
(pinned by tests/prof/test_golden_digest.py).
"""

from __future__ import annotations

from typing import Any

from repro.prof.deep import merge_collapsed
from repro.prof.profiler import Attribution, merge_tables


def merge_result(name: str, result: Any) -> Attribution:
    """Fold a prof-enabled ``ParallelResult`` into one :class:`Attribution`.

    Attribution comes from two disjoint layers that sum cleanly:
    per-partition tables (frames inside each partition's simulator,
    riding ``per_partition[pid]["prof"]``) and worker-level tables
    (exchange waits and pipe serialization, riding ``result.prof`` —
    recorded *outside* any simulator frame, so no interval is counted
    twice).  ``name`` is the run's name, kept for callers that label the
    section; the merge itself does not use it.
    """
    partition_tables = [
        summary["prof"]
        for _, summary in sorted(result.per_partition.items())
        if summary.get("prof")
    ]
    worker_tables = [p["attr"] for p in result.prof if p.get("attr")]
    deep_parts = [p["deep"] for p in result.prof if p.get("deep")]
    return Attribution(
        subsystems=merge_tables([*partition_tables, *worker_tables]),
        wall_s=result.wall_s,
        events=result.events,
        workers=result.workers,
        collapsed=merge_collapsed(deep_parts) if deep_parts else None,
    )
