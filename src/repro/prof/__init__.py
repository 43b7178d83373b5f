"""Wall-clock profiling & performance attribution (off by default).

Two pillars:

* :mod:`repro.prof.profiler` — exclusive-time subsystem attribution at
  the kernel seams (event dispatch, task trampoline, ``Cpu.spend``,
  network send, crypto charging, ``VersionStore`` probes, the parallel
  envelope path).  Zero events/RNG/schedule impact; golden-digest
  pinned.
* :mod:`repro.prof.deep` / :mod:`repro.prof.flame` — ``sys.setprofile``
  deep mode with collapsed-stack (flamegraph) and top-N hot-function
  export, runnable per parallel worker and merged like digests.

A profiled run's table, coverage and collapsed stacks are one section
of its :class:`~repro.obs.report.RunReport`
(:class:`~repro.prof.profiler.Attribution`): a single-process run builds
it in :class:`~repro.run.SequentialRun`, a windowed one through
:func:`~repro.prof.runners.merge_result`.  ``python -m repro run --prof
[--deep]`` writes that report as ``PROF_<run name>.json``, which
``python -m repro compare`` reads like any other.

Only the dependency-free profiler core is imported eagerly.
"""

from repro.prof.profiler import (
    Profiler,
    merge_tables,
    render_table,
    top_shares,
)

__all__ = [
    "Profiler",
    "merge_tables",
    "render_table",
    "top_shares",
]
