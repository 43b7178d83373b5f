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

CLI: ``python -m repro run --prof [--deep]``.

Only the dependency-free profiler core is imported eagerly; the runners
live in their own module.
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
