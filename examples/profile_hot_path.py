#!/usr/bin/env python3
"""Find out where a Basil run's wall clock actually goes.

Profiles a small single-shard Basil experiment two ways:

1. **Attribution** (:class:`repro.prof.Profiler`): exact exclusive
   wall-clock accounting at the kernel's seams — task trampoline, event
   dispatch, CPU charging, network delivery, MVTSO store probes, crypto
   — printed as a ranked table whose rows sum to the attributed wall.
   The hooks read only ``time.perf_counter``, so the profiled schedule
   is byte-identical to the unprofiled one (same trace digest).

2. **Deep sampling** (:class:`repro.prof.deep.DeepProfiler`): Python
   function-level stacks, collapsed into the standard flamegraph text
   format and rendered to a standalone SVG-in-HTML flamegraph.

Run:  python examples/profile_hot_path.py
"""

from repro import BasilSystem, SystemConfig
from repro.bench.runner import ExperimentRunner
from repro.prof.deep import DeepProfiler, render_top, top_functions
from repro.prof.flame import write_flame_html
from repro.prof.profiler import Profiler, render_table
from repro.workloads.ycsb import YCSBWorkload
import time


def build_runner():
    system = BasilSystem(SystemConfig(f=1, num_shards=1, seed=7))
    workload = YCSBWorkload(num_keys=300, reads=2, writes=2)
    runner = ExperimentRunner(
        system, workload, num_clients=4, duration=0.05, warmup=0.01,
        name="profile-hot-path",
    )
    return system, runner


def main() -> None:
    # -- 1. subsystem attribution ---------------------------------------
    system, runner = build_runner()
    profiler = system.sim.attach_profiler(Profiler())
    t0 = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - t0
    print(f"run: {result.commits} commits in {wall:.3f}s wall "
          f"({system.sim.events_processed:,} events)\n")
    print("wall-clock attribution (exclusive time per subsystem):")
    print(render_table(profiler.table(), wall_s=wall, limit=10))

    # -- 2. deep sampling + flamegraph ----------------------------------
    system, runner = build_runner()  # fresh system: same seed, same schedule
    deep = DeepProfiler()
    deep.start()
    runner.run()
    deep.stop()
    print("\nhot Python functions (self time):")
    print(render_top(top_functions(deep.collapsed, 8)))
    out = "profile_hot_path.flame.html"
    write_flame_html(out, deep.collapsed, title="profile-hot-path")
    print(f"\nflamegraph -> {out}  (open in any browser)")


if __name__ == "__main__":
    main()
