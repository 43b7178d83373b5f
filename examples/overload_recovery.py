#!/usr/bin/env python3
"""Drive Basil past its saturation knee, then let admission control save it.

A closed-loop benchmark can't overload a system — every in-flight
transaction throttles the next.  The open-loop generator
(:mod:`repro.load`) can: it injects Poisson arrivals at a configured
rate whether or not earlier transactions finished.  This example runs
the same 2x-overload twice:

* **no admission control** — replica queues and abort/retry storms eat
  the capacity: goodput collapses and p99 latency blows up;
* **AIMD shedding** — the client proxy rejects what the replicas can't
  take, goodput holds near the knee, and p99 recovers.

Everything is seed-deterministic — rerunning prints the same numbers.

Run:  python examples/overload_recovery.py
"""

from repro.config import AdmissionConfig, ArrivalConfig, SystemConfig
from repro.core.system import BasilSystem
from repro.load.generator import OpenLoopGenerator
from repro.workloads.ycsb import YCSBWorkload

KNEE_TPS = 4_000.0  # sustainable goodput at this scale (see docs/load.md)
OVERLOAD_TPS = 2 * KNEE_TPS


def run(policy: str):
    system = BasilSystem(SystemConfig(f=1, num_shards=1, seed=2026))
    generator = OpenLoopGenerator(
        system,
        YCSBWorkload(num_keys=800, reads=2, writes=2),
        ArrivalConfig(process="poisson", rate=OVERLOAD_TPS),
        admission=AdmissionConfig(policy=policy),
        duration=0.12,
        warmup=0.04,
        proxies=16,
    )
    return generator.run()


def main() -> None:
    print(f"offered load: {OVERLOAD_TPS:.0f} tx/s "
          f"(~2x the {KNEE_TPS:.0f} tx/s knee at this scale)\n")

    collapsed = run("none")
    print(f"no admission control:\n  {collapsed.row()}")
    saved = run("aimd")
    print(f"AIMD shedding:\n  {saved.row()}")

    recovery = saved.goodput_tps / max(collapsed.goodput_tps, 1e-9)
    print(f"\ngoodput with shedding: {saved.goodput_tps:.0f} tx/s "
          f"({recovery:.1f}x the collapsed run's {collapsed.goodput_tps:.0f})")
    print(f"p99 latency: {collapsed.p99_latency * 1e3:.1f} ms -> "
          f"{saved.p99_latency * 1e3:.1f} ms")
    print(f"shed {saved.shed_count} arrivals to get there")

    assert saved.goodput_tps > collapsed.goodput_tps, \
        "shedding must beat congestion collapse"
    assert saved.p99_latency < collapsed.p99_latency, \
        "bounding the queue must bound the tail"
    assert collapsed.shed_count == 0 and saved.shed_count > 0


if __name__ == "__main__":
    main()
