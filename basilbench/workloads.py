"""The six workloads: five protocol specs and the bare-kernel mix.

Sizes are calibrated so that one run's simulation phase takes about
``run_seconds / REPEATS`` host seconds on the 2-core reference at
``scale == 1``.  ``scale`` multiplies the measured simulated duration
(and the kernel-mix populations); warm-up and cool-down stay fixed so
that even a 1/10-size self-test run starts measuring after the start-up
transient.  All protocol workloads are closed-loop on the repo's stated
link model (75 us one-way datacentre links; the ``wan3`` matrix for geo).
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any

from repro.config import CryptoConfig, SystemConfig
from repro.geo.plan import GeoSpec
from repro.geo.topology import wan3
from repro.parallel.models import ModelSpec
from repro.prof.profiler import Profiler, merge_tables
from repro.sim.events import Queue
from repro.sim.loop import Simulator
from repro.sim.monitor import Histogram

#: name -> (ModelSpec fields, SystemConfig fields, workers).  ``duration``
#: is the measured window at scale 1; ``warmup`` is also the cool-down.
_PROTOCOL: dict[str, tuple[dict[str, Any], dict[str, Any], int]] = {
    # The paper's headline configuration: 2 shards, signatures on,
    # YCSB-T RW-U 2r/2w, 40 closed-loop clients.
    "basil-ycsb-sig": (
        dict(workload="ycsb-t", workload_keys=10_000, num_clients=40,
             duration=0.038, warmup=0.008),
        dict(num_shards=2),
        1,
    ),
    # Same system with the crypto cost model off: six times the commits
    # per simulated second, a larger key population.
    "basil-ycsb-nosig": (
        dict(workload="ycsb-t", workload_keys=20_000, num_clients=40,
             duration=0.01, warmup=0.002),
        dict(num_shards=2, crypto=CryptoConfig(enabled=False)),
        1,
    ),
    # One shard, Zipf 0.9 hot keys, 12 of 40 clients (30%) stall-late
    # Byzantine: conflicts, retries, dependency waits, recoveries.
    "basil-zipf-byz": (
        dict(workload="ycsb-z", workload_keys=10_000, num_clients=40,
             duration=0.25, warmup=0.01,
             byz_client_behaviour="stall-late", byz_client_count=12),
        dict(num_shards=1),
        1,
    ),
    # The basil-ycsb-sig system on two worker processes (3 partitions,
    # 75 us windows); shorter because it is slower per simulated second.
    "basil-ycsb-sig-w2": (
        dict(workload="ycsb-t", workload_keys=10_000, num_clients=40,
             duration=0.024, warmup=0.008),
        dict(num_shards=2),
        2,
    ),
    # Basil on the 3-region WAN matrix behind the edge session tier,
    # 8 closed-loop users per region over 64 keys.
    "geo-wan3-edge": (
        dict(geo=GeoSpec(topology=wan3(), mode="edge", users_per_region=8,
                         keys=64),
             duration=25.0, warmup=2.0),
        dict(num_shards=1),
        1,
    ),
}

KERNEL_MIX = "kernel-mix"


def protocol_spec(
    name: str, seed: int, scale: float, traced: bool, workers: int | None = None
) -> tuple[ModelSpec, int]:
    """The ModelSpec of a protocol workload and its worker count.

    Timed runs switch every instrument off; the traced pass turns on the
    in-tree attribution profiler and the tracer (for the trace digest).
    ``workers`` overrides the workload's own count (the w1 twin of
    ``basil-ycsb-sig-w2``).
    """
    spec_fields, config_fields, default_workers = _PROTOCOL[name]
    spec_fields = dict(spec_fields)
    spec_fields["duration"] *= scale
    spec = ModelSpec(
        kind="basil",
        config=SystemConfig(f=1, batch_size=4, seed=seed, **config_fields),
        label=name,
        trace=traced,
        prof=traced,
        obs=False,
        **spec_fields,
    )
    return spec, default_workers if workers is None else workers


def latency_grid(hist: Histogram, cap: int = 2048) -> list[float]:
    """Up to ``cap`` evenly spaced order statistics of ``hist``, in ms.

    The parent pools the grids of several runs to take percentiles over
    more samples than one run holds; below ``cap`` samples the grid is
    the sorted sample list itself.
    """
    points = min(hist.count, cap)
    if points < 2:
        return [hist.percentile(50) * 1e3] * points
    return [hist.percentile(100.0 * i / (points - 1)) * 1e3 for i in range(points)]


# ---------------------------------------------------------------------------
# kernel-mix: the bare Simulator, defined here and nowhere else
# ---------------------------------------------------------------------------
_MAILBOXES = 8
_SLEEPS_PER_TASK = 20


def run_kernel_mix(seed: int, scale: float, traced: bool) -> dict[str, Any]:
    """Timers with cancellation, sleeping tasks, mailboxes under wait_for.

    Three phases on three simulators, so each reports its own events/s.
    The queue phase is a set of single-server queues (exponential
    arrivals, mean 100 us; uniform 20-80 us service), which gives the
    workload simulated throughput and sojourn latencies to report like
    the protocol workloads do.
    """
    t0 = perf_counter()
    rng = random.Random(f"{seed}/kernel-mix")
    n_timers = max(64, int(150_000 * scale))
    n_tasks = max(8, int(7_500 * scale))
    per_box = max(8, int(90_000 * scale) // _MAILBOXES)
    delays = [rng.uniform(0.0, 0.1) for _ in range(n_timers)]
    periods = [rng.uniform(50e-6, 150e-6) for _ in range(n_tasks)]
    gaps = [[rng.expovariate(1 / 100e-6) for _ in range(per_box)]
            for _ in range(_MAILBOXES)]
    service = [[rng.uniform(20e-6, 80e-6) for _ in range(per_box)]
               for _ in range(_MAILBOXES)]
    setup_s = perf_counter() - t0

    problems: list[str] = []
    phases: dict[str, dict[str, float]] = {}
    tables = []

    def simulator() -> Simulator:
        sim = Simulator(seed=seed)
        if traced:
            tables.append(sim.attach_profiler(Profiler()))
        return sim

    def finish(phase: str, sim: Simulator, started: float) -> None:
        phases[phase] = {
            "events": sim.events_processed,
            "wall_s": perf_counter() - started,
        }

    # -- timers: schedule all, cancel every second one, fire the rest ----
    sim = simulator()
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    started = perf_counter()
    handles = [sim.call_later(delay, tick) for delay in delays]
    for handle in handles[::2]:
        handle.cancel()
    sim.run()
    finish("timers", sim, started)
    if fired[0] != n_timers - len(handles[::2]):
        problems.append(f"kernel-mix timers fired {fired[0]} of {n_timers}")

    # -- tasks: the trampoline under many short sleeps -------------------
    sim = simulator()
    done = [0]

    async def sleeper(period: float) -> None:
        for _ in range(_SLEEPS_PER_TASK):
            await sim.sleep(period)
        done[0] += 1

    started = perf_counter()
    for period in periods:
        sim.create_task(sleeper(period))
    sim.run()
    finish("tasks", sim, started)
    if done[0] != n_tasks:
        problems.append(f"kernel-mix tasks finished {done[0]} of {n_tasks}")

    # -- queue: producer/consumer mailboxes under wait_for ---------------
    sim = simulator()
    sojourn = Histogram("kernel-mix-sojourn")

    async def producer(box: Queue, box_gaps: list[float]) -> None:
        for gap in box_gaps:
            await sim.sleep(gap)
            box.put(sim.now)

    async def consumer(box: Queue, box_service: list[float]) -> None:
        for cost in box_service:
            sent = await sim.wait_for(box.get(), timeout=10.0)
            await sim.sleep(cost)
            sojourn.record(sim.now - sent)

    started = perf_counter()
    for box_gaps, box_service in zip(gaps, service):
        box = Queue(sim)
        sim.create_task(consumer(box, box_service))
        sim.create_task(producer(box, box_gaps))
    sim.run()
    finish("queue", sim, started)
    expected = per_box * _MAILBOXES
    if sojourn.count != expected:
        problems.append(f"kernel-mix queue received {sojourn.count} of {expected}")

    return {
        "setup_s": setup_s,
        "wall_s": sum(p["wall_s"] for p in phases.values()),
        "events": int(sum(p["events"] for p in phases.values())),
        "digest": "",
        "problems": problems,
        "prof": merge_tables(p.table() for p in tables),
        "facts": {
            "commits": sojourn.count,
            "attempted": expected,
            "failed": expected - sojourn.count,
            "window_s": sim.now,
            "latencies_ms": latency_grid(sojourn),
            "phases": phases,
        },
    }
