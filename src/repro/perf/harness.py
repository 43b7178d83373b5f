"""The wall-clock benchmark suite: kernel microbenches + figure slices.

Three kernel microbenchmarks stress the paths the PR 3 overhaul touched
(timer scheduling/cancellation, task trampolining, queue+timeout
mailboxes), and two protocol slices run seeded Basil configurations that
mirror the Figure 5a / 5c setups.  All are deterministic in simulated
time; only the wall clock varies between hosts and runs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.sim.events import Queue
from repro.sim.loop import Simulator


@dataclass
class BenchEntry:
    """One row of a ``BENCH_*.json`` file."""

    bench: str
    wall_s: float
    events_per_s: float
    sim_tput: float
    #: Top-3 wall-clock attribution shares (``--prof`` runs only):
    #: ``[{subsystem, wall_s, share, calls}, ...]``.  Omitted from the
    #: JSON row when absent so baselines stay byte-stable.
    prof: list[dict] | None = None

    def to_dict(self) -> dict:
        row = asdict(self)
        if row.get("prof") is None:
            row.pop("prof", None)
        return row


def _attach_profiler(sim: Simulator):
    """Attribution hook-up for a microbench sim (``prof=True`` runs)."""
    from repro.prof.profiler import install_profiler

    return install_profiler(sim)


def _prof_summary(profiler) -> list[dict] | None:
    if profiler is None:
        return None
    from repro.prof.profiler import top_shares

    return top_shares(profiler.table(), 3)


# ----------------------------------------------------------------------
# Kernel microbenchmarks
# ----------------------------------------------------------------------
def bench_kernel_timers(n: int, prof: bool = False) -> BenchEntry:
    """Schedule n timers, cancel half (the wait_for pattern), run the rest."""
    sim = Simulator(seed=1)
    profiler = _attach_profiler(sim) if prof else None
    counter = [0]

    def tick() -> None:
        counter[0] += 1

    t0 = time.perf_counter()
    handles = [sim.call_later(0.001 * (i % 97), tick) for i in range(n)]
    for handle in handles[::2]:
        handle.cancel()
    sim.run()
    wall = time.perf_counter() - t0
    assert counter[0] == n - len(handles[::2])
    return BenchEntry(
        bench=f"kernel-timers-{n}",
        wall_s=wall,
        events_per_s=sim.events_processed / wall if wall > 0 else 0.0,
        sim_tput=0.0,
        prof=_prof_summary(profiler),
    )


def bench_kernel_tasks(n: int, prof: bool = False) -> BenchEntry:
    """n task pairs ping-pong through sleeps (the trampoline hot path)."""
    sim = Simulator(seed=2)
    profiler = _attach_profiler(sim) if prof else None
    done = [0]

    async def worker(rounds: int) -> None:
        for _ in range(rounds):
            await sim.sleep(0.0001)
        done[0] += 1

    t0 = time.perf_counter()
    for _ in range(n):
        sim.create_task(worker(20))
    sim.run()
    wall = time.perf_counter() - t0
    assert done[0] == n
    return BenchEntry(
        bench=f"kernel-tasks-{n}",
        wall_s=wall,
        events_per_s=sim.events_processed / wall if wall > 0 else 0.0,
        sim_tput=0.0,
        prof=_prof_summary(profiler),
    )


def bench_kernel_queue(n: int, prof: bool = False) -> BenchEntry:
    """Producer/consumer mailboxes under wait_for (the protocol idiom)."""
    sim = Simulator(seed=3)
    profiler = _attach_profiler(sim) if prof else None
    received = [0]

    async def consumer(q: Queue, count: int) -> None:
        for _ in range(count):
            await sim.wait_for(q.get(), timeout=10.0)
            received[0] += 1

    async def producer(q: Queue, count: int) -> None:
        for _ in range(count):
            await sim.sleep(0.0001)
            q.put(object())

    t0 = time.perf_counter()
    queues = [Queue(sim) for _ in range(8)]
    per_queue = n // 8
    for q in queues:
        sim.create_task(consumer(q, per_queue))
        sim.create_task(producer(q, per_queue))
    sim.run()
    wall = time.perf_counter() - t0
    assert received[0] == per_queue * 8
    return BenchEntry(
        bench=f"kernel-queue-{n}",
        wall_s=wall,
        events_per_s=sim.events_processed / wall if wall > 0 else 0.0,
        sim_tput=0.0,
        prof=_prof_summary(profiler),
    )


# ----------------------------------------------------------------------
# Protocol slices (per-figure sim throughput)
# ----------------------------------------------------------------------
def _basil_run(
    name: str,
    *,
    num_shards: int,
    crypto_enabled: bool,
    num_clients: int,
    duration: float,
    warmup: float,
    prof: bool = False,
) -> BenchEntry:
    from repro.config import CryptoConfig, SystemConfig
    from repro.parallel.models import ModelSpec, SequentialRun
    from repro.prof.profiler import top_shares

    spec = ModelSpec(
        kind="basil",
        config=SystemConfig(
            f=1,
            num_shards=num_shards,
            seed=2024,
            crypto=CryptoConfig(enabled=crypto_enabled),
        ),
        workload="ycsb-t",
        workload_keys=1000,
        num_clients=num_clients,
        duration=duration,
        warmup=warmup,
        label=name,
        trace=False,
        prof=prof,
    )
    run = SequentialRun(spec)  # system construction is not timed
    t0 = time.perf_counter()
    result = run.run()  # runner set-up (genesis load) + run + finalize
    wall = time.perf_counter() - t0
    return BenchEntry(
        bench=name,
        wall_s=wall,
        events_per_s=result.events / wall if wall > 0 else 0.0,
        sim_tput=result.bench["throughput"],
        prof=top_shares(result.extra["prof"], 3) if prof else None,
    )


def run_all(quick: bool = False, prof: bool = False) -> list[BenchEntry]:
    """Run the full suite; ``quick`` shrinks sizes for the smoke test.

    Quick and full entries carry different bench names, so a quick check
    never compares against a full-scale baseline (or vice versa).
    ``prof`` additionally records each bench's top-3 subsystem
    attribution shares into the rows (simulated schedules unchanged —
    the hooks read only the wall clock — but wall itself pays the frame
    overhead, so don't record gating baselines with it on).
    """
    if quick:
        return [
            bench_kernel_timers(20_000, prof=prof),
            bench_kernel_tasks(500, prof=prof),
            bench_kernel_queue(8_000, prof=prof),
            _basil_run(
                "basil-fig5c-quick",
                num_shards=2,
                crypto_enabled=True,
                num_clients=10,
                duration=0.08,
                warmup=0.02,
                prof=prof,
            ),
        ]
    return [
        bench_kernel_timers(200_000, prof=prof),
        bench_kernel_tasks(5_000, prof=prof),
        bench_kernel_queue(80_000, prof=prof),
        _basil_run(
            "basil-fig5c-sig",
            num_shards=2,
            crypto_enabled=True,
            num_clients=40,
            duration=0.3,
            warmup=0.1,
            prof=prof,
        ),
        _basil_run(
            "basil-fig5a-nosig",
            num_shards=1,
            crypto_enabled=False,
            num_clients=40,
            duration=0.3,
            warmup=0.1,
            prof=prof,
        ),
    ]


def write_results(path: str, entries: list[BenchEntry]) -> None:
    import json

    with open(path, "w") as fh:
        json.dump([entry.to_dict() for entry in entries], fh, indent=2)
        fh.write("\n")
