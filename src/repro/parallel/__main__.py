"""CLI: ``python -m repro.parallel run|ladder``.

* ``run`` — execute one model (``--kind``: basil, microbench, or the
  sequential-only tapir / txsmr / txsmr-hotstuff) under the parallel
  runtime with ``--workers N`` and print the merged result
  (digest, events, bench row, and what building it cost: set-up seconds
  and peak RSS).  ``--obs out.json`` and ``--faults`` are ``workers=1``
  only.
* ``ladder`` — the scale ladder: run the partitioned kernel microbench
  at each worker count (fresh process per measurement), print aggregate
  events/s and speedups, and exit 1 unless every row — the sequential
  one included — reports the same digest and event count.
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import resource
import sys
import time

from repro.parallel.runtime import ParallelRunner
from repro.run import SEQUENTIAL_KINDS, ModelSpec


def ladder_spec(quick: bool, timers: int | None = None, duration: float | None = None) -> ModelSpec:
    """The scale-ladder microbench configuration.

    The standing timer population (``partitions * timers``) is what the
    ladder scales over: the sequential kernel pays one global heap (and
    its cache misses) over all of it, partitioned workers pay many small
    partition-local heaps.  128 partitions of ~8k timers is the measured
    sweet spot on this class of machine — local heaps are small enough
    to stay cache-resident while the sequential heap holds the full
    million entries.  The 0.5 ms window width keeps the per-window
    barrier (128 partition reports each) from dominating at this
    partition count.
    """
    if quick:
        return ModelSpec(
            kind="microbench",
            partitions=128,
            timers=timers if timers is not None else 1_250,
            duration=duration if duration is not None else 0.0015,
            cross_every=64,
            lookahead=5e-4,
        )
    return ModelSpec(
        kind="microbench",
        partitions=128,
        timers=timers if timers is not None else 7_812,
        duration=duration if duration is not None else 0.002,
        cross_every=64,
        lookahead=5e-4,
    )


def _measure_child(conn, spec: ModelSpec, workers: int) -> None:
    result = ParallelRunner(spec, workers=workers).run()
    conn.send(
        {
            "workers": workers,
            "events": result.events,
            "wall_s": result.wall_s,
            "events_per_s": result.events_per_s,
            "digest": result.digest,
        }
    )
    conn.close()


def measure(spec: ModelSpec, workers: int) -> dict:
    """One ladder point in a fresh process (clean heap and allocator, so
    earlier measurements cannot pollute later ones)."""
    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_measure_child, args=(child, spec, workers))
    proc.start()
    child.close()
    try:
        row = parent.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"ladder measurement (workers={workers}) died") from None
    proc.join()
    return row


def run_ladder(spec: ModelSpec, worker_counts: list[int], tag: str) -> list[dict]:
    rows = []
    for workers in worker_counts:
        row = measure(spec, workers)
        row["bench"] = f"{tag}-w{workers}"
        rows.append(row)
        print(
            f"{row['bench']:<26} wall {row['wall_s']:7.3f}s  "
            f"{row['events_per_s']:>12,.0f} events/s  ({row['events']:,} events)"
        )
    base = rows[0]
    for row in rows[1:]:
        speedup = row["events_per_s"] / base["events_per_s"] if base["events_per_s"] else 0.0
        print(
            f"  speedup w{row['workers']} vs w{base['workers']}: {speedup:.2f}x"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.parallel")
    sub = parser.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run one model under the parallel runtime")
    run_p.add_argument("--kind", default="basil", choices=SEQUENTIAL_KINDS)
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--shards", type=int, default=2)
    run_p.add_argument("--clients", type=int, default=6)
    run_p.add_argument("--keys", type=int, default=500)
    run_p.add_argument("--workload", default="ycsb-t")
    run_p.add_argument("--duration", type=float, default=0.05)
    run_p.add_argument("--warmup", type=float, default=0.02)
    run_p.add_argument("--seed", type=int, default=2024)
    run_p.add_argument("--obs", default=None, metavar="OUT.json",
                       help="record telemetry, write report")
    run_p.add_argument("--faults", default=None, metavar="SCHEDULE.json",
                       help="apply a repro.faults FaultSchedule")
    run_p.add_argument("--timers", type=int, default=2000,
                       help="microbench: timers per partition")

    lad = sub.add_parser("ladder", help="scale ladder: events/s vs workers")
    lad.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    lad.add_argument("--quick", action="store_true")
    lad.add_argument("--timers", type=int, default=None)
    lad.add_argument("--duration", type=float, default=None)

    args = parser.parse_args(argv)

    if args.cmd == "ladder":
        tag = "parallel-ladder-quick" if args.quick else "parallel-ladder"
        spec = ladder_spec(args.quick, timers=args.timers, duration=args.duration)
        print(
            f"scale ladder: {spec.partitions} partitions x {spec.timers:,} timers, "
            f"{spec.duration * 1000:.1f} ms simulated"
        )
        rows = run_ladder(spec, args.workers, tag)
        # The microbench digest is defined equal at every worker count,
        # the one-heap w1 execution included.
        base = rows[0]
        differing = [
            row["workers"] for row in rows[1:]
            if (row["digest"], row["events"]) != (base["digest"], base["events"])
        ]
        if differing:
            print(
                f"ERROR: digest/event count at workers={differing} differs "
                f"from workers={base['workers']}"
            )
            return 1
        return 0

    # run
    from repro.config import SystemConfig

    schedule = None
    if args.faults:
        from repro.faults.spec import FaultSchedule

        with open(args.faults) as fh:
            schedule = FaultSchedule.from_json(fh.read())
    if args.kind == "microbench":
        spec = ModelSpec(kind="microbench", timers=args.timers,
                         duration=args.duration)
    else:
        spec = ModelSpec(
            kind=args.kind,
            config=SystemConfig(num_shards=args.shards, seed=args.seed),
            workload=args.workload,
            workload_keys=args.keys,
            num_clients=args.clients,
            duration=args.duration,
            warmup=args.warmup,
            obs=bool(args.obs),
            fault_schedule=schedule,
        )
    started = time.perf_counter()
    result = ParallelRunner(spec, workers=args.workers).run()
    # Everything but the event loop: workload and system construction,
    # genesis, forks, and the summary.
    setup_s = time.perf_counter() - started - result.wall_s
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    print(
        f"{args.kind}: workers={result.workers} partitions={result.partitions} "
        f"windows={result.windows}"
    )
    print(
        f"  digest {result.digest[:16]}…  events {result.events:,}  "
        f"wall {result.wall_s:.3f}s  ({result.events_per_s:,.0f} events/s)"
    )
    print(f"  setup {setup_s:.2f}s  peak rss {peak_kb / 1024:.0f} MB (largest process)")
    if result.cross_messages:
        print(
            f"  cross-partition messages {result.cross_messages:,} "
            f"(undeliverable after end: {result.undeliverable})"
        )
    if result.fault_stats is not None:
        applied = {k: v for k, v in result.fault_stats.items() if v}
        print(f"  fault stats: {applied or 'none applied'}")
    if result.bench:
        bench = result.bench
        print(
            f"  bench: {bench.get('throughput', 0.0):,.1f} tx/s  "
            f"commit {bench.get('commit_rate', 0.0) * 100:.1f}%  "
            f"p99 {bench.get('p99_latency', 0.0) * 1000:.2f} ms"
        )
    if args.obs and result.report is not None:
        from repro.obs.report import RunReport, write_report

        write_report(args.obs, RunReport.from_dict(result.report))
        print(f"  wrote obs report to {args.obs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
