"""CLI: ``python -m repro.load {sweep,point,list}``.

``sweep`` is the capacity planner: walk offered load over a fresh
system per point, detect the saturation knee, cross-check it against
the closed-loop peak, and probe 2x-knee overload with and without
admission control.  ``point`` runs a single offered-load point for
interactive poking.
"""

from __future__ import annotations

import argparse
import sys

from repro.load.admission import POLICIES
from repro.load.planner import run_point, sweep, write_report
from repro.run import SYSTEM_KINDS

PROCESSES = ("poisson", "uniform", "bursty")


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--system", default="basil", choices=SYSTEM_KINDS)
    sub.add_argument("--workload", default="ycsb-t", metavar="NAME",
                     help="ycsb-t | ycsb-u | ycsb-z | retwis | smallbank | tpcc")
    sub.add_argument("--process", default="poisson", choices=PROCESSES,
                     help="arrival process shape (default poisson)")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--duration", type=float, default=0.3, metavar="S",
                     help="measured simulated seconds per point (default 0.3)")
    sub.add_argument("--warmup", type=float, default=0.1, metavar="S")
    sub.add_argument("--keys", type=int, default=2_000,
                     help="workload population (default 2000)")
    sub.add_argument("--proxies", type=int, default=None,
                     help="protocol clients in the proxy pool (default: the "
                          "closed-loop client count for sweep, 40 for point)")
    sub.add_argument("--shards", type=int, default=1)
    sub.add_argument("--obs", nargs="?", const="obs", default=None, metavar="DIR",
                     help="sample telemetry per point and write repro.obs "
                          "RunReport JSONs into DIR (default: obs/)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.load",
        description="Open-loop load sweeps and capacity planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="walk offered load, find the knee")
    _common(sw)
    sw.add_argument("--loads", type=float, nargs="+", metavar="TPS",
                    help="explicit offered-load ladder (default: multiples "
                         "of the closed-loop peak)")
    sw.add_argument("--anchor", type=float, metavar="TPS",
                    help="build the default ladder around this throughput "
                         "instead of measuring the closed-loop peak")
    sw.add_argument("--clients", type=int, default=40,
                    help="closed-loop clients for the anchor run (default 40)")
    sw.add_argument("--policy", default="aimd", choices=sorted(POLICIES),
                    help="admission policy for the overload probe (default aimd)")
    sw.add_argument("--quick", action="store_true",
                    help="smoke-test scale (short windows, small population)")
    sw.add_argument("--no-overload", action="store_true",
                    help="skip the 2x-knee overload probes")
    sw.add_argument("--no-closed-loop", action="store_true",
                    help="skip the closed-loop cross-check (needs --anchor "
                         "or --loads)")
    sw.add_argument("--out", metavar="FILE",
                    help="write the sweep report JSON here")

    pt = sub.add_parser("point", help="run one offered-load point")
    _common(pt)
    pt.add_argument("rate", type=float, help="offered load, tx/s")
    pt.add_argument("--policy", default="none", choices=sorted(POLICIES))

    sub.add_parser("list", help="show systems, workloads, and policies")

    args = parser.parse_args(argv)

    if args.command == "list":
        from repro.workloads import WORKLOADS

        print("systems:  " + " ".join(SYSTEM_KINDS))
        print("workloads: " + " ".join(sorted(WORKLOADS)))
        print("processes: " + " ".join(PROCESSES))
        print("policies:  " + " ".join(sorted(POLICIES)))
        return 0

    if args.command == "point":
        point = run_point(
            args.system, args.workload, args.rate,
            seed=args.seed, process=args.process, policy=args.policy,
            duration=args.duration, warmup=args.warmup, keys=args.keys,
            proxies=args.proxies if args.proxies is not None else 40,
            num_shards=args.shards,
            obs_dir=args.obs,
        )
        print(point.row())
        return 0

    duration, warmup, keys = args.duration, args.warmup, args.keys
    if args.quick:
        duration, warmup, keys = min(duration, 0.08), min(warmup, 0.02), min(keys, 500)
    if args.no_closed_loop and args.anchor is None and args.loads is None:
        parser.error("--no-closed-loop needs --anchor or --loads")
    report = sweep(
        args.system,
        args.workload,
        seed=args.seed,
        process=args.process,
        loads=args.loads,
        anchor=args.anchor,
        clients=args.clients,
        duration=duration,
        warmup=warmup,
        keys=keys,
        proxies=args.proxies,
        num_shards=args.shards,
        with_closed_loop=not args.no_closed_loop,
        with_overload=not args.no_overload,
        overload_policy=args.policy,
        obs_dir=args.obs,
    )
    if args.out:
        write_report(args.out, report)
        print(f"report -> {args.out}")
    if report.cross_check_ok is False:
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... list | head`
        sys.exit(0)
