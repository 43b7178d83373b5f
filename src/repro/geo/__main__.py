"""CLI: ``python -m repro.geo sweep|run|topo``.

* ``sweep`` — the geo serving experiment: every requested topology x
  serving mode (edge vs direct), printing a per-region end-user latency
  table and the edge-vs-direct comparison against each topology's
  fastest cross-region RTT.  ``--obs DIR`` writes one RunReport per
  point.
* ``run`` — one topology x mode point, full bench row + region table.
* ``topo`` — print a topology's regions and latency matrix (or its
  JSON, for editing into a custom matrix file).
"""

from __future__ import annotations

import argparse
import sys

from repro.geo.plan import MODES, GeoSpec
from repro.geo.topology import TOPOLOGIES, get_topology


def _spec(args: argparse.Namespace) -> "ModelSpec":
    from repro.config import SystemConfig
    from repro.run import ModelSpec

    topology = get_topology(args.topology)
    schedule = None
    if getattr(args, "faults", None):
        from repro.faults.spec import FaultSchedule

        with open(args.faults) as fh:
            schedule = FaultSchedule.from_json(fh.read())
    geo = GeoSpec(
        topology=topology,
        mode=args.mode,
        users_per_region=args.users,
        keys=args.keys,
        read_fraction=args.read_fraction,
        lease_ttl=args.lease_ttl,
    )
    return ModelSpec(
        kind="basil",
        config=SystemConfig(num_shards=args.shards, seed=args.seed),
        geo=geo,
        duration=args.duration,
        warmup=args.warmup,
        label=f"geo-{topology.name}-{args.mode}",
        obs=bool(args.obs),
        obs_dir=args.obs,
        fault_schedule=schedule,
    )


def _run_point(spec):
    from repro.run import SequentialRun

    return SequentialRun(spec).run()


def _print_regions(geo_extra: dict) -> None:
    print(f"    {'region':<12} {'reads':>6} {'writes':>7} "
          f"{'read p50':>9} {'read p99':>9} {'write p50':>10} {'hit rate':>9}")
    for region, row in geo_extra["regions"].items():
        hit = row.get("lease_hit_rate")
        print(
            f"    {region:<12} {row['reads']:>6} {row['writes']:>7} "
            f"{row['read_p50'] * 1000:>7.2f}ms {row['read_p99'] * 1000:>7.2f}ms "
            f"{row['write_p50'] * 1000:>8.2f}ms "
            f"{(f'{hit * 100:7.1f}%' if hit is not None else '      —'):>9}"
        )


def _report_point(result, spec) -> dict:
    bench = result.bench
    g = bench["extra"]["geo"]
    rtt = g["cross_region_rtt"]
    print(
        f"  {bench['name']:<22} ops {g['ops']:>5}  "
        f"read p50 {g['read_p50'] * 1000:7.2f} ms  "
        f"write p50 {g['write_p50'] * 1000:7.2f} ms  "
        f"commits {bench['commits']:>4}  "
        f"(min cross RTT {rtt * 1000:.0f} ms)"
    )
    _print_regions(g)
    if spec.obs_dir:  # the pipeline wrote it
        print(f"    wrote obs report to {spec.artifact_path('obs')}")
    return g


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.geo")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--shards", type=int, default=1)
        p.add_argument("--users", type=int, default=4,
                       help="end users per region")
        p.add_argument("--keys", type=int, default=24)
        p.add_argument("--read-fraction", type=float, default=0.9)
        p.add_argument("--lease-ttl", type=float, default=2.0)
        p.add_argument("--duration", type=float, default=0.6)
        p.add_argument("--warmup", type=float, default=0.15)
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--obs", default=None, metavar="DIR",
                       help="write RunReports into this directory")
        p.add_argument("--faults", default=None, metavar="SCHEDULE.json",
                       help="apply a FaultSchedule (e.g. a region blackout)")

    sweep = sub.add_parser(
        "sweep", help="edge vs direct serving across topologies"
    )
    sweep.add_argument("--topologies", nargs="+", default=["wan3"],
                       help=f"presets ({', '.join(sorted(TOPOLOGIES))}) or "
                       f"paths to topology JSON files")
    sweep.add_argument("--modes", nargs="+", default=list(MODES),
                       choices=list(MODES))
    common(sweep)

    run_p = sub.add_parser("run", help="one topology x mode point")
    run_p.add_argument("--topology", default="wan3")
    run_p.add_argument("--mode", default="edge", choices=list(MODES))
    common(run_p)

    topo = sub.add_parser("topo", help="print a topology's latency matrix")
    topo.add_argument("name", nargs="?", default="wan3")
    topo.add_argument("--json", action="store_true",
                      help="emit the topology as JSON (editable template)")

    args = parser.parse_args(argv)

    if args.cmd == "topo":
        topology = get_topology(args.name)
        if args.json:
            print(topology.to_json())
            return 0
        print(f"topology {topology.name}: {len(topology.regions)} regions, "
              f"min cross RTT {2 * topology.min_cross_region().base * 1000:.0f} ms")
        width = max(len(r) for r in topology.regions) + 2
        print(" " * width + "".join(f"{r:>{width}}" for r in topology.regions))
        for a in topology.regions:
            cells = []
            for b in topology.regions:
                base, jitter = topology.latency(a, b)
                cells.append(f"{base * 1000:.1f}+{jitter * 1000:.0f}ms".rjust(width))
            print(f"{a:>{width}}" + "".join(cells))
        return 0

    if args.cmd == "run":
        spec = _spec(args)
        _report_point(_run_point(spec), spec)
        return 0

    # sweep
    for name in args.topologies:
        topology = get_topology(name)
        print(
            f"{topology.name}: {len(topology.regions)} regions, min cross RTT "
            f"{2 * topology.min_cross_region().base * 1000:.0f} ms"
        )
        per_mode = {}
        for mode in args.modes:
            point = argparse.Namespace(**vars(args), topology=name, mode=mode)
            spec = _spec(point)
            per_mode[mode] = _report_point(_run_point(spec), spec)
        if "edge" in per_mode and "direct" in per_mode:
            edge, direct = per_mode["edge"], per_mode["direct"]
            rtt = edge["cross_region_rtt"]
            speedup = (
                direct["read_p50"] / edge["read_p50"]
                if edge["read_p50"] else float("inf")
            )
            print(
                f"  => edge read p50 {edge['read_p50'] * 1000:.2f} ms vs "
                f"direct {direct['read_p50'] * 1000:.2f} ms "
                f"({speedup:,.0f}x; one cross-region RTT = {rtt * 1000:.0f} ms)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
