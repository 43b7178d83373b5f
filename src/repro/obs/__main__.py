"""CLI: ``python -m repro.obs {run,compare,rules}``.

``run`` executes one instrumented closed-loop benchmark and writes its
RunReport (optionally with a mid-run partition or inflated signature
verification cost, for producing deliberately-degraded runs).
``compare`` diffs two RunReports with tolerance-flagged deltas and
exits non-zero on a regression.  ``rules`` lists the health rules.

Examples::

    python -m repro.obs run --out a.obs.json
    python -m repro.obs run --seed 3 --partition 0.06 0.05 --out b.obs.json
    python -m repro.obs compare a.obs.json b.obs.json --html diff.html
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any

from repro.faults.campaign import make_config
from repro.obs.compare import DEFAULT_TOLERANCE, compare_reports, render_compare
from repro.obs.health import default_basil_rules
from repro.obs.report import RunReport, load_report, write_report
from repro.run import SYSTEM_KINDS, ModelSpec, SequentialRun

def run_instrumented(
    system: str = "basil",
    seed: int = 11,
    clients: int = 8,
    shards: int = 1,
    workload: str = "ycsb-t",
    keys: int = 500,
    duration: float = 0.12,
    warmup: float = 0.03,
    interval: float = 0.005,
    verify_cost_scale: float = 1.0,
    partition: tuple[float, float] | None = None,
    name: str | None = None,
) -> RunReport:
    """One telemetry-instrumented closed-loop run -> RunReport.

    ``partition`` = (start, duration) isolates one replica per shard for
    that window, forcing dependency stalls and fallback churn.
    ``verify_cost_scale`` multiplies the signature-verification cost —
    the cheapest way to fake a crypto performance regression.  The
    default run's whole report is pinned by the tests.
    """
    config = make_config(seed, {"num_shards": shards})
    meta: dict[str, Any] = {"clients": clients, "workload": workload}
    if verify_cost_scale != 1.0:
        crypto = dataclasses.replace(
            config.crypto, verify_cost=config.crypto.verify_cost * verify_cost_scale
        )
        config = config.with_overrides(crypto=crypto)
        meta["verify_cost_scale"] = verify_cost_scale
    schedule = None
    if partition is not None:
        from repro.faults.spec import FaultSchedule, PartitionFault

        # A 3/3 split: with n = 5f+1 = 6 neither side has a commit
        # quorum, so commits stall and dependency fallbacks churn until
        # the partition heals — the canonical "degraded" run.
        start, length = partition
        fault = PartitionFault(
            groups=(("s*/r0", "s*/r1", "s*/r2"), ("*",)),
            start=start, end=start + length,
        )
        schedule = FaultSchedule(name="obs-run", faults=(fault,)).validate()
        meta["partition"] = list(partition)
    spec = ModelSpec(
        kind=system,
        config=config,
        workload=workload,
        workload_keys=keys,
        num_clients=clients,
        duration=duration,
        warmup=warmup,
        label=name or f"obs-{system}-{workload}-seed{seed}",
        trace=False,
        obs=True,
        obs_interval=interval,
        fault_schedule=schedule,
        # Clients are left running, not cancelled: a cancel runs their
        # ``finally`` blocks, which record basil_fallback_seconds.
        drain=0.0,
    )
    report = RunReport.from_dict(SequentialRun(spec).run().report)
    report.meta.update(meta)
    return report


# ---------------------------------------------------------------------------
def cmd_run(args) -> int:
    report = run_instrumented(
        system=args.system, seed=args.seed, clients=args.clients,
        shards=args.shards, workload=args.workload, keys=args.keys,
        duration=args.duration, warmup=args.warmup, interval=args.interval,
        verify_cost_scale=args.verify_cost_scale,
        partition=tuple(args.partition) if args.partition else None,
    )
    bench = report.bench or {}
    print(
        f"{report.name}: health {report.health}, "
        f"{bench.get('commits', 0)} commits, {bench.get('aborts', 0)} aborts, "
        f"{len(report.series)} series"
    )
    for verdict in report.verdicts:
        if verdict["status"] != "ok":
            print(f"  {verdict['status']:>9}: {verdict['rule']} ({verdict['detail']})")
    if args.out:
        write_report(args.out, report)
        print(f"report -> {args.out}")
    if args.html:
        from repro.obs.html import render_html, write_html

        write_html(args.html, render_html(report))
        print(f"html -> {args.html}")
    return 0


def cmd_compare(args) -> int:
    a, b = load_report(args.a), load_report(args.b)
    result = compare_reports(a, b, tolerance=args.tolerance)
    print(render_compare(a, b, result))
    if args.html:
        from repro.obs.html import render_html, write_html

        write_html(args.html, render_html(a, b, result))
        print(f"html -> {args.html}")
    return 0 if result.ok else 1


def cmd_rules(args) -> int:
    for rule in default_basil_rules():
        win = f" for {rule.for_seconds}s" if rule.for_seconds else ""
        print(
            f"{rule.name:<20} {rule.severity:<9} "
            f"{rule.aggregate}({rule.metric}) {rule.op} {rule.threshold}{win}"
        )
        if rule.description:
            print(f"{'':<20} {rule.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Telemetry runs, health reports, and cross-run comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rn = sub.add_parser("run", help="one instrumented run -> RunReport JSON")
    rn.add_argument("--system", default="basil", choices=SYSTEM_KINDS)
    rn.add_argument("--seed", type=int, default=11)
    rn.add_argument("--clients", type=int, default=8)
    rn.add_argument("--shards", type=int, default=1)
    rn.add_argument("--workload", default="ycsb-t", metavar="NAME")
    rn.add_argument("--keys", type=int, default=500)
    rn.add_argument("--duration", type=float, default=0.12, metavar="S")
    rn.add_argument("--warmup", type=float, default=0.03, metavar="S")
    rn.add_argument("--interval", type=float, default=0.005, metavar="S",
                    help="telemetry sampling interval in simulated seconds")
    rn.add_argument("--verify-cost-scale", type=float, default=1.0, metavar="X",
                    help="multiply signature verification cost (inject a "
                    "crypto perf regression)")
    rn.add_argument("--partition", type=float, nargs=2, default=None,
                    metavar=("START", "DUR"),
                    help="split each shard 3/3 from START for DUR sim "
                    "seconds (no commit quorum: inject a commit stall)")
    rn.add_argument("--out", metavar="FILE", help="write the RunReport here")
    rn.add_argument("--html", metavar="FILE", help="write an HTML report here")
    rn.set_defaults(func=cmd_run)

    cp = sub.add_parser("compare", help="diff two RunReports (exit 1 on regression)")
    cp.add_argument("a", help="baseline RunReport JSON")
    cp.add_argument("b", help="candidate RunReport JSON")
    cp.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help=f"relative delta before flagging (default {DEFAULT_TOLERANCE})")
    cp.add_argument("--html", metavar="FILE", help="write a side-by-side HTML report")
    cp.set_defaults(func=cmd_compare)

    sub.add_parser("rules", help="list the default health rules").set_defaults(
        func=cmd_rules
    )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
