"""Command-line experiment runner.

Usage::

    python -m repro.bench fig4 --app smallbank
    python -m repro.bench fig5a
    python -m repro.bench fig5b
    python -m repro.bench fig5c
    python -m repro.bench fig6a
    python -m repro.bench fig6b
    python -m repro.bench fig7 --dist zipfian
    python -m repro.bench --quick all
    python -m repro.bench --quick --trace fig4 --app smallbank

``--quick`` and ``--trace`` are global flags and go *before* the
figure subcommand (``--app``/``--dist`` belong to their subcommands).

``--quick`` shrinks populations/durations for a fast smoke run.
``--trace [DIR]`` records every benchmark with the deterministic tracer
(:mod:`repro.trace`) and writes one Chrome ``trace_event`` JSON file per
run (default ``traces/``), viewable in ``chrome://tracing`` or Perfetto;
each run prints its trace path and digest.  For the per-phase latency
breakdown of a trace, see :func:`repro.trace.analysis.render_phase_breakdown`.
``--obs [DIR]`` samples time-series telemetry (:mod:`repro.obs`) during
every benchmark and writes one RunReport JSON per run (default
``obs/``) for ``python -m repro.obs compare``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import experiments as exp
from repro.bench.report import render_series, render_table


def _scale(args) -> exp.Scale:
    if getattr(args, "paper", False):
        import os

        if os.environ.get("REPRO_QUICK"):
            # Smoke environments run every recipe at the quick scale:
            # honor the env override so `--paper` ones complete there too.
            print("REPRO_QUICK set: substituting quick scale for --paper")
            return exp.Scale.quick()
        return exp.Scale.paper()
    return exp.Scale.quick() if args.quick else exp.DEFAULT_SCALE


def cmd_fig4(args) -> None:
    apps = [args.app] if args.app else list(exp.APP_WORKLOADS)
    for app in apps:
        results = exp.fig4_systems(app, scale=_scale(args))
        print(render_table(f"Fig 4 — {app}", results))


def cmd_fig5a(args) -> None:
    print(render_table(
        "Fig 5a — crypto cost",
        exp.fig5a_crypto_cost(_scale(args)),
    ))


def cmd_fig5b(args) -> None:
    print(render_table(
        "Fig 5b — read quorum",
        exp.fig5b_read_quorum(_scale(args)),
    ))


def cmd_fig5c(args) -> None:
    print(render_table(
        "Fig 5c — shard scaling",
        exp.fig5c_shard_scaling(_scale(args)),
    ))


def cmd_fig6a(args) -> None:
    print(render_table(
        "Fig 6a — fast path",
        exp.fig6a_fast_path(_scale(args)),
    ))


def cmd_fig6b(args) -> None:
    print(render_table(
        "Fig 6b — batching",
        exp.fig6b_batching(_scale(args)),
    ))


def cmd_fig7(args) -> None:
    scale = _scale(args)
    schedule = None
    if getattr(args, "crashes", 0):
        schedule = exp.fig7_crash_schedule(
            exp.SystemConfig(f=1, batch_size=4), scale, num_crashes=args.crashes
        )
    results = exp.fig7_failures(args.dist, scale=scale, fault_schedule=schedule)
    for behaviour, series in results.items():
        print(render_series(f"Fig 7 — {behaviour} ({args.dist})", series))


def cmd_all(args) -> None:
    cmd_fig4(args)
    cmd_fig5a(args)
    cmd_fig5b(args)
    cmd_fig5c(args)
    cmd_fig6a(args)
    cmd_fig6b(args)
    for dist in ("uniform", "zipfian"):
        args.dist = dist
        cmd_fig7(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the Basil paper's evaluation figures.",
    )
    parser.add_argument("--quick", action="store_true", help="scaled-down smoke run")
    parser.add_argument(
        "--paper", action="store_true",
        help="paper-testbed populations (10M YCSB keys, 1M Smallbank "
        "accounts; see EXPERIMENTS.md); REPRO_QUICK=1 downgrades to "
        "--quick so smoke environments still complete",
    )
    parser.add_argument(
        "--trace", nargs="?", const="traces", default=None, metavar="DIR",
        help="record a deterministic trace per benchmark; write Chrome "
        "trace_event JSON into DIR (default: traces/) and print each "
        "run's trace path and digest",
    )
    parser.add_argument(
        "--obs", nargs="?", const="obs", default=None, metavar="DIR",
        help="sample telemetry during every benchmark and write a "
        "repro.obs RunReport JSON per run into DIR (default: obs/); "
        "reports feed `python -m repro.obs compare`",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _passthrough(p) -> None:
        # Accept the global flags after the subcommand too (`fig5b
        # --quick`); SUPPRESS keeps an absent subcommand flag from
        # clobbering the global parse.
        p.add_argument("--quick", action="store_true",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--paper", action="store_true",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    p4 = sub.add_parser("fig4", help="application throughput/latency (4 systems)")
    p4.add_argument("--app", choices=sorted(exp.APP_WORKLOADS), default=None)
    p4.set_defaults(func=cmd_fig4)
    _passthrough(p4)
    for name, func in (
        ("fig5a", cmd_fig5a), ("fig5b", cmd_fig5b), ("fig5c", cmd_fig5c),
        ("fig6a", cmd_fig6a), ("fig6b", cmd_fig6b),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        _passthrough(p)
    p7 = sub.add_parser("fig7", help="Byzantine client failure sweeps")
    p7.add_argument("--dist", choices=["uniform", "zipfian"], default="zipfian")
    p7.add_argument(
        "--crashes", type=int, default=0, metavar="N",
        help="overlay N replica crash/restart faults",
    )
    p7.set_defaults(func=cmd_fig7)
    _passthrough(p7)
    pall = sub.add_parser("all", help="run every figure")
    pall.add_argument("--dist", default="zipfian", help=argparse.SUPPRESS)
    pall.set_defaults(func=cmd_all)
    _passthrough(pall)

    argv = list(sys.argv[1:] if argv is None else argv)
    # A bare ``--trace`` right before the subcommand would swallow the
    # subcommand name as its DIR operand; disambiguate in its favor.
    # (A directory actually named like a subcommand: use ``--trace=X``.)
    commands = {"fig4", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig7", "all"}
    for flag, default_dir in (("--trace", "traces"), ("--obs", "obs")):
        if flag in argv:
            where = argv.index(flag)
            if where + 1 < len(argv) and argv[where + 1] in commands:
                argv.insert(where + 1, default_dir)
    args = parser.parse_args(argv)
    exp.set_trace_dir(args.trace)
    exp.set_obs_dir(args.obs)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
