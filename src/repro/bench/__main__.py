"""Command-line experiment runner.

Usage::

    python -m repro.bench report --out FIGURES.json   # every figure + ablations
    python -m repro.bench fig4 --app smallbank        # one figure: fig4 ... fig7
    python -m repro.bench fig7 --dist zipfian
    python -m repro.bench --quick --trace fig4 --app smallbank

``--quick`` and ``--trace`` are global flags and go *before* the
figure subcommand (``--app``/``--dist``/``--out`` belong to their
subcommands).

Every subcommand prints its runs' rows, then the paper's claims about
them (:mod:`repro.bench.claims`) as one markdown table per figure.
``--out FILE`` writes ``{commit, seed, scale, rows, verdicts}`` as JSON:
the committed ``FIGURES.json`` that EXPERIMENTS.md's tables are rendered
from.  The exit status is 1 if a row (or its correct clients) committed
nothing, if a fast-path-off row took the fast path, or, at the default
scale without ``--crashes``, if a claim fails or passes unexpectedly.

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
import dataclasses
import functools
import json
import os
import subprocess
import sys

from repro.bench import claims
from repro.bench import experiments as exp
from repro.bench.report import render_table

FIGURES = ("fig4", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig7")


def _scale(args) -> exp.Scale:
    if getattr(args, "paper", False):
        if os.environ.get("REPRO_QUICK"):
            # Smoke environments run every recipe at the quick scale:
            # honor the env override so `--paper` ones complete there too.
            print("REPRO_QUICK set: substituting quick scale for --paper")
            return exp.Scale.quick()
        return exp.Scale.paper()
    return exp.Scale.quick() if args.quick else exp.DEFAULT_SCALE


def _groups(args) -> list[list[tuple]]:
    """The runs ``args.command`` makes, grouped by figure: each run is
    ``(rows key, title, run(scale) -> rows)``."""

    def fig7(dist):
        def run(scale):
            schedule = None
            if getattr(args, "crashes", 0):
                schedule = exp.fig7_crash_schedule(
                    exp.SystemConfig(f=1, batch_size=4), scale, num_crashes=args.crashes
                )
            series = exp.fig7_failures(dist, scale=scale, fault_schedule=schedule)
            return {row.name: row for rows in series.values() for row in rows.values()}
        return run

    apps = [args.app] if getattr(args, "app", None) else list(exp.APP_BATCHES)
    dists = [args.dist] if args.command == "fig7" else ["uniform", "zipfian"]
    table = {
        "fig4": [(f"fig4/{app}", f"Fig 4 — {app}", functools.partial(exp.fig4_systems, app))
                 for app in apps],
        "fig5a": [("fig5a", "Fig 5a — crypto cost", exp.fig5a_crypto_cost)],
        "fig5b": [("fig5b", "Fig 5b — read quorum", exp.fig5b_read_quorum)],
        "fig5c": [("fig5c", "Fig 5c — shard scaling", exp.fig5c_shard_scaling)],
        "fig6a": [("fig6a", "Fig 6a — fast path", exp.fig6a_fast_path)],
        "fig6b": [("fig6b", "Fig 6b — batching", exp.fig6b_batching)],
        "fig7": [(f"fig7/{dist}", f"Fig 7 — {dist}", fig7(dist)) for dist in dists],
        "ablations": [
            ("ablation/aggregation", "Ablation — signature aggregation (RW-U)",
             exp.ablation_aggregation),
            ("ablation/dependency-timeout",
             "Ablation — dependency timeout under 30% stall-early clients (RW-Z)",
             exp.ablation_dependency_timeout),
        ],
    }
    if args.command == "report":
        return list(table.values())
    return [table[args.command]]


def _commit() -> str:
    """The checkout's HEAD: the parent of a commit that adds the file."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=os.path.dirname(__file__),
            capture_output=True, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def cmd_figures(args) -> int:
    """Run, print and judge; the one path of every subcommand."""
    scale = _scale(args)
    rows: dict[str, dict] = {}
    verdicts = []
    for group in _groups(args):
        for key, title, run in group:
            rows[key] = run(scale)
            print(render_table(title, rows[key]))
        judged = claims.judge_all({key: rows[key] for key, _, _ in group})
        for table in claims.render_tables(judged).values():
            print(f"\n{table}\n")
        verdicts += judged
    if getattr(args, "out", None):
        doc = {
            "commit": _commit(),
            "seed": exp.SystemConfig().seed,
            "scale": dataclasses.asdict(scale),
            "rows": {
                key: {label: dataclasses.asdict(row) for label, row in runs.items()}
                for key, runs in rows.items()
            },
            "verdicts": [dataclasses.asdict(v) for v in verdicts],
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    # The claims are about crash-free runs: a fault overlay is not judged.
    gate = scale == exp.DEFAULT_SCALE and not getattr(args, "crashes", 0)
    found = claims.problems(rows, verdicts, gate=gate)
    for problem in found:
        print(f"FAILED {problem}")
    return 1 if found else 0


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
    helps = {
        "fig4": "application throughput/latency (4 systems)",
        "fig7": "Byzantine client failure sweeps",
        "report": "run every figure and both ablations and judge every claim",
    }
    subs = {}
    for name in (*FIGURES, "report"):
        p = subs[name] = sub.add_parser(name, **({"help": helps[name]} if name in helps else {}))
        # Accept the global flags after the subcommand too (`fig5b
        # --quick`); SUPPRESS keeps an absent subcommand flag from
        # clobbering the global parse.
        p.add_argument("--quick", action="store_true",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--paper", action="store_true",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    subs["fig4"].add_argument("--app", choices=sorted(exp.APP_BATCHES), default=None)
    subs["fig7"].add_argument("--dist", choices=["uniform", "zipfian"], default="zipfian")
    subs["fig7"].add_argument(
        "--crashes", type=int, default=0, metavar="N",
        help="overlay N replica crash/restart faults",
    )
    subs["report"].add_argument(
        "--out", metavar="FILE",
        help="write {commit, seed, scale, rows, verdicts} as JSON",
    )

    argv = list(sys.argv[1:] if argv is None else argv)
    # A bare ``--trace`` right before the subcommand would swallow the
    # subcommand name as its DIR operand; disambiguate in its favor.
    # (A directory actually named like a subcommand: use ``--trace=X``.)
    for flag, default_dir in (("--trace", "traces"), ("--obs", "obs")):
        if flag in argv:
            where = argv.index(flag)
            if where + 1 < len(argv) and argv[where + 1] in subs:
                argv.insert(where + 1, default_dir)
    args = parser.parse_args(argv)
    exp.set_trace_dir(args.trace)
    exp.set_obs_dir(args.obs)
    return cmd_figures(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
