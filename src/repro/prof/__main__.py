"""CLI: ``python -m repro.prof {run,report}``.

``run`` profiles one named bench target (attribution always; deep
Python-level sampling on by default, ``--no-deep`` to skip) and writes
the profile JSON plus flamegraph artifacts.  ``report`` re-renders a
saved profile without re-running anything.

Examples::

    python -m repro.prof run --list
    python -m repro.prof run --bench fig4-basil-quick
    python -m repro.prof run --bench fig4-basil-quick --workers 2 --no-deep
    python -m repro.prof report PROF_fig4-basil-quick.json --top 20
"""

from __future__ import annotations

import argparse
import sys

from repro.prof.report import load_profile, write_profile


def _slug(name: str) -> str:
    return name.replace("/", "-")


def cmd_run(args) -> int:
    from repro.prof.runners import profile_run
    from repro.prof.targets import describe_targets

    if args.list:
        print(describe_targets())
        return 0
    if not args.bench:
        print("run: --bench NAME required (see --list)", file=sys.stderr)
        return 2
    report = profile_run(args.bench, workers=args.workers, deep=args.deep)
    print(report.render(limit=args.top, hot=args.top))

    out = args.out or f"PROF_{_slug(args.bench)}.json"
    write_profile(out, report)
    print(f"\nprofile -> {out}")
    if report.collapsed:
        from repro.prof.flame import write_collapsed, write_flame_html

        collapsed = args.collapsed or f"PROF_{_slug(args.bench)}.collapsed.txt"
        write_collapsed(collapsed, report.collapsed)
        print(f"collapsed stacks -> {collapsed}")
        flame = args.flame or f"PROF_{_slug(args.bench)}.flame.html"
        write_flame_html(flame, report.collapsed, title=report.name)
        print(f"flamegraph -> {flame}")
    if report.coverage < args.min_coverage:
        print(
            f"run: attribution coverage {report.coverage:.1%} below "
            f"--min-coverage {args.min_coverage:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_report(args) -> int:
    report = load_profile(args.profile)
    print(report.render(limit=args.top, hot=args.top))
    if args.html:
        if not report.collapsed:
            print("report: no collapsed stacks in this profile (run without "
                  "--no-deep to collect them)", file=sys.stderr)
            return 1
        from repro.prof.flame import write_flame_html

        write_flame_html(args.html, report.collapsed, title=report.name)
        print(f"flamegraph -> {args.html}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.prof",
        description="Wall-clock profiling and attribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rn = sub.add_parser("run", help="profile one bench target")
    rn.add_argument("--bench", metavar="NAME",
                    help="target name (see --list)")
    rn.add_argument("--list", action="store_true",
                    help="list known targets and exit")
    rn.add_argument("--workers", type=int, default=1)
    rn.add_argument("--deep", dest="deep", action="store_true", default=True,
                    help="sample Python-level stacks too (default)")
    rn.add_argument("--no-deep", dest="deep", action="store_false",
                    help="attribution only — near-zero overhead, exact "
                    "subsystem shares")
    rn.add_argument("--top", type=int, default=16, metavar="N")
    rn.add_argument("--min-coverage", type=float, default=0.0, metavar="F",
                    help="exit 1 if attributed share of wall is below F")
    rn.add_argument("--out", metavar="FILE", help="profile JSON path")
    rn.add_argument("--flame", metavar="FILE", help="flamegraph HTML path")
    rn.add_argument("--collapsed", metavar="FILE",
                    help="collapsed-stack text path")
    rn.set_defaults(func=cmd_run)

    rp = sub.add_parser("report", help="re-render a saved profile JSON")
    rp.add_argument("profile", help="profile JSON written by `run`")
    rp.add_argument("--top", type=int, default=16, metavar="N")
    rp.add_argument("--html", metavar="FILE",
                    help="re-render the flamegraph HTML here")
    rp.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
