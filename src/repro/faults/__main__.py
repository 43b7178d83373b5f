"""CLI: ``python -m repro.faults {sweep,replay,list}``.

``sweep`` is the simulation fuzzer the roadmap calls for: N seeds x the
scenario matrix through Basil and the baselines, history-checked after
every run, with self-contained repro bundles for any failure.
"""

from __future__ import annotations

import argparse
import sys

from repro.faults.campaign import replay_bundle, summarize, sweep
from repro.faults.scenarios import SCENARIOS, Scale
from repro.run import SYSTEM_KINDS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic fault-injection campaigns over the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="run N seeds x scenario matrix")
    sw.add_argument("--seeds", type=int, default=10, metavar="N",
                    help="seeds per (scenario, system) pair (default 10)")
    sw.add_argument("--seed-base", type=int, default=1,
                    help="first seed value (default 1)")
    sw.add_argument("--scenarios", nargs="+", choices=sorted(SCENARIOS),
                    metavar="NAME", help="subset of scenarios (default: all)")
    sw.add_argument("--systems", nargs="+", choices=SYSTEM_KINDS,
                    help="subset of systems (default: each scenario's own)")
    sw.add_argument("--full", action="store_true",
                    help="full-size runs (default: quick scale)")
    sw.add_argument("--no-trace", action="store_true",
                    help="skip tracing (faster; bundles lose their digest)")
    sw.add_argument("--out", default="fault-failures", metavar="DIR",
                    help="directory for repro bundles (default fault-failures/)")
    sw.add_argument("--obs", nargs="?", const="obs", default=None, metavar="DIR",
                    help="sample telemetry per case and write repro.obs "
                    "RunReport JSONs into DIR (default: obs/)")

    rp = sub.add_parser("replay", help="re-execute a recorded failure bundle")
    rp.add_argument("bundle", help="path to a repro bundle JSON")
    rp.add_argument("--no-trace", action="store_true")

    sub.add_parser("list", help="show the scenario matrix")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, scenario in SCENARIOS.items():
            print(f"{name:<26} [{','.join(scenario.systems)}] {scenario.description}")
        return 0

    if args.command == "replay":
        case = replay_bundle(args.bundle, with_trace=not args.no_trace)
        print(case.row())
        for violation in case.safety_violations:
            print(f"  {violation}")
        return 0 if case.ok else 1

    results = sweep(
        seeds=args.seeds,
        seed_base=args.seed_base,
        scenario_names=tuple(args.scenarios) if args.scenarios else None,
        systems=tuple(args.systems) if args.systems else None,
        scale=Scale() if args.full else Scale.quick(),
        out_dir=args.out,
        with_trace=not args.no_trace,
        obs_dir=args.obs,
    )
    if not results:
        parser.error("no selected scenario runs on the selected systems")
    print(summarize(results))
    return 1 if any(not r.ok for r in results) else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... list | head`
        sys.exit(0)
