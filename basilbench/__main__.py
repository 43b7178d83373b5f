"""``python -m basilbench``: the all-workloads run, the self-test, compare.

``run --seed N`` prints every end-to-end metric by name and unit for the
six workloads, checks every correctness gate, writes the result document
(end-to-end rows, raw samples, per-layer table, host, commit) and exits 1
if a gate failed.  ``run --selftest`` does the same at 1/10 size with one
run per set, in under 30 s.  ``compare A.json B.json`` judges B against A.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
from typing import Any

from basilbench import ROOT, compare, harness

#: The contract's rule for workload and metric names.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Self-test size.  At 1/20 the 1.2 ms window of basil-ycsb-sig-w2 can fall
#: between two waves of the clients' first commits and hold none.
SELFTEST_SHRINK = 10


def print_document(document: dict[str, Any], benchmark: dict[str, Any]) -> None:
    host = document["host"]
    print(f"commit {document['commit']}  seed {document['seed']}  "
          f"{document['repeats']} runs per set at {document['seconds']:g} s  "
          f"nproc {host['nproc']}  load {host['load_average_at_start'][0]:.2f}")
    for name, row in document["workloads"].items():
        walls = sorted(run["wall_s"] for run in row["runs"])
        detail = f"n={len(walls)} min {walls[0]:.3f}"
        if len(walls) > 1:
            q1, _, q3 = statistics.quantiles(walls, n=4)
            detail += f" q1 {q1:.3f} q3 {q3:.3f}"
        print(f"\n{name}  (wall_s {detail}; {row['events']} events; "
              f"trace digest {row['digest'][:16] or '-'})")
        for metric in benchmark["end_to_end"]:
            value = row["end_to_end"][metric["name"]]
            print(f"  {metric['name']:<16}{value:>16.6g} {metric['unit']}")
        for problem in row["problems"]:
            print(f"  GATE FAILED: {problem}")


def run(args: argparse.Namespace) -> int:
    benchmark = harness.load_benchmark()
    seconds, repeats = benchmark["run_seconds"], harness.REPEATS
    if args.selftest:
        seconds, repeats = seconds / SELFTEST_SHRINK, 1
    document = harness.run_all(args.seed, seconds, repeats)
    print_document(document, benchmark)

    problems = [p for row in document["workloads"].values() for p in row["problems"]]
    declared = benchmark["end_to_end"] + benchmark["per_layer"] + benchmark["workloads"]
    problems += [f"name {m['name']!r} breaks the naming rule"
                 for m in declared if not NAME_RE.match(m["name"])]
    for name, row in document["workloads"].items():
        # Raises when a declared metric is missing or an undeclared one appears.
        harness.with_units(row["end_to_end"], benchmark["end_to_end"])
        harness.with_units(row["per_layer"], benchmark["per_layer"])

    out = args.out or os.path.join(harness.OUT_DIR, "latest.json")
    os.makedirs(os.path.dirname(ROOT / out), exist_ok=True)
    with open(ROOT / out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {out}; {len(problems)} gate failure(s)")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m basilbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="all workloads, all gates")
    run_parser.add_argument("--seed", type=int, default=2024)
    run_parser.add_argument("--selftest", action="store_true",
                            help="1/10 size, one run per set, under 30 s")
    run_parser.add_argument("--out", help="result file, relative to the checkout")
    compare_parser = commands.add_parser("compare", help="judge B against A")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    return compare.main(args.a, args.b, harness.load_benchmark()["end_to_end"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
