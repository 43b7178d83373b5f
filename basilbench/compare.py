"""``python -m basilbench compare A.json B.json``: is B worse than A?

For every (end-to-end metric, workload) pair: both values, the change,
the metric's bound from ``BENCHMARK.json`` and a verdict.  B *regresses*
when it is worse than A by more than the bound (for ``setup_s``: and by
more than 0.15 s).  A pair is *unresolved*,
not unchanged, when either file's own runs spread (first to third
quartile, as a share of their median) wider than the bound.  When both
files ran the same seed at the same size the simulated outcome is exact,
so any difference in event counts, trace digests or ``sim_*`` values is
reported as a mismatch.  Exit status 1 on any regression or mismatch.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

#: Metrics that are a function of the seed alone, never of the host.
EXACT = ("sim_tput_tps", "sim_lat_p50_ms", "sim_lat_p95_ms", "ok_share")
#: A set-up of 0.2 s is mostly interpreter start, which moves by a quarter
#: between two sets on a busy host: below this many seconds of worsening a
#: ``setup_s`` pair is not called a regression.
SETUP_FLOOR_S = 0.15


def spread(samples: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 samples)."""
    if len(samples) < 2:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(samples)


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is, as a share of ``before`` (negative: better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def compare(a: dict[str, Any], b: dict[str, Any],
            declared: list[dict[str, Any]]) -> tuple[list[str], int]:
    """Report lines and the number of regressions plus mismatches."""
    same_inputs = (a["seed"], a["seconds"], a["repeats"]) == (
        b["seed"], b["seconds"], b["repeats"])
    lines = [f"{'workload':<20}{'metric':<16}{'A':>14}{'B':>14}{'worse by':>10}"
             f"{'bound':>7}  verdict"]
    failures = 0
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"].get(name)
        if row_b is None:
            lines.append(f"{name:<20}missing from B")
            failures += 1
            continue
        for metric in declared:
            key, bound = metric["name"], metric["bound"]
            before, after = row_a["end_to_end"][key], row_b["end_to_end"][key]
            worse = worsening(before, after, metric["better"])
            noise = max(spread([run[key] for run in row["runs"] if key in run])
                        for row in (row_a, row_b))
            if same_inputs and key in EXACT and before != after:
                verdict = "MISMATCH (exact for a seed)"
                failures += 1
            elif noise > bound:
                verdict = f"unresolved (own spread {noise:.1%})"
            elif worse > bound and not (
                    key == "setup_s" and after - before < SETUP_FLOOR_S):
                verdict = "REGRESSION"
                failures += 1
            else:
                verdict = "ok"
            lines.append(f"{name:<20}{key:<16}{before:>14.6g}{after:>14.6g}"
                         f"{worse:>+10.1%}{bound:>7.0%}  {verdict}")
        if same_inputs:
            for key in ("events", "digest"):
                if row_a[key] != row_b[key]:
                    lines.append(f"{name:<20}{key} MISMATCH: {row_a[key]} != {row_b[key]}")
                    failures += 1
    if not same_inputs:
        lines.append("seed, size or repeats differ: event counts, digests and "
                     "sim_* values are not compared for equality")
    return lines, failures


def main(path_a: str, path_b: str, declared: list[dict[str, Any]]) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    lines, failures = compare(a, b, declared)
    print("\n".join(lines))
    print(f"{failures} regression(s) or mismatch(es)")
    return 1 if failures else 0
