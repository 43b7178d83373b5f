#!/usr/bin/env python3
"""Render an HTML health dashboard for a Basil run with a mid-run partition.

This example drives the full telemetry pipeline end to end:

1. run a closed-loop Basil benchmark with a :class:`MetricsRegistry`
   attached and a ticker sampling every protocol signal on simulated
   time;
2. inject a 3/3 network partition mid-run — with n = 5f+1 = 6 replicas
   neither side holds a 3f+1 commit quorum, so commits stall, dependency
   fallbacks churn, and the ``commit-stall`` health rule goes critical;
3. evaluate the default Basil health rules over the sampled series and
   write both the RunReport JSON and a self-contained HTML dashboard
   (inline SVG time-series plots, no JavaScript, no external assets).

The run is seed-deterministic: rerunning produces byte-identical
series, verdicts, and digests.  Set ``REPRO_QUICK=1`` for a short run
(used by ``make obs-smoke``); the default is the full 30-simulated-
second story.

Run:  python examples/health_dashboard.py
Then open health_dashboard.html in a browser.
"""

import os

from repro.obs.html import render_html, write_html
from repro.obs.report import run_instrumented, write_report

QUICK = bool(os.environ.get("REPRO_QUICK"))

# Full story: 30 simulated seconds, partition from t=10s for 5s.
# Quick mode keeps the same shape at 1/100 scale so `make obs-smoke`
# stays fast while still tripping the same health rules.
DURATION = 0.3 if QUICK else 30.0
WARMUP = 0.05 if QUICK else 1.0
PARTITION = (0.1, 0.1) if QUICK else (10.0, 5.0)
INTERVAL = 0.005 if QUICK else 0.05

OUT_JSON = "health_dashboard.obs.json"
OUT_HTML = "health_dashboard.html"


def main() -> None:
    mode = "quick" if QUICK else "full"
    print(f"running instrumented Basil benchmark ({mode}: "
          f"{DURATION:g}s sim, partition at t={PARTITION[0]:g}s "
          f"for {PARTITION[1]:g}s)...")
    report = run_instrumented(
        system="basil",
        seed=11,
        clients=4,
        duration=DURATION,
        warmup=WARMUP,
        interval=INTERVAL,
        partition=PARTITION,
        name="health-dashboard",
    )

    bench = report.bench or {}
    print(f"health: {report.health}   "
          f"commits={bench.get('commits', 0)}  aborts={bench.get('aborts', 0)}  "
          f"throughput={bench.get('throughput', 0.0):.0f} tps")
    for verdict in report.verdicts:
        marker = "!!" if verdict["status"] != "ok" else "ok"
        print(f"  [{marker}] {verdict['rule']:<20} {verdict['status']:<9} "
              f"{verdict['detail'] or ''}")

    write_report(OUT_JSON, report)
    write_html(OUT_HTML, render_html(report))
    print(f"report -> {OUT_JSON}")
    print(f"dashboard -> {OUT_HTML}  (self-contained HTML, open in a browser)")

    # The partition must be visible to the health monitors, not just the
    # bench numbers: a sustained window with zero commits is critical.
    assert report.health in ("degraded", "critical"), report.health
    stalled = [v for v in report.verdicts
               if v["rule"] == "commit-stall" and v["status"] != "ok"]
    assert stalled, "expected the commit-stall rule to fire during the partition"
    print("commit-stall fired during the partition, as the paper's §6.3 "
          "liveness story predicts")


if __name__ == "__main__":
    main()
