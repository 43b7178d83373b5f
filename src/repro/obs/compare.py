"""Cross-run regression analytics: diff two RunReports.

``compare_reports(a, b)`` lines up the benchmark row, the final value
of every sampled counter/gauge series, the histogram p99s, and the
health verdicts of two runs, and flags:

* metric deltas beyond tolerance (relative, with an absolute floor so
  a 2-count abort wiggle doesn't flag), among them, when both runs were
  profiled, the shares of their largest attribution rows, and
* health regressions — any rule whose verdict is more severe in B than
  in A (``ok`` -> ``degraded`` -> ``critical``).

Two runs of the same config + seed produce byte-identical metrics, so
the comparison reports "no differences" — that property is itself a
determinism check, and is pinned in tests.  ``python -m repro
compare A B [--html out.html]`` is the CLI face.  It is for runs that
differ on purpose; a run that must not move is pinned exactly in the
tests (the default ``run_instrumented()`` report is hashed whole).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.health import STATUS_ORDER
from repro.obs.report import RunReport
from repro.prof.profiler import top_shares

#: Benchmark-row scalars worth diffing, with direction of "worse":
#: +1 means larger is worse (latency), -1 means smaller is worse
#: (throughput); 0 means change in either direction is noteworthy.
BENCH_FIELDS = {
    "throughput": -1,
    "mean_latency": +1,
    "p99_latency": +1,
    "commit_rate": -1,
    "fast_path_rate": -1,
    "commits": -1,
    "aborts": +1,
    "goodput_tps": -1,
    "shed_count": +1,
}

DEFAULT_TOLERANCE = 0.20
#: Ignore absolute wiggles below this (counts of 1-2, sub-microsecond
#: latencies) even when the relative change is large.
ABS_FLOOR = 1e-9


@dataclass
class MetricDelta:
    metric: str
    a: float
    b: float
    rel: float
    flagged: bool
    worse: bool

    def row(self) -> str:
        mark = "!!" if self.flagged else "  "
        return f"{mark} {self.metric:<44} {self.a:>12.4g} -> {self.b:>12.4g}  ({self.rel:+.1%})"


@dataclass
class HealthDelta:
    rule: str
    a: str
    b: str
    regressed: bool

    def row(self) -> str:
        mark = "!!" if self.regressed else "  "
        return f"{mark} {self.rule:<44} {self.a:>12} -> {self.b:>12}"


@dataclass
class CompareResult:
    deltas: list[MetricDelta] = field(default_factory=list)
    health: list[HealthDelta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def flagged(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.flagged]

    @property
    def regressions(self) -> list[HealthDelta]:
        return [h for h in self.health if h.regressed]

    @property
    def ok(self) -> bool:
        return not self.flagged and not self.regressions

    @property
    def identical(self) -> bool:
        return all(d.a == d.b for d in self.deltas) and all(
            h.a == h.b for h in self.health
        )


def _delta(metric: str, a: float, b: float, tolerance: float, direction: int) -> MetricDelta:
    base = max(abs(a), abs(b))
    diff = b - a
    rel = diff / base if base > ABS_FLOOR else 0.0
    flagged = abs(rel) > tolerance and abs(diff) > ABS_FLOOR
    worse = (direction > 0 and diff > 0) or (direction < 0 and diff < 0) or (
        direction == 0 and diff != 0
    )
    return MetricDelta(metric, a, b, rel, flagged, worse)


def _prof_shares(report: RunReport) -> dict[str, float]:
    """``subsystem -> share`` of a profiled report's three largest
    attribution rows (empty when the run was not profiled)."""
    if report.prof is None:
        return {}
    return {
        row["subsystem"]: row["share"] for row in top_shares(report.prof.subsystems, 3)
    }


def compare_reports(
    a: RunReport, b: RunReport, tolerance: float = DEFAULT_TOLERANCE
) -> CompareResult:
    result = CompareResult()
    if a.config_digest and b.config_digest and a.config_digest != b.config_digest:
        result.notes.append(
            f"configs differ: {a.config_digest[:12]} vs {b.config_digest[:12]}"
        )
    if a.seed != b.seed:
        result.notes.append(f"seeds differ: {a.seed} vs {b.seed}")
    if a.digest and b.digest:
        if a.digest == b.digest:
            result.notes.append("digests identical (schedules byte-identical)")
        else:
            result.notes.append("digests differ (schedules diverged)")

    if a.bench and b.bench:
        for name, direction in BENCH_FIELDS.items():
            va, vb = a.bench.get(name), b.bench.get(name)
            if va is None or vb is None:
                continue
            if va == 0 and vb == 0:
                continue
            result.deltas.append(_delta(f"bench.{name}", float(va), float(vb), tolerance, direction))

    profs_a = _prof_shares(a)
    profs_b = _prof_shares(b)
    if profs_a and profs_b:
        # Attribution shifts: a subsystem whose share of wall moved in
        # either direction is noteworthy (direction 0) — growth means a
        # new hot spot, shrinkage means the hot spot moved elsewhere.
        for sub in sorted(set(profs_a) | set(profs_b)):
            va = profs_a.get(sub, 0.0)
            vb = profs_b.get(sub, 0.0)
            if va == 0.0 and vb == 0.0:
                continue
            result.deltas.append(
                _delta(f"prof.{sub}.share", va, vb, tolerance, 0)
            )

    finals_a = a.final_series_values()
    finals_b = b.final_series_values()
    for key in sorted(set(finals_a) | set(finals_b)):
        va = finals_a.get(key, 0.0)
        vb = finals_b.get(key, 0.0)
        if va == 0.0 and vb == 0.0:
            continue
        result.deltas.append(_delta(f"series.{key}", va, vb, tolerance, 0))

    for key in sorted(set(a.histograms) | set(b.histograms)):
        pa = a.histograms.get(key, {}).get("p99", 0.0)
        pb = b.histograms.get(key, {}).get("p99", 0.0)
        if pa == 0.0 and pb == 0.0:
            continue
        result.deltas.append(_delta(f"hist.{key}.p99", pa, pb, tolerance, +1))

    status_a = a.verdict_status()
    status_b = b.verdict_status()
    for rule in sorted(set(status_a) | set(status_b)):
        sa = status_a.get(rule, "ok")
        sb = status_b.get(rule, "ok")
        result.health.append(
            HealthDelta(
                rule, sa, sb,
                regressed=STATUS_ORDER.index(sb) > STATUS_ORDER.index(sa),
            )
        )
    return result


def render_compare(a: RunReport, b: RunReport, result: CompareResult) -> str:
    lines = [f"--- obs compare: {a.name}  vs  {b.name} ---"]
    for note in result.notes:
        lines.append(f"  note: {note}")
    if result.identical:
        lines.append("  no differences (identical metrics and health verdicts)")
        return "\n".join(lines)
    lines.append(f"  health: {a.health} -> {b.health}")
    for h in result.health:
        if h.regressed or h.a != h.b:
            lines.append("  " + h.row())
    flagged = result.flagged
    if flagged:
        lines.append(f"  {len(flagged)} metric delta(s) beyond tolerance:")
        for d in flagged:
            lines.append("  " + d.row())
    else:
        lines.append("  no metric deltas beyond tolerance")
    if result.ok:
        lines.append("  verdict: no significant differences")
    else:
        lines.append(
            f"  verdict: REGRESSION ({len(flagged)} flagged metrics, "
            f"{len(result.regressions)} health regressions)"
        )
    return "\n".join(lines)
