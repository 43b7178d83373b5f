"""Capacity planning: offered-load sweeps and knee detection.

The planner answers the operator's question — *how much load can this
deployment take, and what happens past that?* — by walking offered load
through a fresh system per point (open loop, no admission control),
detecting the saturation knee from the measured curve, and probing
overload behaviour at 2x the knee with and without admission control.

The knee is cross-checked against the closed-loop peak the bench
harness measures (Fig 4a's best point): both methodologies bound the
same capacity, so they must agree to within a configurable tolerance or
the sweep flags itself.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.config import AdmissionConfig, ArrivalConfig
from repro.faults.campaign import make_config
from repro.run import ModelSpec, SequentialRun

#: Knee heuristics: saturated when one more unit of offered load yields
#: less than this much goodput...
SLOPE_THRESHOLD = 0.5
#: ...or when p99 jumps by more than this factor between adjacent points.
P99_INFLECTION = 3.0
#: Max |knee - closed-loop peak| / peak before the cross-check complains.
CROSS_CHECK_TOLERANCE = 0.15


@dataclass
class SweepPoint:
    """One (offered load -> measured behaviour) sample."""

    offered: float  # configured arrival rate (tx/s)
    offered_tps: float  # measured arrivals/s inside the window
    goodput_tps: float  # committed tx/s
    mean_latency: float
    p99_latency: float
    commit_rate: float
    shed: int
    gave_up: int
    policy: str = "none"

    def row(self) -> str:
        return (
            f"offered {self.offered:>9.0f}  goodput {self.goodput_tps:>9.1f} tx/s  "
            f"lat {self.mean_latency * 1000:7.2f} ms  p99 {self.p99_latency * 1000:8.2f} ms  "
            f"commit {self.commit_rate * 100:5.1f}%  shed {self.shed:<5} "
            f"[{self.policy}]"
        )


@dataclass
class SweepReport:
    """Everything one ``repro sweep load`` run learned."""

    system: str
    workload: str
    seed: int
    process: str
    points: list[SweepPoint]
    knee_offered: float
    knee_goodput: float
    closed_loop_peak: float | None = None
    #: |knee_goodput - closed_loop_peak| / closed_loop_peak.
    cross_check_error: float | None = None
    cross_check_ok: bool | None = None
    overload: list[SweepPoint] = field(default_factory=list)
    wall_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro.load.sweep/v1",
            "system": self.system,
            "workload": self.workload,
            "seed": self.seed,
            "process": self.process,
            "points": [asdict(p) for p in self.points],
            "knee": {"offered": self.knee_offered, "goodput": self.knee_goodput},
            "closed_loop_peak": self.closed_loop_peak,
            "cross_check": {
                "error": self.cross_check_error,
                "ok": self.cross_check_ok,
                "tolerance": CROSS_CHECK_TOLERANCE,
            },
            "overload": [asdict(p) for p in self.overload],
            "wall_s": self.wall_s,
        }


# ---------------------------------------------------------------------------
# Knee detection
# ---------------------------------------------------------------------------
def detect_knee(
    points: list[SweepPoint],
    slope_threshold: float = SLOPE_THRESHOLD,
    p99_inflection: float = P99_INFLECTION,
) -> SweepPoint:
    """The last point before the curve saturates.

    Walking points sorted by offered load, the system is saturated at
    the first point where any of:

    * marginal goodput per unit of offered load drops below
      ``slope_threshold`` (the curve flattens),
    * p99 latency jumps by more than ``p99_inflection`` x the previous
      point (the queue is unbounded),
    * goodput *declines* (congestion collapse has begun).

    The knee is the point *at* a flattening (goodput still rising, just
    sub-linearly — that is the top of the curve) but the point *before*
    a decline or a p99 blow-up (the system is already past capacity
    there).  If nothing saturates, the knee is the highest-goodput
    point — the sweep simply didn't reach capacity, and callers should
    extend the ladder.
    """
    if not points:
        raise ValueError("cannot detect a knee with no sweep points")
    points = sorted(points, key=lambda p: p.offered)
    for i in range(1, len(points)):
        prev, cur = points[i - 1], points[i]
        d_offered = cur.offered - prev.offered
        if d_offered <= 0:
            continue
        inflected = (
            prev.p99_latency > 0 and cur.p99_latency > p99_inflection * prev.p99_latency
        )
        if cur.goodput_tps < prev.goodput_tps or inflected:
            return prev
        if (cur.goodput_tps - prev.goodput_tps) / d_offered < slope_threshold:
            return cur
    return max(points, key=lambda p: p.goodput_tps)


# ---------------------------------------------------------------------------
# Point execution
# ---------------------------------------------------------------------------
def run_point(
    system_kind: str,
    workload_name: str,
    rate: float,
    *,
    seed: int = 1,
    process: str = "poisson",
    policy: str = "none",
    duration: float = 0.3,
    warmup: float = 0.1,
    keys: int = 2_000,
    proxies: int = 40,
    num_shards: int = 1,
    admission: AdmissionConfig | None = None,
    obs_dir: str | None = None,
) -> SweepPoint:
    """Run one offered-load point against a *fresh* system."""
    if admission is None:
        admission = AdmissionConfig(policy=policy)
    spec = ModelSpec(
        kind=system_kind,
        config=make_config(seed, {"num_shards": num_shards}),
        workload=workload_name,
        workload_keys=keys,
        num_clients=proxies,
        duration=duration,
        warmup=warmup,
        label=f"load-{system_kind}-{workload_name}-{rate:.0f}-{admission.policy}",
        trace=False,
        obs=obs_dir is not None,
        obs_dir=obs_dir,
        arrivals=ArrivalConfig(process=process, rate=rate),
        admission=admission,
    )
    result = SequentialRun(spec).run().bench
    return SweepPoint(
        offered=rate,
        offered_tps=result["offered_tps"],
        goodput_tps=result["goodput_tps"],
        mean_latency=result["mean_latency"],
        p99_latency=result["p99_latency"],
        commit_rate=result["commit_rate"],
        shed=result["shed_count"],
        gave_up=result["extra"].get("gave_up", 0),
        policy=admission.policy,
    )


def closed_loop_peak(
    system_kind: str,
    workload_name: str,
    *,
    seed: int = 1,
    clients: int = 40,
    duration: float = 0.3,
    warmup: float = 0.1,
    keys: int = 2_000,
    num_shards: int = 1,
) -> float:
    """Peak closed-loop throughput — the Fig 4a-style anchor.

    Figure 4a's "peak" is the best point on the throughput-vs-clients
    curve, not one arbitrary client count: too few clients under-drive
    the system, too many collapse it with contention aborts.  So this
    walks a small client ladder around ``clients`` and keeps the max —
    the capacity bound the open-loop knee must land near.
    """
    best = 0.0
    for count in sorted({max(2, clients // 2), clients, clients * 2}):
        spec = ModelSpec(
            kind=system_kind,
            config=make_config(seed, {"num_shards": num_shards}),
            workload=workload_name,
            workload_keys=keys,
            num_clients=count,
            duration=duration,
            warmup=warmup,
            label=f"closed-{system_kind}-{workload_name}-{count}",
            trace=False,
        )
        best = max(best, SequentialRun(spec).run().bench["throughput"])
    return best


#: Offered-load ladder as multiples of the anchor throughput: below the
#: knee, around it, and past it.
DEFAULT_LADDER = (0.4, 0.6, 0.8, 1.0, 1.2, 1.5)


def sweep(
    system_kind: str = "basil",
    workload_name: str = "ycsb-t",
    *,
    seed: int = 1,
    process: str = "poisson",
    loads: list[float] | None = None,
    anchor: float | None = None,
    clients: int = 40,
    duration: float = 0.3,
    warmup: float = 0.1,
    keys: int = 2_000,
    proxies: int | None = None,
    num_shards: int = 1,
    with_closed_loop: bool = True,
    with_overload: bool = True,
    overload_policy: str = "aimd",
    obs_dir: str | None = None,
    verbose: bool = True,
) -> SweepReport:
    """Walk offered load, find the knee, probe 2x-knee overload.

    ``proxies`` defaults to the closed-loop client count: the proxy pool
    must match the concurrency the anchor run had, or the pool's own
    2-core client nodes (Fig 5c: clients do real crypto) become the
    bottleneck and the knee under-reads.
    """
    t0 = time.perf_counter()
    if proxies is None:
        proxies = clients
    say = print if verbose else (lambda *a, **k: None)

    peak: float | None = None
    if with_closed_loop or (anchor is None and loads is None):
        peak = closed_loop_peak(
            system_kind, workload_name, seed=seed, clients=clients,
            duration=duration, warmup=warmup, keys=keys, num_shards=num_shards,
        )
        say(f"closed-loop peak: {peak:.0f} tx/s")
    base = anchor if anchor is not None else peak
    if loads is None:
        loads = [round(base * m) for m in DEFAULT_LADDER]

    points: list[SweepPoint] = []
    for rate in loads:
        point = run_point(
            system_kind, workload_name, rate, seed=seed, process=process,
            duration=duration, warmup=warmup, keys=keys, proxies=proxies,
            num_shards=num_shards, obs_dir=obs_dir,
        )
        points.append(point)
        say(point.row())

    knee = detect_knee(points)
    say(f"knee: offered {knee.offered:.0f} tx/s, goodput {knee.goodput_tps:.0f} tx/s")

    report = SweepReport(
        system=system_kind,
        workload=workload_name,
        seed=seed,
        process=process,
        points=sorted(points, key=lambda p: p.offered),
        knee_offered=knee.offered,
        knee_goodput=knee.goodput_tps,
        closed_loop_peak=peak,
    )
    if peak is not None and peak > 0:
        report.cross_check_error = abs(knee.goodput_tps - peak) / peak
        report.cross_check_ok = report.cross_check_error <= CROSS_CHECK_TOLERANCE
        say(
            f"cross-check vs closed loop: {report.cross_check_error * 100:.1f}% "
            f"({'ok' if report.cross_check_ok else 'MISMATCH'})"
        )

    if with_overload:
        overload_rate = 2.0 * knee.offered
        for pol in ("none", overload_policy):
            point = run_point(
                system_kind, workload_name, overload_rate, seed=seed,
                process=process, policy=pol, duration=duration, warmup=warmup,
                keys=keys, proxies=proxies, num_shards=num_shards,
                obs_dir=obs_dir,
            )
            report.overload.append(point)
            say(point.row())

    report.wall_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def write_report(path: str, report: SweepReport) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
