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
from typing import Any, Callable

from repro.config import AdmissionConfig, ArrivalConfig
from repro.faults.campaign import make_config
from repro.run import ModelSpec, PartitionResult, run_specs

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
# Points
# ---------------------------------------------------------------------------
def point_spec(
    system_kind: str,
    workload_name: str,
    rate: float,
    *,
    process: str = "poisson",
    policy: str = "none",
    proxies: int = 40,
    **common: Any,
) -> ModelSpec:
    """One offered-load point against a *fresh* system (``common``: the
    ``seed``, ``duration``, ``warmup``, ``keys`` and ``num_shards``)."""
    return _spec(
        system_kind, workload_name, f"load-{system_kind}-{workload_name}-{rate:.0f}-{policy}",
        proxies, arrivals=ArrivalConfig(process=process, rate=rate),
        admission=AdmissionConfig(policy=policy), **common,
    )


def sweep_point(spec: ModelSpec, result: PartitionResult) -> SweepPoint:
    """What one offered-load point measured."""
    bench = result.bench
    return SweepPoint(
        offered=spec.arrivals.rate,
        offered_tps=bench["offered_tps"],
        goodput_tps=bench["goodput_tps"],
        mean_latency=bench["mean_latency"],
        p99_latency=bench["p99_latency"],
        commit_rate=bench["commit_rate"],
        shed=bench["shed_count"],
        gave_up=bench["extra"].get("gave_up", 0),
        policy=spec.admission.policy,
    )


def peak_specs(
    system_kind: str, workload_name: str, *, clients: int = 40, **common: Any
) -> list[ModelSpec]:
    """The closed-loop runs whose best throughput is the Fig 4a-style anchor.

    Figure 4a's "peak" is the best point on the throughput-vs-clients
    curve, not one arbitrary client count: too few clients under-drive
    the system, too many collapse it with contention aborts.  So this is
    a small client ladder around ``clients``; its max is the capacity
    bound the open-loop knee must land near.
    """
    return [
        _spec(system_kind, workload_name, f"closed-{system_kind}-{workload_name}-{count}",
              count, **common)
        for count in sorted({max(2, clients // 2), clients, clients * 2})
    ]


def _spec(
    system_kind: str, workload_name: str, label: str, clients: int, *, seed: int = 1,
    duration: float = 0.3, warmup: float = 0.1, keys: int = 2_000, num_shards: int = 1,
    **fields: Any,
) -> ModelSpec:
    return ModelSpec(
        kind=system_kind,
        config=make_config(seed, {"num_shards": num_shards}),
        workload=workload_name,
        workload_keys=keys,
        num_clients=clients,
        duration=duration,
        warmup=warmup,
        label=label,
        trace=False,
        **fields,
    )


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
    run: Callable[[list[ModelSpec]], list[PartitionResult]] = run_specs,
    verbose: bool = True,
) -> SweepReport:
    """Walk offered load, find the knee, probe 2x-knee overload.

    Each stage depends on the one before, so each is one ``run`` call
    (:func:`~repro.run.run_specs` unless the caller wraps it): the
    closed-loop peak ladder, the offered-load ladder, the overload pair.

    ``proxies`` defaults to the closed-loop client count: the proxy pool
    must match the concurrency the anchor run had, or the pool's own
    2-core client nodes (Fig 5c: clients do real crypto) become the
    bottleneck and the knee under-reads.
    """
    t0 = time.perf_counter()
    if proxies is None:
        proxies = clients
    say = print if verbose else (lambda *a, **k: None)
    common = dict(seed=seed, duration=duration, warmup=warmup, keys=keys,
                  num_shards=num_shards)

    def points(rates: list[float], policies: tuple[str, ...] = ("none",)) -> list[SweepPoint]:
        specs = [point_spec(system_kind, workload_name, rate, process=process, policy=policy,
                            proxies=proxies, **common)
                 for rate in rates for policy in policies]
        found = [sweep_point(spec, result) for spec, result in zip(specs, run(specs))]
        for point in found:
            say(point.row())
        return found

    peak: float | None = None
    if with_closed_loop or (anchor is None and loads is None):
        closed = peak_specs(system_kind, workload_name, clients=clients, **common)
        peak = max(result.bench["throughput"] for result in run(closed))
        say(f"closed-loop peak: {peak:.0f} tx/s")
    base = anchor if anchor is not None else peak
    if loads is None:
        loads = [round(base * m) for m in DEFAULT_LADDER]

    ladder = points(loads)
    knee = detect_knee(ladder)
    say(f"knee: offered {knee.offered:.0f} tx/s, goodput {knee.goodput_tps:.0f} tx/s")

    report = SweepReport(
        system=system_kind,
        workload=workload_name,
        seed=seed,
        process=process,
        points=sorted(ladder, key=lambda p: p.offered),
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
        report.overload = points([2.0 * knee.offered], ("none", overload_policy))

    report.wall_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def write_report(path: str, report: SweepReport) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
