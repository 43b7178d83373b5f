"""Knee detection and report plumbing (no simulation; synthetic curves)."""

from __future__ import annotations

import json

import pytest

from repro.load.planner import (
    SweepPoint,
    SweepReport,
    detect_knee,
    write_report,
)


def point(offered, goodput, p99=0.01, policy="none"):
    return SweepPoint(
        offered=offered,
        offered_tps=offered,
        goodput_tps=goodput,
        mean_latency=p99 / 3,
        p99_latency=p99,
        commit_rate=1.0,
        shed=0,
        gave_up=0,
        policy=policy,
    )


def test_knee_at_flattening_is_current_point():
    points = [
        point(1000, 1000), point(2000, 2000),
        point(3000, 2300),  # marginal 0.3 < 0.5: the curve tops out here
        point(4000, 2400),
    ]
    assert detect_knee(points).offered == 3000


def test_knee_before_goodput_decline():
    points = [point(1000, 1000), point(2000, 1900), point(3000, 1200)]
    assert detect_knee(points).offered == 2000


def test_knee_before_p99_inflection():
    points = [
        point(1000, 1000, p99=0.01),
        point(2000, 1950, p99=0.012),
        point(3000, 2900, p99=0.2),  # 16x jump: queue ran away
    ]
    assert detect_knee(points).offered == 2000


def test_unsaturated_sweep_returns_best_point():
    points = [point(1000, 990), point(2000, 1980), point(3000, 2970)]
    assert detect_knee(points).offered == 3000


def test_detect_knee_sorts_and_rejects_empty():
    shuffled = [point(3000, 1200), point(1000, 1000), point(2000, 1900)]
    assert detect_knee(shuffled).offered == 2000
    with pytest.raises(ValueError):
        detect_knee([])


def make_report():
    points = [point(1000, 1000), point(2000, 1900), point(3000, 1200)]
    return SweepReport(
        system="basil",
        workload="ycsb-t",
        seed=1,
        process="poisson",
        points=points,
        knee_offered=2000,
        knee_goodput=1900,
        closed_loop_peak=2000.0,
        cross_check_error=0.05,
        cross_check_ok=True,
        overload=[point(4000, 400), point(4000, 1800, policy="aimd")],
        wall_s=1.5,
    )


def test_report_json_roundtrip(tmp_path):
    report = make_report()
    path = tmp_path / "sweep.json"
    write_report(str(path), report)
    data = json.loads(path.read_text())
    assert data["schema"] == "repro.load.sweep/v1"
    assert data["knee"] == {"offered": 2000, "goodput": 1900}
    assert data["cross_check"]["ok"] is True
    assert len(data["points"]) == 3
    assert [p["policy"] for p in data["overload"]] == ["none", "aimd"]
