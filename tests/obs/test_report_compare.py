"""Tests for RunReport artifacts and cross-run comparison."""

import copy

import pytest

from repro.config import SystemConfig
from repro.obs.compare import compare_reports, render_compare
from repro.obs.html import render_html
from repro.obs.report import (
    RunReport,
    config_digest,
    load_report,
    write_report,
)


def make_report(**overrides) -> RunReport:
    base = dict(
        name="run-a",
        seed=7,
        sim_seconds=0.1,
        config_digest="abc123",
        health="ok",
        verdicts=[
            {"rule": "commit-stall", "status": "ok", "observed": 100.0,
             "breach_at": None, "detail": ""},
        ],
        bench={"throughput": 1000.0, "mean_latency": 0.005, "commits": 100,
               "aborts": 5, "commit_rate": 0.95, "fast_path_rate": 1.0,
               "p99_latency": 0.01},
        series=[
            {"name": "basil_txn_commits_total", "labels": {},
             "points": [[0.01, 10.0], [0.02, 20.0]]},
        ],
        histograms={"lat": {"count": 3, "mean": 0.002, "p50": 0.002,
                            "p95": 0.003, "p99": 0.003, "max": 0.003}},
        digest="t" * 16,
        config={"f": 1},
        meta={},
    )
    base.update(overrides)
    return RunReport(**base)


def test_report_round_trip(tmp_path):
    report = make_report()
    path = str(tmp_path / "run.obs.json")
    write_report(path, report)
    loaded = load_report(path)
    assert loaded == report


def test_report_schema_is_versioned(tmp_path):
    report = make_report()
    assert report.to_dict()["schema"] == "repro.obs.run/v1"
    with pytest.raises(ValueError):
        RunReport.from_dict({**report.to_dict(), "schema": "bogus/v9"})


def test_config_digest_is_stable_and_sensitive():
    a = SystemConfig(f=1, batch_size=4, seed=7)
    b = SystemConfig(f=1, batch_size=4, seed=7)
    c = SystemConfig(f=1, batch_size=8, seed=7)
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)


def test_identical_reports_compare_clean():
    a, b = make_report(), make_report()
    result = compare_reports(a, b)
    assert result.ok
    assert result.identical
    assert "no differences" in render_compare(a, b, result)


def test_flagged_delta_on_throughput_drop():
    a = make_report()
    b = make_report(name="run-b")
    b.bench = dict(b.bench, throughput=600.0, commits=60)
    result = compare_reports(a, b)
    flagged = {d.metric for d in result.flagged}
    assert "bench.throughput" in flagged
    assert "bench.commits" in flagged
    assert not result.ok
    tput = next(d for d in result.flagged if d.metric == "bench.throughput")
    assert tput.worse  # smaller throughput is worse
    assert tput.rel == pytest.approx(-0.4)
    assert "REGRESSION" in render_compare(a, b, result)


def test_small_wiggle_within_tolerance_passes():
    a = make_report()
    b = make_report()
    b.bench = dict(b.bench, throughput=950.0)  # -5% < 20% tolerance
    result = compare_reports(a, b)
    assert result.ok
    assert not result.identical


def test_health_regression_flagged():
    a = make_report()
    b = make_report(health="critical")
    b.verdicts = [
        {"rule": "commit-stall", "status": "critical", "observed": 0.0,
         "breach_at": 0.05, "detail": "stalled"},
    ]
    result = compare_reports(a, b)
    assert [h.rule for h in result.regressions] == ["commit-stall"]
    assert not result.ok
    # improvement in the other direction is not a regression
    back = compare_reports(b, a)
    assert not back.regressions


def test_series_only_in_one_report_still_diffs():
    a = make_report()
    b = make_report()
    b.series = b.series + [
        {"name": "net_drops_total", "labels": {"reason": "adversary"},
         "points": [[0.02, 40.0]]},
    ]
    result = compare_reports(a, b)
    drops = next(
        d for d in result.deltas
        if d.metric == "series.net_drops_total{reason=adversary}"
    )
    assert drops.a == 0.0 and drops.b == 40.0 and drops.flagged


def test_compare_notes_config_and_seed_mismatch():
    a = make_report()
    b = make_report(seed=9, config_digest="zzz999")
    result = compare_reports(a, b)
    assert any("seeds differ" in n for n in result.notes)
    assert any("configs differ" in n for n in result.notes)


def test_html_report_is_self_contained(tmp_path):
    a = make_report()
    b = make_report(name="run-b", health="degraded")
    b.bench = dict(b.bench, throughput=600.0)
    result = compare_reports(a, b)
    html = render_html(a, b, result)
    assert html.lstrip().startswith("<!doctype html>")
    assert "run-a" in html and "run-b" in html
    assert "<svg" in html  # inline charts
    assert "<script" not in html  # no JS, fully static
    solo = render_html(a)
    assert "run-a" in solo and "<svg" in solo


def test_tolerance_is_tunable():
    a = make_report()
    b = make_report()
    b.bench = dict(b.bench, throughput=890.0)  # -11%
    assert compare_reports(a, b, tolerance=0.20).ok
    assert not compare_reports(a, b, tolerance=0.05).ok


def test_prof_attribution_shift_flagged():
    """Profiled reports diff prof.<subsystem>.share rows of their
    attribution sections; a large shift flags in either direction (a
    moved hot spot matters as much as a new one)."""
    from repro.prof.profiler import Attribution

    def profiled(name, task_step, crypto_sign, loop):
        table = {sub: {"wall_s": wall, "calls": 10} for sub, wall in (
            ("task.step", task_step), ("crypto.sign", crypto_sign), ("kernel.loop", loop))}
        return make_report(name=name, prof=Attribution(table, wall_s=1.0, events=100))

    a = profiled("run-a", 0.5, 0.1, 0.4)
    b = profiled("run-b", 0.3, 0.4, 0.3)
    result = compare_reports(a, b)
    flagged = {d.metric for d in result.flagged}
    assert "prof.crypto.sign.share" in flagged
    assert "prof.task.step.share" in flagged
    assert not result.ok


def test_prof_meta_absent_adds_no_rows():
    result = compare_reports(make_report(), make_report(name="run-b"))
    assert not any(d.metric.startswith("prof.") for d in result.deltas)
