"""Tests for result rendering and experiment scaffolding."""

import pytest

from repro.bench.experiments import APP_BATCHES, APP_WORKLOADS, Scale
from repro.bench.report import (
    latency_ratio,
    render_ratio,
    render_series,
    render_table,
    throughput_ratio,
)
from repro.bench.runner import BenchResult


def result(name, tput, lat=0.005):
    return BenchResult(
        name=name, throughput=tput, mean_latency=lat, p99_latency=lat * 3,
        commit_rate=0.95, fast_path_rate=0.99, commits=int(tput), aborts=10,
        duration=1.0,
    )


def test_render_table_contains_all_rows():
    text = render_table("t", {"a": result("a", 100), "b": result("b", 200)})
    assert "t" in text and "a" in text and "b" in text
    assert text.count("tx/s") == 2


def test_ratios():
    results = {"a": result("a", 100, lat=0.010), "b": result("b", 50, lat=0.002)}
    assert throughput_ratio(results, "a", "b") == pytest.approx(2.0)
    assert latency_ratio(results, "a", "b") == pytest.approx(5.0)
    assert "2.00x" in render_ratio("x", results, "a", "b")


def test_ratio_zero_denominator_is_inf():
    results = {"a": result("a", 100), "z": result("z", 0.0, lat=0.0)}
    assert throughput_ratio(results, "a", "z") == float("inf")


def test_render_series():
    series = {0.0: result("x@0", 100), 0.3: result("x@30", 80)}
    text = render_series("sweep", series, metric="missing-metric")
    assert "x=" in text and "sweep" in text


def test_scale_quick_is_smaller():
    quick, full = Scale.quick(), Scale()
    assert quick.duration < full.duration
    assert quick.clients < full.clients
    assert quick.ycsb_keys < full.ycsb_keys


def test_app_tables_consistent():
    assert set(APP_BATCHES) == set(APP_WORKLOADS)
    for app, batches in APP_BATCHES.items():
        assert {"basil", "pbft", "hotstuff"} <= set(batches)
        workload = APP_WORKLOADS[app]()
        assert hasattr(workload, "genesis")


def test_correct_tps_per_client_fallbacks():
    from repro.bench.experiments import correct_tps_per_client

    plain = result("plain", 100)
    assert correct_tps_per_client(plain, total_clients=10) == pytest.approx(10.0)
    tagged = result("tagged", 100)
    tagged.extra["correct_tps_per_client"] = 7.5
    assert correct_tps_per_client(tagged, total_clients=10) == 7.5
