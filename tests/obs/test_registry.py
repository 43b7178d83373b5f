"""Tests for the labeled metrics registry and its exporters."""

import pytest

from repro.obs.registry import (
    MetricsRegistry,
    prometheus_text,
    series_jsonl,
)
from repro.obs.ticker import TimeSeries
from repro.sim.loop import Simulator
from repro.sim.monitor import Counter, Gauge, Histogram, metric_key


def test_metric_key_canonicalization():
    assert metric_key("commits", {}) == "commits"
    assert metric_key("commits", None) == "commits"
    assert metric_key("aborts", {"reason": "stale"}) == "aborts{reason=stale}"
    # labels sort, so insertion order never forks a series
    a = metric_key("m", {"b": "2", "a": "1"})
    b = metric_key("m", {"a": "1", "b": "2"})
    assert a == b == "m{a=1,b=2}"


def test_counter_identity_per_label_set():
    reg = MetricsRegistry()
    reg.counter("txn_aborts_total", reason="stale-read").add()
    reg.counter("txn_aborts_total", reason="stale-read").add()
    reg.counter("txn_aborts_total", reason="conflict").add()
    assert reg.counter("txn_aborts_total", reason="stale-read").value == 2
    assert reg.counter("txn_aborts_total", reason="conflict").value == 1
    assert len(reg) == 2


def test_gauge_set_add_reset():
    reg = MetricsRegistry()
    g = reg.gauge("queue_depth", node="s0/r0")
    g.set(5.0)
    g.add(2.0)
    g.dec()
    assert g.value == 6.0
    assert reg.gauge("queue_depth", node="s0/r0") is g
    reg.reset()
    assert g.value == 0.0


def test_histogram_labels_and_summary():
    reg = MetricsRegistry()
    h = reg.histogram("latency", shard="0")
    for v in (0.001, 0.002, 0.003):
        h.record(v)
    summaries = reg.histogram_summaries()
    key = metric_key("latency", {"shard": "0"})
    assert summaries[key]["count"] == 3
    assert summaries[key]["mean"] == pytest.approx(0.002)


def test_registry_iterates_in_insertion_order():
    reg = MetricsRegistry()
    reg.counter("b")
    reg.counter("a")
    reg.gauge("c")
    assert [key for key, _ in reg] == ["b", "a", "c"]


def test_attach_metrics_installs_registry():
    """A simulator has no registry until one is attached."""
    sim = Simulator()
    assert sim.instruments is None
    reg = MetricsRegistry()
    assert sim.attach_metrics(reg) is reg
    assert sim.instruments.metrics is reg
    assert sim.instruments.tracer is None and sim.instruments.profiler is None


def test_prometheus_text_format():
    reg = MetricsRegistry()
    reg.counter("commits_total").add(3)
    reg.gauge("depth", node="r0").set(2.0)
    reg.histogram("lat").record(0.5)
    text = prometheus_text(reg)
    assert "# TYPE commits_total counter" in text
    assert "commits_total 3" in text
    assert '# TYPE depth gauge' in text
    assert 'depth{node="r0"} 2' in text
    assert "# TYPE lat summary" in text
    assert 'lat{quantile="0.99"} 0.5' in text
    assert "lat_count 1" in text
    assert "lat_sum 0.5" in text
    assert text.endswith("\n")


def test_series_jsonl_round_trip():
    series = [
        TimeSeries("m", {"node": "r0"}, [(0.0, 1.0), (0.005, 2.0)]),
        TimeSeries("n", {}, [(0.0, 0.0)]),
    ]
    text = series_jsonl(series)
    lines = text.strip().splitlines()
    assert len(lines) == 2
    import json

    back = TimeSeries.from_dict(json.loads(lines[0]))
    assert back.name == "m"
    assert back.labels == {"node": "r0"}
    assert back.points == [(0.0, 1.0), (0.005, 2.0)]
    assert series_jsonl([]) == ""


def test_primitives_reject_bad_labels_gracefully():
    """Primitives keep the labels they were built with (frozen views)."""
    c = Counter("x", {"a": "1"})
    g = Gauge("y")
    h = Histogram("z", {"b": "2"})
    assert c.labels == {"a": "1"}
    assert g.labels == {}
    assert h.labels == {"b": "2"}
