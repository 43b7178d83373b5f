"""Tests for trace analysis views (repro.trace.analysis)."""

import pytest

from repro.config import SystemConfig
from repro.core.api import TransactionSession
from repro.core.system import BasilSystem
from repro.sim.loop import Simulator
from repro.trace import Tracer
from repro.trace.analysis import (
    cpu_utilization,
    network_timeline,
    phase_durations,
    phase_histograms,
    render_phase_breakdown,
    render_utilization,
    transaction_phases,
)


@pytest.fixture()
def traced_commit():
    """One committed Basil transaction under tracing; returns (tracer, result)."""
    system = BasilSystem(SystemConfig(f=1, num_shards=1))
    tracer = system.sim.attach_tracer(Tracer())
    system.load({"k": b"v"})

    async def txn(session: TransactionSession):
        value = await session.read("k")
        session.write("k", value + b"!")

    result = system.run_transaction(txn)
    system.run()  # drain the asynchronous writeback
    assert result.committed
    return tracer, result


def test_phase_histograms_cover_client_lifecycle(traced_commit):
    tracer, _ = traced_commit
    hists = phase_histograms(tracer)
    assert {"execute", "st1", "writeback"} <= set(hists)
    assert hists["st1"].count == 1
    assert hists["st1"].mean() > 0


def test_phase_durations_tile_end_to_end_latency(traced_commit):
    """The client phase spans are contiguous: they sum to the txn latency."""
    tracer, result = traced_commit
    txid = result.txid.hex()
    phases = transaction_phases(tracer, txid)
    assert [e.name for e in phases] == ["execute", "st1", "writeback"]
    # contiguity: each phase begins where the previous one ended
    for prev, cur in zip(phases, phases[1:]):
        assert cur.ts == pytest.approx(prev.ts + prev.dur, abs=1e-12)
    total = sum(phase_durations(tracer, txid).values())
    end_to_end = phases[-1].ts + phases[-1].dur - phases[0].ts
    assert total == pytest.approx(end_to_end, abs=1e-12)


def test_render_phase_breakdown_lists_protocol_order(traced_commit):
    tracer, _ = traced_commit
    text = render_phase_breakdown(tracer, title="one txn")
    assert "--- one txn ---" in text
    lines = [l.split()[0] for l in text.splitlines()[2:]]
    assert lines.index("execute") < lines.index("st1") < lines.index("writeback")


def test_render_phase_breakdown_empty_tracer():
    tracer = Simulator().attach_tracer(Tracer())
    assert "(no txn spans recorded)" in render_phase_breakdown(tracer)


def test_cpu_utilization_buckets_busy_time(traced_commit):
    tracer, _ = traced_commit
    timelines = cpu_utilization(tracer, bucket=0.001)
    # replicas burned crypto + message-handling CPU
    assert any(node.startswith("replica") or "r" in node for node in timelines)
    for series in timelines.values():
        for _, busy_cores in series:
            assert busy_cores >= 0.0
    # total busy time across buckets equals the sum of recorded costs
    recorded = sum(
        float(e.fields.get("cost", e.dur))
        for e in tracer
        if e.category == "cpu" and e.dur is not None
    )
    bucketed = sum(
        busy * 0.001 for series in timelines.values() for _, busy in series
    )
    assert bucketed == pytest.approx(recorded, rel=1e-9)


def test_cpu_utilization_node_filter(traced_commit):
    tracer, _ = traced_commit
    all_nodes = set(cpu_utilization(tracer, bucket=0.001))
    node = sorted(all_nodes)[0]
    only = cpu_utilization(tracer, bucket=0.001, nodes=[node])
    assert set(only) == {node}


def test_network_timeline_counts_sends_and_delivers(traced_commit):
    tracer, _ = traced_commit
    timeline = network_timeline(tracer, bucket=0.01)
    assert timeline, "expected net events from a committed transaction"
    sends = sum(row[1] for row in timeline)
    delivers = sum(row[2] for row in timeline)
    drops = sum(row[3] for row in timeline)
    assert sends > 0 and delivers > 0 and drops == 0
    assert delivers == sends  # lossless network delivers everything


def test_timeline_bucket_validation(traced_commit):
    tracer, _ = traced_commit
    with pytest.raises(ValueError):
        cpu_utilization(tracer, bucket=0.0)
    with pytest.raises(ValueError):
        network_timeline(tracer, bucket=-1.0)


def test_render_utilization_smoke(traced_commit):
    tracer, _ = traced_commit
    text = render_utilization(tracer, bucket=0.001)
    assert "cpu utilization" in text
    assert len(text.splitlines()) > 1


def test_network_timeline_empty():
    assert network_timeline(Simulator().attach_tracer(Tracer())) == []


# ---------------------------------------------------------------------------
# Degenerate traces: empty, single-event, instants-only
# ---------------------------------------------------------------------------
def test_empty_trace_all_views():
    """Every analysis view handles a trace with no events at all."""
    tracer = Simulator().attach_tracer(Tracer())
    assert phase_histograms(tracer) == {}
    assert transaction_phases(tracer, "deadbeef") == []
    assert phase_durations(tracer, "deadbeef") == {}
    assert cpu_utilization(tracer) == {}
    assert network_timeline(tracer) == []
    assert "(no txn spans recorded)" in render_phase_breakdown(tracer)
    assert "(no cpu spans recorded)" in render_utilization(tracer)


def test_single_event_trace():
    """One lone span still produces a one-phase, one-bucket view."""
    tracer = Simulator().attach_tracer(Tracer())
    tracer.complete("c0", "txn", "st1", 0.001, 0.004, txid="ab")
    hists = phase_histograms(tracer)
    assert set(hists) == {"st1"}
    assert hists["st1"].count == 1
    assert hists["st1"].mean() == pytest.approx(0.003)
    assert phase_durations(tracer, "ab") == {"st1": pytest.approx(0.003)}
    # a single cpu span lands in exactly the buckets its cost covers
    tracer.clear()
    tracer.complete("s0/r0", "cpu", "work", 0.0, 0.002, cost=0.002)
    util = cpu_utilization(tracer, bucket=0.001)
    assert set(util) == {"s0/r0"}
    assert sum(u * 0.001 for _, u in util["s0/r0"]) == pytest.approx(0.002)


def test_instants_only_trace():
    """Instant events (dur=None) never feed span views, only net counts."""
    sim = Simulator()
    tracer = sim.attach_tracer(Tracer())
    tracer.instant("c0", "txn", "abort", txid="ab")
    tracer.instant("s0/r0", "cpu", "preempt")
    tracer.instant("c0", "net", "drop", reason="adversary")
    assert phase_histograms(tracer) == {}
    assert transaction_phases(tracer, "ab") == []
    assert cpu_utilization(tracer) == {}
    timeline = network_timeline(tracer)
    assert timeline == [(0.0, 0, 0, 1)]
