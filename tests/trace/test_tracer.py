"""Tests for the flight recorder core (repro.trace.tracer)."""

import pytest

from repro.sim.loop import Simulator
from repro.trace import TraceEvent, Tracer


def test_simulator_has_no_instruments_by_default():
    assert Simulator().instruments is None


def test_attach_tracer_wires_both_directions():
    sim = Simulator()
    tracer = Tracer()
    assert sim.attach_tracer(tracer) is tracer
    assert sim.instruments.tracer is tracer
    assert tracer.sim is sim
    assert tracer.now() == 0.0


def test_unattached_tracer_has_no_clock():
    with pytest.raises(RuntimeError):
        Tracer().now()


def test_instant_records_sim_time_and_fields():
    sim = Simulator()
    tracer = sim.attach_tracer(Tracer())

    async def main():
        await sim.sleep(0.5)
        tracer.instant("n1", "net", "send", dst="n2", msg="Ping")

    sim.run_until_complete(main())
    (event,) = tracer.events
    assert (event.ts, event.node, event.category, event.name) == (0.5, "n1", "net", "send")
    assert event.dur is None
    assert event.fields == {"dst": "n2", "msg": "Ping"}


def test_complete_records_duration():
    sim = Simulator()
    tracer = sim.attach_tracer(Tracer())
    tracer.complete("c0", "txn", "st1", 1.0, 1.25, txid="ab")
    (event,) = tracer.events
    assert event.ts == 1.0
    assert event.dur == pytest.approx(0.25)
    assert event.fields["txid"] == "ab"


def test_span_measures_simulated_time():
    sim = Simulator()
    tracer = sim.attach_tracer(Tracer())

    async def main():
        with tracer.span("r0", "crypto", "sign", cost=0.1) as span:
            await sim.sleep(0.1)
            span.set("late", True)

    sim.run_until_complete(main())
    (event,) = tracer.events
    assert event.ts == pytest.approx(0.0)
    assert event.dur == pytest.approx(0.1)
    assert event.fields == {"cost": 0.1, "late": True}


def test_bounded_capacity_evicts_oldest():
    sim = Simulator()
    tracer = sim.attach_tracer(Tracer(capacity=3))
    for i in range(5):
        tracer.instant("n", "test", f"e{i}")
    assert len(tracer) == 3
    assert [e.name for e in tracer] == ["e2", "e3", "e4"]
    assert tracer.dropped_events == 2


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_clear_resets_buffer_and_drop_count():
    sim = Simulator()
    tracer = sim.attach_tracer(Tracer(capacity=1))
    tracer.instant("n", "a", "x")
    tracer.instant("n", "a", "y")
    assert tracer.dropped_events == 1
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.dropped_events == 0


def test_trace_event_defaults():
    event = TraceEvent(1.0, "n", "c", "e")
    assert event.dur is None
    assert event.fields == {}
