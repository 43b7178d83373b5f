"""Tests for the Chrome trace_event export (repro.trace.export)."""

import json

from repro.sim.loop import Simulator
from repro.trace import Tracer
from repro.trace.export import (
    chrome_trace_events,
    export_chrome_json,
    validate_chrome_trace,
    write_chrome_trace,
)


def make_tracer() -> Tracer:
    sim = Simulator()
    tracer = sim.attach_tracer(Tracer())
    tracer.instant("client-0", "net", "send", dst="r0", msg="Ping", delay=75e-6)
    tracer.complete("r0", "crypto", "verify", 0.001, 0.002, cost=0.001)
    tracer.complete("client-0", "txn", "st1", 0.0, 0.003, txid="ab12")
    return tracer


def test_export_is_valid_trace_event_json():
    payload = export_chrome_json(make_tracer())
    document = json.loads(payload)
    assert validate_chrome_trace(document) == []
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"]["droppedEvents"] == 0


def test_events_map_to_expected_phases():
    events = chrome_trace_events(make_tracer())
    by_ph = {}
    for event in events:
        by_ph.setdefault(event["ph"], []).append(event)
    # two nodes -> two thread_name metadata events
    assert len(by_ph["M"]) == 2
    assert {e["args"]["name"] for e in by_ph["M"]} == {"client-0", "r0"}
    (instant,) = by_ph["i"]
    assert instant["name"] == "net.send"
    assert instant["s"] == "t"
    assert instant["ts"] == 0.0
    xs = {e["name"]: e for e in by_ph["X"]}
    assert xs["crypto.verify"]["dur"] == 1000.0  # 1ms in µs
    assert xs["txn.st1"]["args"]["txid"] == "ab12"


def test_thread_ids_follow_first_appearance():
    events = chrome_trace_events(make_tracer())
    tids = {e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"}
    assert tids == {"client-0": 1, "r0": 2}


def test_export_is_canonical_and_digest_stable():
    a, b = make_tracer(), make_tracer()
    assert export_chrome_json(a) == export_chrome_json(b)
    # any recorded difference changes the export
    b.instant("client-0", "net", "send", dst="r1", msg="Ping")
    assert export_chrome_json(a) != export_chrome_json(b)


def test_write_chrome_trace_round_trips(tmp_path):
    tracer = make_tracer()
    path = tmp_path / "out.trace.json"
    write_chrome_trace(tracer, str(path))
    assert path.read_text() == export_chrome_json(tracer)
    document = json.loads(path.read_text())
    assert validate_chrome_trace(document) == []


def test_validator_rejects_malformed_documents():
    assert validate_chrome_trace([]) == ["top level must be a JSON object"]
    assert validate_chrome_trace({}) == ["traceEvents must be a list"]
    bad = {
        "traceEvents": [
            {"ph": "Q", "pid": 1, "tid": 1, "name": "x"},
            {"ph": "X", "pid": 1, "tid": 1, "name": "x", "ts": -1.0, "dur": 1.0},
            {"ph": "X", "pid": 1, "tid": 1, "name": "x", "ts": 0.0},
            {"ph": "i", "pid": 1, "tid": 1, "name": "x", "ts": 0.0},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name", "args": {}},
            {"ph": "i", "pid": "one", "tid": 1, "name": "", "ts": 0.0, "s": "t"},
        ]
    }
    problems = validate_chrome_trace(bad)
    assert len(problems) == 6 + 1  # last event has two problems (name + pid)
    assert any("unknown phase" in p for p in problems)
    assert any("non-negative" in p for p in problems)
    assert any("needs non-negative dur" in p for p in problems)
    assert any("scope" in p for p in problems)
    assert any("args.name" in p for p in problems)


def test_dropped_events_surface_in_export():
    sim = Simulator()
    tracer = sim.attach_tracer(Tracer(capacity=2))
    for i in range(5):
        tracer.instant("n", "test", f"e{i}")
    document = json.loads(export_chrome_json(tracer))
    assert document["otherData"]["droppedEvents"] == 3
    assert validate_chrome_trace(document) == []
