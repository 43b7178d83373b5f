"""Chrome ``trace_event`` export: what a traced run writes.

The exported JSON follows the Trace Event Format's JSON-object flavor:
``{"traceEvents": [...], "displayTimeUnit": "ms"}`` with one process
(the simulation) and one thread per simulated node.  Spans become ``X``
(complete) events, instantaneous events become ``i`` events, and thread
names are declared with ``M`` (metadata) events — loadable directly into
``chrome://tracing`` or https://ui.perfetto.dev.

Exports are canonical (sorted keys, fixed separators, deterministic tid
assignment), so two exports of equal runs compare equal byte for byte.
The trace is an export only: a run's digest is its network's delivery
fingerprint (:meth:`repro.sim.network.Network.digest`), traced or not.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.trace.tracer import TraceEvent, Tracer

#: Event phases the exporter emits (subset of the trace_event spec).
_PHASES = {"X", "i", "M"}


def _thread_ids(events: Iterable[TraceEvent]) -> dict[str, int]:
    """Deterministic node -> tid map (first-appearance order, from 1)."""
    tids: dict[str, int] = {}
    for event in events:
        if event.node not in tids:
            tids[event.node] = len(tids) + 1
    return tids


def chrome_trace_events(tracer: Tracer) -> list[dict[str, Any]]:
    """Convert recorded events into trace_event dicts (µs timestamps)."""
    events = tracer.events
    tids = _thread_ids(events)
    out: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": node or "(unnamed)"},
        }
        for node, tid in tids.items()
    ]
    for event in events:
        entry: dict[str, Any] = {
            "pid": 1,
            "tid": tids[event.node],
            "name": f"{event.category}.{event.name}",
            "cat": event.category,
            "ts": event.ts * 1e6,
            "args": event.fields,
        }
        if event.dur is None:
            entry["ph"] = "i"
            entry["s"] = "t"  # instant scope: thread
        else:
            entry["ph"] = "X"
            entry["dur"] = event.dur * 1e6
        out.append(entry)
    return out


def export_chrome_json(tracer: Tracer) -> str:
    """Canonical JSON export (sorted keys, no whitespace variance)."""
    document = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"droppedEvents": tracer.dropped_events},
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Write the canonical export to ``path``."""
    with open(path, "w") as fh:
        fh.write(export_chrome_json(tracer))


# ---------------------------------------------------------------------------
# Schema validation (used by the trace-smoke test; no external deps)
# ---------------------------------------------------------------------------
def validate_chrome_trace(document: Any) -> list[str]:
    """Validate a parsed export against the trace_event JSON-object form.

    Returns a list of human-readable problems (empty ⇔ valid).  Checks
    the subset of the spec this exporter uses, strictly enough that a
    malformed exporter cannot pass: required keys, phase-specific keys,
    and type/sign constraints on timestamps and durations.
    """
    problems: list[str] = []
    if not isinstance(document, dict):
        return ["top level must be a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing/empty name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: pid must be an int")
        if not isinstance(event.get("tid"), int):
            problems.append(f"{where}: tid must be an int")
        if ph == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                problems.append(f"{where}: metadata event needs args.name")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if not isinstance(event.get("args", {}), dict):
            problems.append(f"{where}: args must be an object")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs non-negative dur")
        elif ph == "i":
            if event.get("s") not in ("g", "p", "t"):
                problems.append(f"{where}: instant event needs scope s in g/p/t")
    return problems
