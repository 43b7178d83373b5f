"""Structural guard: instrumentation reaches the simulation through one seam.

Every trace event, metric and profiler frame a run records is written in
``repro.sim.instruments`` and reached through ``sim.instruments``.  Outside
that module, the kernel (``sim/loop.py``), the run pipeline (``run.py``)
and the sink packages themselves (``trace/``, ``obs/``, ``prof/``), no
module of ``repro`` may touch a sink directly: no ``.tracer``,
``.metrics`` or ``.profiler`` attribute, no tracer ``instant`` /
``complete`` / ``span`` call and no registry ``counter`` / ``gauge`` /
``histogram`` call.  (A runner's own ``Monitor`` is not an instrument:
calls on a receiver named ``monitor`` stay allowed.)  Nowhere may an
``enabled`` flag of an instrument be read: a site tests
``sim.instruments is None`` and nothing else.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
EXEMPT = ("sim/instruments.py", "sim/loop.py", "run.py", "trace/", "obs/", "prof/")
SINK_ATTRS = {"tracer", "metrics", "profiler"}
TRACER_CALLS = {"instant", "complete", "span"}
REGISTRY_CALLS = {"counter", "gauge", "histogram"}
INSTRUMENT_WORDS = ("tracer", "metrics", "profiler", "registry", "instruments")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.parse(path.read_text(), filename=rel)


def _violations(rel: str, tree: ast.AST) -> list[str]:
    exempt = rel.startswith(EXEMPT)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            receiver = ast.unparse(node.value)
            if node.attr == "enabled" and any(w in receiver.lower() for w in INSTRUMENT_WORDS):
                found.append(f"{rel}:{node.lineno} reads {receiver}.enabled")
            if not exempt and node.attr in SINK_ATTRS:
                found.append(f"{rel}:{node.lineno} touches {receiver}.{node.attr}")
        if exempt or not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        receiver = ast.unparse(func.value)
        if func.attr in TRACER_CALLS:
            found.append(f"{rel}:{node.lineno} calls {receiver}.{func.attr}()")
        elif func.attr in REGISTRY_CALLS:
            own_monitor = rel == "sim/monitor.py" and receiver == "self"
            if not (own_monitor or receiver.endswith("monitor")):
                found.append(f"{rel}:{node.lineno} calls {receiver}.{func.attr}()")
    return found


def test_only_the_seam_touches_instruments():
    problems = [v for rel, tree in _modules() for v in _violations(rel, tree)]
    assert problems == []


def test_no_null_sinks_remain():
    sinks = ("Tracer", "Metrics", "Profiler")
    names = [f"NULL_{sink.upper()}" for sink in sinks] + [f"Null{sink}" for sink in sinks]
    problems = [
        f"{rel} mentions {name}"
        for rel, tree in _modules()
        for node in ast.walk(tree)
        for name in names
        if isinstance(node, (ast.Name, ast.alias, ast.ClassDef))
        and name in (getattr(node, "id", None), getattr(node, "name", None))
    ]
    assert problems == []


def test_the_guard_sees_a_direct_sink_call():
    """The checker itself: each forbidden shape is reported."""
    tree = ast.parse(
        "sim.tracer.instant('n', 'c', 'e')\n"
        "if registry.enabled:\n"
        "    sim.metrics.counter('x').add()\n"
        "runner.monitor.counter('commits')\n"
    )
    found = _violations("core/example.py", tree)
    assert len(found) == 5  # .tracer, .instant(), .enabled, .metrics, .counter()
    assert not any("monitor" in v for v in found)
    assert _violations("trace/example.py", tree) == [
        "trace/example.py:2 reads registry.enabled"
    ]
