"""Marker-based trace smoke test (``make trace-smoke``).

Runs a small YCSB-T benchmark with tracing enabled, exports the Chrome
``trace_event`` JSON, and validates the file against the schema — the
end-to-end path a user exercises with ``python -m repro sweep figures ... --trace DIR``.
"""

import json

import pytest

from repro.bench.runner import ExperimentRunner
from repro.config import SystemConfig
from repro.core.system import BasilSystem
from repro.trace import Tracer
from repro.trace.export import validate_chrome_trace, write_chrome_trace
from repro.workloads.ycsb import YCSBWorkload


@pytest.mark.trace_smoke
def test_traced_ycsb_bench_exports_valid_chrome_trace(tmp_path):
    system = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=4))
    workload = YCSBWorkload(num_keys=300, reads=2, writes=1)
    tracer = system.sim.attach_tracer(Tracer())
    result = ExperimentRunner(
        system, workload, num_clients=4, duration=0.1, warmup=0.05
    ).run()

    assert result.commits > 0, "smoke bench should commit transactions"
    assert len(tracer) > 0

    path = tmp_path / "ycsb-t.trace.json"
    digest = write_chrome_trace(tracer, str(path))
    assert len(digest) == 64  # sha256 hex

    document = json.loads(path.read_text())
    problems = validate_chrome_trace(document)
    assert problems == [], f"schema violations: {problems[:5]}"
    # the export contains real spans from the run, not just metadata
    phases = {e["ph"] for e in document["traceEvents"]}
    assert {"M", "X", "i"} <= phases


@pytest.mark.trace_smoke
def test_bench_cli_trace_flag(tmp_path, capsys):
    """`python -m repro sweep figures fig6a --trace DIR` writes trace files."""
    from repro.__main__ import main

    trace_dir = tmp_path / "traces"
    assert main(["sweep", "figures", "fig6a", "--scale", "quick",
                 "--trace", str(trace_dir)]) == 0
    out = capsys.readouterr().out
    assert "phase breakdown" in out or "trace:" in out
    written = list(trace_dir.glob("*.trace.json"))
    assert written, "expected at least one exported trace file"
    for path in written:
        assert validate_chrome_trace(json.loads(path.read_text())) == []
