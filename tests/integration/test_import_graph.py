"""A run imports only the subsystems it runs.

Every benchmark run, figure point and CLI call is a fresh interpreter,
so each module a run loads without calling is paid for in its start-up
time and resident memory.  Each case here builds a run in a fresh
``python -c`` process and lists the modules it must not have loaded.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(ROOT, "src")

_REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"

_BASIL = """
from repro.config import SystemConfig
from repro.run import ModelSpec, SequentialRun

SequentialRun(ModelSpec(
    kind="basil", config=SystemConfig(f=1, seed=3), workload="ycsb-t",
    workload_keys=200, num_clients=2, duration=0.002, warmup=0.001,
    trace=False,
)).start()
"""

_GEO_EDGE = """
from repro.config import SystemConfig
from repro.geo.plan import GeoSpec
from repro.geo.topology import wan3
from repro.run import ModelSpec, SequentialRun

SequentialRun(ModelSpec(
    kind="basil", config=SystemConfig(f=1, num_shards=1, seed=3),
    geo=GeoSpec(topology=wan3(), mode="edge", users_per_region=2, keys=16),
    duration=0.5, warmup=0.1, trace=False,
)).start()
"""

#: ``python -m repro run`` (and ``run --prof``) at their default worker
#: count, from a scratch directory so the profile files land there.
_CLI_RUN = """
import contextlib, io, os, tempfile
from repro.__main__ import main

os.chdir(tempfile.mkdtemp())
with contextlib.redirect_stdout(io.StringIO()):
    for extra in ([], ["--prof"]):
        assert main(["run", "--duration", "0.002", "--warmup", "0.001",
                     "--num-clients", "2", "--workload-keys", "200", *extra]) == 0
"""

#: The benchmark's child process and the spans its traced pass installs.
_BENCH_CHILD = """
import basilbench.child
import basilbench.spans
"""

#: A traced benchmark child: spans installed, then each protocol
#: workload started and run briefly; prints, per workload, the names of
#: the spans its run recorded.
_BENCH_TRACED = """
import json
from basilbench import spans, workloads
from repro.parallel.models import SequentialRun

spans.install()
names = {}
for name in ("basil-ycsb-sig", "basil-zipf-byz", "geo-wan3-edge"):
    spec, _ = workloads.protocol_spec(name, seed=3, scale=0.05, traced=True)
    run = SequentialRun(spec)
    run.start()
    run.sim.run(until=spec.warmup)
    names[name] = sorted({span[0] for span in spans.SPANS})
    spans.SPANS.clear()
print(json.dumps(names))
"""


def _run(snippet: str):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def _modules_after(snippet: str) -> list[str]:
    return _run(snippet + _REPORT)


def _loaded(modules: list[str], *prefixes: str) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_sequential_basil_run_loads_no_other_subsystem():
    modules = _modules_after(_BASIL)
    assert _loaded(
        modules,
        "multiprocessing",
        "repro.obs",
        "repro.geo",
        "repro.load",
        "repro.faults",
        "repro.verify",
        "repro.workloads.tpcc",
        "repro.baselines",
        "repro.trace",
    ) == []
    assert "repro.workloads.ycsb" in modules


def test_geo_edge_run_loads_only_the_health_telemetry():
    modules = _modules_after(_GEO_EDGE)
    assert "repro.geo.edge" in modules
    obs = [m for m in _loaded(modules, "repro.obs") if m != "repro.obs"]
    assert obs == ["repro.obs.health", "repro.obs.ticker"]
    assert _loaded(modules, "multiprocessing", "repro.trace") == []


def test_cli_run_and_profile_load_no_parallel_module():
    # One worker is a SequentialRun: neither the windowed kernel nor
    # multiprocessing is imported for it.
    modules = _modules_after(_CLI_RUN)
    assert "repro.prof.profiler" in modules  # the --prof run did run
    assert _loaded(modules, "repro.parallel", "multiprocessing") == []


def test_cli_run_without_trace_loads_no_tracer():
    # The run digest is the network's delivery fingerprint: a run traces
    # (and imports the tracer) only when --trace DIR asks for the export.
    assert _loaded(_modules_after(_CLI_RUN), "repro.trace") == []


def test_benchmark_child_imports_no_workers_edge_or_telemetry():
    modules = _modules_after(_BENCH_CHILD)
    assert _loaded(modules, "multiprocessing", "repro.geo.edge", "repro.obs") == []


def test_runs_and_benchmark_child_load_no_openssl():
    # Every digest is CPython's built-in SHA-256 (repro.crypto.digest):
    # hashlib would map OpenSSL's libcrypto through _hashlib.
    for snippet in (_BASIL, _GEO_EDGE, _BENCH_CHILD):
        assert _loaded(_modules_after(snippet), "_hashlib", "hashlib") == []


def test_traced_benchmark_child_times_the_workloads_it_runs():
    # The traced pass wraps the Workload subclasses loaded when it
    # installs; a workload imported later would run unwrapped and its
    # time would fall into the task-step bucket.
    for name, spans in _run(_BENCH_TRACED).items():
        assert "workloads.next_txn" in spans, name
