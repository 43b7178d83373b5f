"""Determinism and zero-overhead guarantees for tracing.

Two load-bearing properties, asserted end-to-end over real benchmark
runs:

* same seed + same config => byte-identical trace exports;
* tracing disabled vs enabled => identical simulated-time results and
  run digest (tracing charges no cost and draws no randomness).
"""

import pytest

from repro.bench.runner import ExperimentRunner
from repro.config import SystemConfig
from repro.core.system import BasilSystem
from repro.trace import Tracer
from repro.trace.export import export_chrome_json
from repro.workloads.ycsb import YCSBWorkload


def run_bench(system_factory, traced: bool):
    system = system_factory()
    workload = YCSBWorkload(num_keys=200, reads=1, writes=1)
    tracer = system.sim.attach_tracer(Tracer()) if traced else None
    runner = ExperimentRunner(
        system, workload, num_clients=3, duration=0.05, warmup=0.02
    )
    result = runner.run()
    return result, tracer, system


def basil():
    return BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=4))


def tapir():
    from repro.baselines.tapir.system import TapirSystem

    return TapirSystem(SystemConfig(f=1, num_shards=1))


@pytest.mark.parametrize("factory", [basil, tapir], ids=["basil", "tapir"])
def test_same_seed_traces_are_byte_identical(factory):
    _, tracer_a, _ = run_bench(factory, traced=True)
    _, tracer_b, _ = run_bench(factory, traced=True)
    assert len(tracer_a) == len(tracer_b)
    assert export_chrome_json(tracer_a) == export_chrome_json(tracer_b)


@pytest.mark.parametrize("factory", [basil, tapir], ids=["basil", "tapir"])
def test_tracing_has_zero_simulated_cost(factory):
    """Enabling tracing must not perturb the simulation at all."""
    traced, tracer, sys_traced = run_bench(factory, traced=True)
    plain, _, sys_plain = run_bench(factory, traced=False)
    assert len(tracer) > 0  # the traced run actually recorded something
    assert traced.commits == plain.commits
    assert traced.aborts == plain.aborts
    assert traced.throughput == plain.throughput
    assert traced.mean_latency == plain.mean_latency
    assert traced.p99_latency == plain.p99_latency
    assert traced.fast_path_rate == plain.fast_path_rate
    # the event schedules themselves are identical, step for step
    assert sys_traced.sim.events_processed == sys_plain.sim.events_processed
    assert sys_traced.sim.now == sys_plain.sim.now
    assert sys_traced.network.digest() == sys_plain.network.digest()


def test_disabled_tracer_records_nothing():
    """A run with nothing attached leaves zero trace state behind."""
    result, tracer, system = run_bench(basil, traced=False)
    assert tracer is None
    assert system.sim.instruments is None
    assert result.commits > 0


def test_trace_covers_all_layers():
    """One traced run records events from every instrumented layer."""
    _, tracer, _ = run_bench(basil, traced=True)
    categories = {e.category for e in tracer}
    assert {"net", "cpu", "crypto", "txn", "replica"} <= categories
    names = {(e.category, e.name) for e in tracer}
    assert ("txn", "execute") in names
    assert ("txn", "st1") in names
    assert ("txn", "writeback") in names
    assert ("replica", "mvtso_check") in names
    assert ("replica", "batch") in names
    assert ("crypto", "sign") in names
    assert ("crypto", "verify") in names
