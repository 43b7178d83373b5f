"""Open-loop generator behaviour over a real (small) Basil system."""

from __future__ import annotations

import pytest

from repro.config import AdmissionConfig, ArrivalConfig, SystemConfig
from repro.core.system import BasilSystem
from repro.load.generator import OpenLoopGenerator
from repro.workloads.ycsb import YCSBWorkload


def run_open_loop(
    rate=800.0,
    process="poisson",
    policy=None,
    seed=11,
    duration=0.06,
    warmup=0.02,
    proxies=4,
    tracer=None,
):
    system = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=4, seed=seed))
    if tracer is not None:
        system.sim.attach_tracer(tracer)
    workload = YCSBWorkload(num_keys=400, reads=2, writes=2)
    gen = OpenLoopGenerator(
        system,
        workload,
        ArrivalConfig(process=process, rate=rate),
        admission=policy,
        duration=duration,
        warmup=warmup,
        proxies=proxies,
    )
    return gen, gen.run()


def test_offered_rate_is_metered():
    gen, result = run_open_loop(rate=800.0)
    # ~48 arrivals expected in the 0.06 s window; Poisson noise is wide
    # at this count, so only pin the right order of magnitude.
    assert result.offered_tps == pytest.approx(800.0, rel=0.5)
    assert result.commits > 0
    assert result.goodput_tps == result.throughput
    assert result.shed_count == 0
    assert result.extra["policy"] == "none"


def test_row_includes_open_loop_columns():
    _, result = run_open_loop(rate=800.0)
    assert "offered" in result.row()
    # Closed-loop results keep the original row format.
    from repro.bench.runner import BenchResult

    closed = BenchResult(
        name="x", throughput=1.0, mean_latency=0.0, p99_latency=0.0,
        commit_rate=1.0, fast_path_rate=1.0, commits=1, aborts=0, duration=1.0,
    )
    assert "offered" not in closed.row()


def test_same_seed_reproduces_exactly():
    from repro.trace import Tracer
    from repro.trace.export import export_chrome_json

    tracer_a, tracer_b = Tracer(), Tracer()
    gen_a, result_a = run_open_loop(seed=5, tracer=tracer_a)
    gen_b, result_b = run_open_loop(seed=5, tracer=tracer_b)
    assert result_a.commits == result_b.commits
    assert result_a.offered_tps == result_b.offered_tps
    assert result_a.mean_latency == result_b.mean_latency
    assert gen_a.system.network.digest() == gen_b.system.network.digest()
    assert export_chrome_json(tracer_a) == export_chrome_json(tracer_b)


def test_different_seeds_differ():
    _, result_a = run_open_loop(seed=5)
    _, result_b = run_open_loop(seed=6)
    assert (
        result_a.commits != result_b.commits
        or result_a.mean_latency != result_b.mean_latency
    )


def test_static_cap_bounds_in_flight_and_accounts_shed():
    policy = AdmissionConfig(policy="static-cap", cap=2, mode="shed")
    gen, result = run_open_loop(rate=2_000.0, policy=policy)
    assert result.shed_count > 0
    # offered splits exactly into admitted + shed when nothing is parked.
    assert (
        gen.monitor.counter("offered").value
        == gen.monitor.counter("admitted").value + result.shed_count
    )
    # The policy never shed while under its cap.
    assert gen.policy.min_in_flight_at_shed >= 2


def test_delay_mode_parks_and_admits_later():
    policy = AdmissionConfig(
        policy="static-cap", cap=2, mode="delay",
        retry_delay=0.001, max_queue_delay=0.02,
    )
    gen, result = run_open_loop(rate=2_000.0, policy=policy)
    assert gen.policy.stats["delayed"] > 0
    assert result.commits > 0


def test_generator_traces_load_category():
    from repro.trace import Tracer

    policy = AdmissionConfig(policy="static-cap", cap=2, mode="shed")
    tracer = Tracer()
    gen, _ = run_open_loop(rate=2_000.0, policy=policy, tracer=tracer)
    names = {(e.category, e.name) for e in tracer.events}
    assert ("load", "inflight") in names
    assert ("load", "shed") in names


def test_bursty_process_runs_open_loop():
    _, result = run_open_loop(rate=1_000.0, process="bursty")
    assert result.commits > 0
    assert result.offered_tps > 0


def test_spec_with_arrivals_matches_hand_built_generator():
    """The run pipeline's open-loop path is this generator, wired the
    same way: same digest, same bench row (but the run's name)."""
    import dataclasses

    from repro.run import ModelSpec, SequentialRun

    policy = AdmissionConfig(policy="static-cap", cap=2, mode="shed")
    gen, want = run_open_loop(rate=2_000.0, policy=policy)
    spec = ModelSpec(
        kind="basil",
        config=SystemConfig(f=1, num_shards=1, batch_size=4, seed=11),
        workload="ycsb-t",
        workload_keys=400,
        num_clients=4,  # the proxy pool
        duration=0.06,
        warmup=0.02,
        arrivals=ArrivalConfig(process="poisson", rate=2_000.0),
        admission=policy,
    )
    result = SequentialRun(spec).run()
    assert result.digest == gen.system.network.digest()
    row = dataclasses.asdict(want)
    assert want.shed_count > 0
    assert {**result.bench, "name": row["name"]} == row
