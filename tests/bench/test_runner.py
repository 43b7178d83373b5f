"""Tests for the benchmark harness itself."""

import pytest

from repro.bench.runner import ExperimentRunner
from repro.config import SystemConfig
from repro.core.system import BasilSystem
from repro.run import ModelSpec, SequentialRun
from repro.verify.history import HistoryChecker
from repro.workloads.ycsb import YCSBWorkload


def make_runner(**kwargs):
    defaults = dict(num_clients=4, duration=0.1, warmup=0.05)
    defaults.update(kwargs)
    system = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=4))
    wl = YCSBWorkload(num_keys=500, reads=1, writes=1)
    return system, ExperimentRunner(system, wl, **defaults)


def test_runner_produces_consistent_result():
    system, runner = make_runner()
    result = runner.run()
    assert result.commits > 0
    assert result.throughput == pytest.approx(result.commits / result.duration)
    assert 0 <= result.commit_rate <= 1
    assert 0 <= result.fast_path_rate <= 1
    assert result.mean_latency > 0
    assert result.p99_latency >= result.mean_latency * 0.5


def test_runner_excludes_warmup_and_cooldown():
    system, runner = make_runner(duration=0.1, warmup=0.05)
    runner.run()
    # latency samples only from within the measurement window
    hist = runner.monitor.histogram("commit_latency")
    assert hist.count == runner.monitor.counter("commits").value


def test_runner_stops_at_end_time():
    system, runner = make_runner(duration=0.05, warmup=0.02)
    runner.run()
    # two cool-down margins beyond the window
    assert system.sim.now == pytest.approx(0.05 + 2 * 0.02)


def test_runner_row_renders():
    _, runner = make_runner()
    result = runner.run()
    row = result.row()
    assert "tx/s" in row and "commit" in row


def test_runner_deterministic_given_seed():
    def once():
        _, runner = make_runner()
        result = runner.run()
        return (result.commits, result.aborts, result.mean_latency)

    assert once() == once()


def test_tagged_transactions_counted():
    system = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=4))
    wl = YCSBWorkload(num_keys=500, reads=1, writes=1)
    runner = ExperimentRunner(system, wl, num_clients=2, duration=0.1, warmup=0.02)
    result = runner.run()
    named = runner.monitor.counter("commits", txn="ycsb-u").value
    assert named == result.commits
    # The client-group label is counted alongside, not instead.
    assert runner.monitor.counter("commits", tag="correct").value == result.commits


def test_runner_history_verification_clean():
    spec = ModelSpec(
        kind="basil", config=SystemConfig(f=1, num_shards=1, batch_size=4),
        workload="ycsb-t", workload_keys=500,
        workload_kwargs=(("reads", 1), ("writes", 1)),
        num_clients=4, duration=0.1, warmup=0.03, trace=False, drain=0.2,
    )
    run = SequentialRun(spec)
    result = run.run()
    HistoryChecker(run.system).assert_ok()
    assert result.bench["commits"] > 0


def test_cli_smoke():
    import pytest as _pytest

    from repro.__main__ import main

    with _pytest.raises(SystemExit):
        main(["sweep"])  # missing grid
    with _pytest.raises(SystemExit):
        main(["sweep", "figures", "not-a-figure"])
