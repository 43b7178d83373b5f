"""End-to-end: ObsRecorder over real Basil/baseline benchmark runs."""

import pytest

from repro.bench.runner import ExperimentRunner
from repro.config import SystemConfig
from repro.core.system import BasilSystem
from repro.obs.recorder import ObsRecorder
from repro.obs.report import load_report, write_report
from repro.workloads.ycsb import YCSBWorkload


def small_run(recorder=None, seed=7):
    system = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=4, seed=seed))
    workload = YCSBWorkload(num_keys=300, reads=2, writes=2, distribution="zipfian")
    runner = ExperimentRunner(
        system, workload, num_clients=4, duration=0.05, warmup=0.02,
        name="obs-test", recorder=recorder,
    )
    return runner.run(), system


def test_recorder_produces_protocol_series_and_report(tmp_path):
    recorder = ObsRecorder(interval=0.005)
    bench, system = small_run(recorder)
    report = recorder.finish("obs-test", bench=bench)

    keys = {s["name"] for s in report.series}
    # instrumented protocol signals all sampled
    assert "basil_txn_commits_total" in keys
    assert "basil_mvtso_checks_total" in keys
    assert "basil_batches_flushed_total" in keys
    assert "net_sends_total" in keys
    # probed node state
    assert "cpu_queue_depth" in keys
    assert "basil_dependency_wait_depth" in keys
    assert "store_committed_versions" in keys

    # the sampled commit counter agrees with the monitor at run end
    commit_series = [
        s for s in report.series if s["name"] == "basil_txn_commits_total"
    ][0]
    assert commit_series["points"][-1][1] >= bench.commits

    assert report.health == "ok"  # fault-free quick run stays green
    assert report.seed == 7
    assert report.config_digest
    assert report.bench["commits"] == bench.commits

    path = str(tmp_path / "report.json")
    write_report(path, report)
    assert load_report(path).name == "obs-test"


def test_recorder_is_deterministic_across_runs():
    """Same seed + recorder -> identical sampled series."""

    def go():
        recorder = ObsRecorder(interval=0.005)
        bench, _ = small_run(recorder)
        return recorder.finish("det", bench=bench)

    a, b = go(), go()
    assert a.series == b.series
    assert a.histograms == b.histograms
    assert a.bench == b.bench
    assert a.verdicts == b.verdicts


def test_unrecorded_run_matches_pre_obs_behavior():
    """No recorder -> no registered metrics, same bench numbers as ever."""
    bench_plain, system = small_run(recorder=None)
    assert system.sim.instruments is None
    recorder = ObsRecorder(interval=0.005)
    bench_obs, _ = small_run(recorder)
    assert bench_obs.commits == bench_plain.commits
    assert bench_obs.aborts == bench_plain.aborts
    assert bench_obs.throughput == pytest.approx(bench_plain.throughput)


def test_abort_reasons_surface_in_bench_extra():
    """Satellite: the MVTSO abort taxonomy rides in BenchResult.extra."""
    bench, system = small_run(recorder=None)
    # zipfian contention at 4 clients aborts at least a few prepares
    assert bench.aborts > 0
    reasons = bench.extra.get("abort_reasons")
    assert reasons, "expected replica-side abort reasons without telemetry"
    assert all(isinstance(v, int) and v > 0 for v in reasons.values())
    taxonomy = bench.extra["abort_taxonomy"]
    assert set(taxonomy) <= {
        "stale-read", "prepare-conflict", "dep-abort", "misbehavior", "other"
    }
    assert sum(taxonomy.values()) == sum(reasons.values())
    # the paper-style table row is unchanged by the new extra keys
    import dataclasses

    assert bench.row() == dataclasses.replace(bench, extra={}).row()


def test_recorder_works_on_baselines():
    """TAPIR has no Basil-specific signals but still gets node telemetry."""
    from repro.baselines.tapir.system import TapirSystem

    system = TapirSystem(SystemConfig(f=1, num_shards=1, seed=7))
    workload = YCSBWorkload(num_keys=300, reads=2, writes=2)
    recorder = ObsRecorder(interval=0.005)
    runner = ExperimentRunner(
        system, workload, num_clients=4, duration=0.05, warmup=0.02,
        name="tapir-obs", recorder=recorder,
    )
    bench = runner.run()
    report = recorder.finish("tapir-obs", bench=bench)
    keys = {s["name"] for s in report.series}
    assert "cpu_queue_depth" in keys
    assert "net_sends_total" in keys
    assert "basil_dependency_wait_depth" not in keys
    assert report.health == "ok"


def test_recorded_profiled_run_carries_the_attribution_section():
    """A recorded run with the wall-clock profiler on carries its
    attribution as the report's ``prof`` section, from which compare
    takes the top-3 shares; without the profiler there is no section."""
    from repro.obs.report import RunReport
    from repro.prof.profiler import top_shares
    from repro.run import ModelSpec, SequentialRun

    spec = ModelSpec(
        kind="basil", config=SystemConfig(f=1, num_shards=1, batch_size=4, seed=7),
        workload_keys=300, num_clients=4, duration=0.05, warmup=0.02,
        label="obs-prof", obs=True, obs_interval=0.01, prof=True,
    )
    result = SequentialRun(spec).run()
    report = RunReport.from_dict(result.report)
    assert report.series and report.prof.subsystems == result.extra["prof"]
    top = top_shares(report.prof.subsystems, 3)
    assert len(top) == 3
    assert all(0.0 < row["share"] <= 1.0 for row in top)
    assert "prof" not in report.meta

    # No profiler -> no prof section.
    recorder2 = ObsRecorder(interval=0.01)
    bench2, _ = small_run(recorder2, seed=8)
    report2 = recorder2.finish("obs-plain", bench=bench2)
    assert report2.prof is None and "prof" not in report2.to_dict()
