"""A profiled run's report: its attribution section, coverage, artifacts, CLI."""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.obs.report import RunReport, load_report, write_report
from repro.prof.deep import top_functions
from repro.prof.profiler import top_shares
from repro.run import ModelSpec, SequentialRun


def _tiny_spec(**overrides) -> ModelSpec:
    base = dict(
        kind="basil",
        config=SystemConfig(f=1, num_shards=2, seed=2024),
        workload="ycsb-t",
        workload_keys=300,
        num_clients=4,
        duration=0.02,
        warmup=0.005,
        label="prof-tiny",
        prof=True,
    )
    base.update(overrides)
    return ModelSpec(**base)


def _profiled_report(**overrides) -> RunReport:
    return RunReport.from_dict(SequentialRun(_tiny_spec(**overrides)).run().report)


def test_profile_run_sequential_report():
    report = _profiled_report()
    prof = report.prof
    assert report.name == "prof-tiny"
    assert prof.workers == 1
    assert prof.events > 0
    assert prof.subsystems, "empty attribution table"
    assert "task.step" in prof.subsystems
    # Frames bracket nearly everything the loop does; a generous floor
    # keeps this robust on loaded CI hosts.
    assert prof.coverage > 0.6
    assert prof.collapsed is None
    top = top_shares(prof.subsystems, 3)
    assert len(top) == 3
    assert top[0]["wall_s"] >= top[1]["wall_s"] >= top[2]["wall_s"]
    assert "attributed" in prof.render()


def test_unprofiled_run_report_has_no_prof_section():
    result = SequentialRun(_tiny_spec(prof=False, obs=True)).run()
    assert "prof" not in result.report
    assert SequentialRun(_tiny_spec(prof=False)).run().report is None


@pytest.mark.prof_smoke
def test_profile_run_workers2_merges_partition_and_worker_tables():
    from repro.parallel.runtime import ParallelRunner
    from repro.prof.runners import merge_result

    result = ParallelRunner(_tiny_spec(), 2).run()
    prof = merge_result("prof-tiny", result)
    assert prof.workers == 2
    # Partition tables (one per partition) are what it merged…
    assert sum(1 for part in result.per_partition.values() if part.get("prof")) >= 2
    # …and the merged table carries both sim frames and exchange seams.
    assert "task.step" in prof.subsystems
    assert "exchange.wait" in prof.subsystems
    assert "exchange.pipe" in prof.subsystems
    assert prof.coverage > 0.6


def test_profile_run_deep_collects_collapsed_stacks():
    prof = _profiled_report(prof_deep=True).prof
    assert prof.collapsed, "deep mode produced no stacks"
    hot = top_functions(prof.collapsed, 5)
    assert hot and all(row["self_s"] >= 0.0 for row in hot)
    assert "hot functions" in prof.render()


def test_profile_report_round_trips_json(tmp_path):
    report = _profiled_report()
    path = tmp_path / "p.json"
    write_report(str(path), report)
    back = load_report(str(path))
    assert back.name == report.name
    assert back.prof.subsystems == report.prof.subsystems
    assert back.prof.coverage == pytest.approx(report.prof.coverage)
    assert back.to_dict() == report.to_dict()
    # coverage is written for readers of the JSON alone.
    raw = json.loads(path.read_text())
    assert raw["prof"]["coverage"] == pytest.approx(report.prof.coverage)


def test_profile_report_rejects_foreign_schema():
    with pytest.raises(ValueError):
        RunReport.from_dict({"schema": "something/else"})


def test_cli_run_prof(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    args = ["run", "--num-shards", "2", "--num-clients", "4", "--workload-keys", "300",
            "--duration", "0.02", "--warmup", "0.005", "--prof"]
    assert main([*args, "--deep"]) == 0
    out = capsys.readouterr().out
    assert "attributed" in out and "flamegraph -> PROF_basil.flame.html" in out
    report = load_report("PROF_basil.json")
    assert report.name == "basil" and report.prof.collapsed
    assert (tmp_path / "PROF_basil.collapsed.txt").exists()
    # the coverage gate: no run attributes twice its wall time
    assert main([*args, "--min-coverage", "2"]) == 1
    assert "below --min-coverage" in capsys.readouterr().err
    # the file is a RunReport: compare reads it like any other
    assert main(["compare", "PROF_basil.json", "PROF_basil.json"]) == 0
