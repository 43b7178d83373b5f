"""End-to-end profile_run: merged reports, coverage, artifacts, CLI."""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.prof.report import ProfileReport, load_profile, write_profile
from repro.prof.runners import profile_run
from repro.run import ModelSpec


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
    )
    base.update(overrides)
    return ModelSpec(**base)


def test_profile_run_sequential_report():
    report = profile_run(_tiny_spec(), workers=1)
    assert report.name == "prof-tiny"
    assert report.workers == 1
    assert report.events > 0
    assert report.subsystems, "empty attribution table"
    assert "task.step" in report.subsystems
    # Frames bracket nearly everything the loop does; a generous floor
    # keeps this robust on loaded CI hosts.
    assert report.coverage > 0.6
    assert report.collapsed is None
    top = report.top(3)
    assert len(top) == 3
    assert top[0]["wall_s"] >= top[1]["wall_s"] >= top[2]["wall_s"]
    text = report.render()
    assert "prof-tiny" in text and "attributed" in text


def test_profile_run_does_not_mutate_caller_spec():
    spec = _tiny_spec()
    profile_run(spec, workers=1)
    assert spec.prof is False and spec.prof_deep is False


@pytest.mark.prof_smoke
def test_profile_run_workers2_merges_partition_and_worker_tables():
    report = profile_run(_tiny_spec(), workers=2)
    assert report.workers == 2
    # Partition tables (one per partition) made it into the drill-down…
    assert len(report.per_partition) >= 2
    # …and the merged table carries both sim frames and exchange seams.
    assert "task.step" in report.subsystems
    assert "exchange.wait" in report.subsystems
    assert "exchange.pipe" in report.subsystems
    assert report.coverage > 0.6


def test_profile_run_deep_collects_collapsed_stacks():
    report = profile_run(_tiny_spec(), workers=1, deep=True)
    assert report.collapsed, "deep mode produced no stacks"
    hot = report.hot_functions(5)
    assert hot and all(row["self_s"] >= 0.0 for row in hot)
    assert "hot functions" in report.render()


def test_profile_report_round_trips_json(tmp_path):
    report = profile_run(_tiny_spec(), workers=1)
    path = tmp_path / "p.json"
    write_profile(str(path), report)
    back = load_profile(str(path))
    assert back.name == report.name
    assert back.subsystems == report.subsystems
    assert back.coverage == pytest.approx(report.coverage)
    # top-3 summary is denormalized into the JSON for cheap consumers.
    raw = json.loads(path.read_text())
    assert len(raw["top"]) == 3


def test_profile_report_rejects_foreign_schema():
    with pytest.raises(ValueError):
        ProfileReport.from_dict({"schema": "something/else"})


def test_cli_run_prof(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    args = ["run", "--num-shards", "2", "--num-clients", "4", "--workload-keys", "300",
            "--duration", "0.02", "--warmup", "0.005", "--prof"]
    assert main([*args, "--deep"]) == 0
    out = capsys.readouterr().out
    assert "attributed" in out and "flamegraph -> PROF_basil.flame.html" in out
    report = load_profile("PROF_basil.json")
    assert report.name == "basil" and report.collapsed
    assert (tmp_path / "PROF_basil.collapsed.txt").exists()
    # the coverage gate: no run attributes twice its wall time
    assert main([*args, "--min-coverage", "2"]) == 1
    assert "below --min-coverage" in capsys.readouterr().err
