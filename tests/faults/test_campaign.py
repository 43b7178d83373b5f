"""Campaign runner: scenarios, safety/liveness verdicts, repro bundles."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import LivenessConfig
from repro.faults.campaign import (
    case_spec,
    execute_case,
    replay_bundle,
    run_case,
    summarize,
    sweep,
    sweep_specs,
    write_bundle,
)
from repro.faults.scenarios import SCENARIOS, SMOKE_SCENARIOS, Scale
from repro.faults.spec import FaultSchedule

TINY = Scale(duration=0.04, warmup=0.01, clients=3, keys=100)


def test_scenario_schedules_are_seed_deterministic():
    for name, scenario in SCENARIOS.items():
        a = scenario.schedule(5, TINY)
        b = scenario.schedule(5, TINY)
        assert a.to_json() == b.to_json(), name
        assert FaultSchedule.from_json(a.to_json()) == a, name


def test_smoke_scenarios_are_in_the_matrix():
    assert set(SMOKE_SCENARIOS) <= set(SCENARIOS)


@pytest.mark.parametrize("kind", ["basil", "tapir", "txsmr"])
def test_no_faults_case_passes_everywhere(kind):
    case, _ = run_case(SCENARIOS["no-faults"], kind, 3, TINY)
    assert case.ok, (case.safety_violations, case.liveness_violations)
    assert case.commits > 0
    assert case.digest is not None
    assert case.faults_applied == 0


def test_failing_case_writes_replayable_bundle(tmp_path):
    """Force a liveness failure; its bundle must replay to the same run."""
    scenario = SCENARIOS["partition-minority"]
    schedule = scenario.schedule(2, TINY)
    impossible = LivenessConfig(min_commits=10**9, max_undecided=None)
    spec = case_spec(scenario.name, "basil", 2, schedule, TINY, impossible)
    case = execute_case(
        dataclasses.replace(spec, obs=True, obs_dir=str(tmp_path / "obs")), impossible
    )
    assert not case.ok
    assert any("min" in v for v in case.liveness_violations)
    # the run pipeline wrote the case's telemetry report, under the case's name
    report = json.loads(
        (tmp_path / "obs" / "partition-minority-basil-seed2.obs.json").read_text()
    )
    assert report["name"] == "partition-minority/basil/seed2"
    assert report["trace_digest"] == case.digest
    assert report["bench"]["commits"] == case.commits

    path = write_bundle(case, schedule, TINY, impossible, {}, str(tmp_path))
    bundle = json.loads(open(path).read())
    assert bundle["seed"] == 2
    assert bundle["trace_digest"] == case.digest
    assert FaultSchedule.from_dict(bundle["schedule"]) == schedule

    replayed = replay_bundle(path)
    # deterministic replay: same digest (so no digest-mismatch entry was
    # appended) and the same verdict
    assert replayed.digest == case.digest
    assert replayed.liveness_violations == case.liveness_violations
    assert replayed.safety_violations == case.safety_violations


def test_sweep_runs_matrix_and_reports(tmp_path):
    specs = sweep_specs(
        seeds=1,
        scenario_names=("no-faults", "crash-restart"),
        systems=("basil",),
        scale=TINY,
    )
    results = sweep(
        [dataclasses.replace(spec, trace=False) for spec in specs],
        TINY,
        out_dir=str(tmp_path),
        verbose=False,
    )
    assert len(results) == 2
    assert all(case.ok for case in results)
    assert "2 cases: 2 ok, 0 failed" in summarize(results)


def test_sweep_bundles_a_case_its_child_judged_failing(tmp_path, monkeypatch):
    """The oracles run in the case's child; the parent writes the bundle,
    which replays to the same verdict."""
    impossible = LivenessConfig(min_commits=10**9, max_undecided=None)
    scenario = dataclasses.replace(SCENARIOS["no-faults"], liveness=impossible)
    monkeypatch.setitem(SCENARIOS, "no-faults", scenario)
    specs = sweep_specs(seeds=1, scenario_names=("no-faults",), systems=("basil",), scale=TINY)
    [case] = sweep(specs, TINY, out_dir=str(tmp_path), verbose=False)
    assert not case.ok and case.bundle
    replayed = replay_bundle(case.bundle)
    assert replayed.digest == case.digest
    assert replayed.liveness_violations == case.liveness_violations


def test_cli_list_and_sweep(capsys, tmp_path):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "partition-minority" in out and "byz-clients-stall-early" in out

    code = main([
        "sweep", "faults", "--seeds", "1", "--scenarios", "no-faults",
        "--systems", "basil", "--no-trace", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 ok, 0 failed" in out
