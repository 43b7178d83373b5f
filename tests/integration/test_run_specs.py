"""``repro.run.run_specs``: one forked child per spec, results in spec order.

Every sweep runs its points through it, so a point's digest, event
count, bench row and fault counters must not depend on which process
ran it: each must equal the in-process ``SequentialRun(spec).run()``.
A child that fails must fail the sweep, promptly and by name.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.config import ArrivalConfig, SystemConfig
from repro.errors import SimulationError
from repro.faults.spec import CrashFault, FaultSchedule
from repro.geo.plan import GeoSpec
from repro.geo.topology import wan3
from repro.run import ModelSpec, SequentialRun, run_specs

SMALL = dict(workload_keys=200, num_clients=4, duration=0.02, warmup=0.005)


@pytest.fixture(autouse=True)
def two_cores(monkeypatch):
    """Pretend this process may use two cores, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def mixed_specs() -> list[ModelSpec]:
    """Every kind of point a sweep runs, the longest first so the
    children finish out of spec order."""
    return [
        ModelSpec(kind="basil", config=SystemConfig(f=1, seed=5), label="long",
                  **{**SMALL, "duration": 0.08}),
        ModelSpec(kind="tapir", config=SystemConfig(f=1, seed=5), label="tapir", **SMALL),
        ModelSpec(kind="txsmr-hotstuff", config=SystemConfig(f=1, seed=5), label="txhs",
                  **SMALL),
        ModelSpec(kind="basil", config=SystemConfig(f=1, seed=5), label="open-loop",
                  arrivals=ArrivalConfig(process="poisson", rate=1_500.0), **SMALL),
        ModelSpec(kind="basil", config=SystemConfig(f=1, seed=5), label="geo",
                  geo=GeoSpec(topology=wan3(), mode="edge", users_per_region=2, keys=16),
                  duration=0.3, warmup=0.05),
        ModelSpec(kind="basil", config=SystemConfig(f=1, batch_size=4, seed=5),
                  label="drained-crash", drain=0.05,
                  fault_schedule=FaultSchedule(name="crash", faults=(
                      CrashFault(node="s0/r1", at=0.01, restart_at=0.02),
                  )), **SMALL),
    ]


def test_results_come_back_in_spec_order_equal_to_in_process_runs():
    specs = mixed_specs()
    forked = run_specs(specs)
    assert len(forked) == len(specs)
    for spec, result in zip(specs, forked):
        expected = SequentialRun(spec).run()
        assert result.bench["name"] == spec.label
        assert result.digest == expected.digest, spec.label
        assert result.events == expected.events, spec.label
        assert result.bench == expected.bench, spec.label
        assert result.fault_stats == expected.fault_stats, spec.label
    assert forked[-1].fault_stats["crashes"] == 1


def test_then_runs_in_the_child_on_the_live_run():
    specs = mixed_specs()[1:3]
    seen = run_specs(specs, then=lambda run, result: (
        run.spec.label, len(run.system.replicas), os.getpid(), result.events,
    ))
    assert [label for label, *_ in seen] == ["tapir", "txhs"]
    assert all(replicas > 0 and events > 0 for _, replicas, _, events in seen)
    assert os.getpid() not in {pid for _, _, pid, _ in seen}


def test_a_child_that_raises_fails_the_sweep_naming_the_spec():
    good = mixed_specs()[1]
    bad = ModelSpec(workload="no-such-workload", label="broken-point", **{
        k: v for k, v in SMALL.items() if k != "workload_keys"
    })
    with pytest.raises(SimulationError) as error:
        run_specs([good, bad])
    assert "broken-point" in str(error.value)
    assert "unknown workload 'no-such-workload'" in str(error.value)


def test_a_child_that_exits_without_sending_fails_fast_naming_the_spec():
    def vanish(run, result):
        os._exit(3)

    spec = mixed_specs()[1]
    started = time.monotonic()
    with pytest.raises(SimulationError, match=r"tapir: child exited with code 3"):
        run_specs([spec], then=vanish)
    assert time.monotonic() - started < 30.0
