"""The injector's determinism contract, asserted over run digests.

Acceptance criteria from the fault-injection issue:

* faults disabled (empty schedule, injector attached) => the run
  digest for a fixed seed is byte-identical to a run with no injector
  at all;
* faults enabled => runs remain fully deterministic: same (seed,
  schedule) gives byte-identical schedules, and the fault RNG draws from
  its own stream (the no-fault portion of the run is unperturbed).
"""

from __future__ import annotations

import pytest

from repro.bench.runner import ExperimentRunner
from repro.config import SystemConfig
from repro.core.system import BasilSystem
from repro.faults.injector import FaultInjector
from repro.faults.spec import CrashFault, FaultSchedule, LinkFault, PartitionFault
from repro.workloads.ycsb import YCSBWorkload


def run_bench(schedule: FaultSchedule | None, attach_injector: bool = True):
    system = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=4))
    workload = YCSBWorkload(num_keys=200, reads=1, writes=1)
    injector = FaultInjector(schedule) if attach_injector else None
    runner = ExperimentRunner(
        system, workload, num_clients=3, duration=0.05, warmup=0.02,
        injector=injector,
    )
    result = runner.run()
    return result, system.network.digest(), injector, system


FAULTY = FaultSchedule(
    name="mixed",
    faults=(
        LinkFault(start=0.03, end=0.05, drop_rate=0.1, delay_jitter=1e-4,
                  duplicate_rate=0.2, reorder_rate=0.2),
        PartitionFault(groups=(("s0/r5",), ("*",)), start=0.03, end=0.04),
        CrashFault(node="s0/r1", at=0.03, restart_at=0.05),
    ),
)


def test_disabled_injector_is_byte_identical_to_no_injector():
    """THE acceptance criterion: empty schedule == no injector, exactly."""
    _, digest_none, _, sys_none = run_bench(None, attach_injector=False)
    _, digest_empty, injector, sys_empty = run_bench(FaultSchedule())
    assert digest_none == digest_empty
    assert sys_none.sim.events_processed == sys_empty.sim.events_processed
    assert sys_none.sim.now == sys_empty.sim.now
    assert injector.faults_applied() == 0
    assert injector._rng is None  # never even created the fault stream


def test_faulty_runs_are_seed_deterministic():
    result_a, digest_a, injector_a, _ = run_bench(FAULTY)
    result_b, digest_b, injector_b, _ = run_bench(FAULTY)
    assert injector_a.faults_applied() > 0
    assert injector_a.stats == injector_b.stats
    assert result_a.commits == result_b.commits
    assert digest_a == digest_b


def test_faulty_run_differs_from_clean_run():
    _, digest_clean, _, _ = run_bench(FaultSchedule())
    _, digest_faulty, _, _ = run_bench(FAULTY)
    assert digest_clean != digest_faulty


@pytest.mark.parametrize("seed", (1, 7))
def test_campaign_cases_are_reproducible(seed):
    """run_case twice -> identical digests, commits, and fault counts."""
    from repro.faults.campaign import run_case
    from repro.faults.scenarios import SCENARIOS, Scale

    scenario = SCENARIOS["link-chaos"]
    scale = Scale(duration=0.04, warmup=0.01, clients=3, keys=100)
    case_a, sched_a = run_case(scenario, "basil", seed, scale)
    case_b, sched_b = run_case(scenario, "basil", seed, scale)
    assert sched_a == sched_b
    assert case_a.digest == case_b.digest
    assert case_a.commits == case_b.commits
    assert case_a.faults_applied == case_b.faults_applied
