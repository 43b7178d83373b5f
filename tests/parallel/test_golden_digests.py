"""Golden digests: the ``workers=1`` run is byte-identical to a hand-built run.

A :class:`SequentialRun` of a spec must be a pure wrapper: same digest
(the network's delivery fingerprint, hence identical message schedule), same event count, same bench
numbers as constructing the system and runner by hand.  This is the
contract that lets every experiment run through the one pipeline
without re-baselining anything.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.runner import ExperimentRunner
from repro.byzantine.clients import ByzantineClient
from repro.config import SystemConfig
from repro.run import ModelSpec, SequentialRun
from repro.workloads import make_workload

pytestmark = pytest.mark.parallel_smoke

NUM_CLIENTS = 4
DURATION = 0.02
WARMUP = 0.005
KEYS = 300


def _config(num_shards: int = 2) -> SystemConfig:
    return SystemConfig(f=1, num_shards=num_shards, seed=2024)


def _spec(kind: str, config: SystemConfig) -> ModelSpec:
    return ModelSpec(
        kind=kind,
        config=config,
        workload="ycsb-t",
        workload_keys=KEYS,
        num_clients=NUM_CLIENTS,
        duration=DURATION,
        warmup=WARMUP,
    )


def _hand_built(kind: str, config: SystemConfig):
    if kind == "basil":
        from repro.core.system import BasilSystem

        system = BasilSystem(config)
    elif kind == "tapir":
        from repro.baselines.tapir.system import TapirSystem

        system = TapirSystem(config)
    else:
        from repro.baselines.txsmr.system import TxSMRSystem

        system = TxSMRSystem(config)
    runner = ExperimentRunner(
        system,
        make_workload("ycsb-t", keys=KEYS),
        num_clients=NUM_CLIENTS,
        duration=DURATION,
        warmup=WARMUP,
    )
    bench = runner.run()
    return system.network.digest(), system.sim.events_processed, bench


@pytest.mark.parametrize("kind", ["basil", "tapir", "txsmr"])
def test_workers1_identical_to_hand_built(kind):
    config = _config()
    digest, events, bench = _hand_built(kind, config)
    result = SequentialRun(_spec(kind, config)).run()
    assert result.digest == digest
    assert result.events == events
    assert result.partition_id == -1 and result.cross_received == 0
    assert result.bench is not None
    assert result.bench["commits"] == bench.commits
    assert result.bench["throughput"] == pytest.approx(bench.throughput)


def test_drained_faulted_run_identical_to_hand_built():
    """``drain`` + a schedule: what the fault campaign runs.  Clients are
    left to finish, the bench row is taken at end_time, and the digest
    covers the fault-free drain after it."""
    from repro.core.system import BasilSystem
    from repro.faults.injector import FaultInjector
    from repro.faults.spec import ByzantineClientFault, FaultSchedule, PartitionFault

    config, drain = _config(), 0.03
    schedule = FaultSchedule(
        name="golden",
        faults=(
            PartitionFault(groups=(("s*/r2",), ("*",)), start=0.008, end=0.02),
            ByzantineClientFault(behaviour="stall-late", count=1),
        ),
    )
    system = BasilSystem(config)
    factories = [
        lambda: system.create_client(
            client_class=ByzantineClient, behaviour="stall-late", faulty_fraction=1.0
        )
    ] + [system.create_client] * (NUM_CLIENTS - 1)
    runner = ExperimentRunner(
        system,
        make_workload("ycsb-t", keys=KEYS),
        num_clients=NUM_CLIENTS,
        duration=DURATION,
        warmup=WARMUP,
        client_factories=factories,
        injector=FaultInjector(schedule),
        cancel_at_end=False,
    )
    bench = runner.run()
    system.sim.run(until=WARMUP + DURATION + WARMUP + drain)

    spec = dataclasses.replace(
        _spec("basil", config), fault_schedule=schedule, drain=drain
    )
    result = SequentialRun(spec).run()
    assert result.digest == system.network.digest()
    assert result.events == system.sim.events_processed
    assert result.now == system.sim.now
    assert result.bench["commits"] == bench.commits
    assert result.bench["aborts"] == bench.aborts
    # the drain is what the digest covers beyond the undrained run
    undrained = dataclasses.replace(spec, drain=None)
    assert SequentialRun(undrained).run().digest != result.digest


def test_workers1_run_commits_transactions():
    result = SequentialRun(_spec("basil", _config())).run()
    assert result.bench["commits"] > 0
    assert result.bench["commit_rate"] > 0.9
