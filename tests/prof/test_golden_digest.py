"""Profiling must not perturb schedules: digests match with hooks live.

Two pins:

* the sequential golden Basil run (ledger entry ``load/basil``, the
  run of ``tests/load/test_determinism.py``) produces the exact
  committed digest with a profiler attached — the attribution hooks
  read only the wall clock, so the event schedule cannot move;
* a ``workers=2`` partitioned run is digest- and bench-identical with
  ``prof`` (and worker-level seams) on vs off.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import ExperimentRunner
from repro.config import SystemConfig
from repro.core.system import BasilSystem
from repro.prof.profiler import Profiler
from repro.workloads.ycsb import YCSBWorkload
from tests.load.test_determinism import pinned

def _golden_run(profile: bool):
    config = SystemConfig(f=1, num_shards=1, batch_size=4, seed=7)
    system = BasilSystem(config)
    profiler = system.sim.attach_profiler(Profiler()) if profile else None
    workload = YCSBWorkload(num_keys=300, reads=2, writes=2, distribution="zipfian")
    runner = ExperimentRunner(
        system, workload, num_clients=4, duration=0.05, warmup=0.02
    )
    result = runner.run()
    return pinned(system.network.digest(), result, system), profiler


def test_profiled_sequential_run_matches_golden_digest(pin):
    observed, profiler = _golden_run(profile=True)
    pin("load/basil", observed)
    table = profiler.table()
    # The hooks actually fired: kernel + protocol subsystems attributed.
    for sub in ("task.step", "kernel.loop", "cpu.spend", "network.send",
                "store.probe", "crypto.sign"):
        assert sub in table, f"{sub} missing from {list(table)}"
    assert profiler.total() > 0.0


def _parallel_digest(prof: bool, workers: int = 2):
    from repro.parallel.runtime import ParallelRunner
    from repro.run import ModelSpec

    spec = ModelSpec(
        kind="basil",
        config=SystemConfig(f=1, num_shards=2, seed=2024),
        workload="ycsb-t",
        workload_keys=300,
        num_clients=4,
        duration=0.02,
        warmup=0.005,
        prof=prof,
    )
    return ParallelRunner(spec, workers=workers).run()


@pytest.mark.prof_smoke
def test_workers2_prof_on_equals_prof_off():
    base = _parallel_digest(prof=False)
    profiled = _parallel_digest(prof=True)
    assert profiled.digest == base.digest
    assert profiled.events == base.events
    assert profiled.bench["commits"] == base.bench["commits"]
    assert profiled.bench["throughput"] == pytest.approx(
        base.bench["throughput"]
    )
    # And the profiled run actually carried profiles: per-partition
    # attribution plus worker-level exchange seams.
    assert base.prof == []
    assert profiled.prof, "worker profiles missing"
    assert all("exchange.wait" in p["attr"] for p in profiled.prof)
    tables = [
        s.get("prof") for s in profiled.per_partition.values()
    ]
    assert all(t for t in tables), "per-partition attribution missing"
    assert any("task.step" in t for t in tables)


def _instrumented_run(trace: bool, prof: bool):
    from repro.run import ModelSpec, SequentialRun

    run = SequentialRun(ModelSpec(
        kind="basil",
        config=SystemConfig(f=1, num_shards=1, batch_size=4, seed=11),
        workload="ycsb-z",
        workload_keys=300,
        num_clients=6,
        duration=0.03,
        warmup=0.005,
        trace=trace,
        prof=prof,
    ))
    result = run.run()
    return result, run.sim


def test_instruments_off_and_on_push_and_dispatch_the_same_events():
    """Attach-time instrument choice: the profiled scheduler variants and
    the framed task step push exactly what the plain ones push (equal
    final ``seq``), dispatch the same events and fold the same digest."""
    bare, bare_sim = _instrumented_run(trace=False, prof=False)
    traced, traced_sim = _instrumented_run(trace=True, prof=False)
    both, both_sim = _instrumented_run(trace=True, prof=True)
    assert bare.events == traced.events == both.events > 1_000
    assert bare_sim._seq == traced_sim._seq == both_sim._seq
    assert bare.digest == traced.digest == both.digest
    table = both.extra["prof"]
    assert table["kernel.heap_push"]["calls"] == both_sim._seq


def test_profiled_cpu_spend_rows_count_every_charge():
    """A charge starts inside a ``cpu.spend`` frame (basilbench's
    ``sim.cpu_calls``): one per charge started, whether it has finished
    (a ``cpu.finish`` dispatch), still holds a core (its record is in the
    heap) or waits in a CPU's queue at the end of the run."""
    from repro.run import ModelSpec, SequentialRun
    from repro.sim.node import Cpu

    run = SequentialRun(ModelSpec(
        kind="basil",
        config=SystemConfig(f=1, num_shards=2, batch_size=4, seed=3),
        workload_keys=300,
        num_clients=6,
        duration=0.02,
        warmup=0.005,
        trace=False,
        prof=True,
    ))
    table = run.run().extra["prof"]
    running = sum(
        1 for entry in run.sim._queue
        if len(entry) == 4 and getattr(entry[2], "__func__", None) is Cpu._finish
    )
    queued = sum(
        node.cpu.queue_depth for node in run.system.network._nodes.values()
    )
    finished = table["cpu.finish"]["calls"]
    assert finished > 1_000
    assert table["cpu.spend"]["calls"] == finished + running + queued


def test_store_probes_of_replaced_replicas_are_profiled(monkeypatch):
    """A byz-replica fault swaps a replica in after the profiler is
    attached; the new replica's store still reports to it: the
    ``store.probe`` row counts every probe made on every store."""
    from repro.faults.spec import ByzantineReplicaFault, FaultSchedule
    from repro.run import ModelSpec, SequentialRun
    from repro.storage.versionstore import VersionStore

    probes = {"calls": 0}
    for name in ("latest_committed", "latest_prepared", "update_rts",
                 "writes_between", "reads_spanning"):
        probe = getattr(VersionStore, name)

        def counted(self, *args, _probe=probe):
            probes["calls"] += 1
            return _probe(self, *args)

        monkeypatch.setattr(VersionStore, name, counted)
    schedule = FaultSchedule(
        name="byz-replica",
        faults=(ByzantineReplicaFault(node="s0/r1", behaviour="prepare-abstain"),),
    ).validate()
    run = SequentialRun(ModelSpec(
        kind="basil",
        config=SystemConfig(f=1, num_shards=1, batch_size=4, seed=3),
        workload_keys=300,
        num_clients=6,
        duration=0.02,
        warmup=0.005,
        trace=False,
        prof=True,
        fault_schedule=schedule,
    ))
    table = run.run().extra["prof"]
    assert type(run.system.replicas["s0/r1"]).__name__ == "PrepareAbstainingReplica"
    assert probes["calls"] > 1_000
    assert table["store.probe"]["calls"] == probes["calls"]
