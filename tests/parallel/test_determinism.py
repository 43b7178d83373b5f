"""Worker-count invariance: digests are a function of the model, not
of how partitions are packed onto processes.

These tests fork real worker processes (multiprocessing) — the same
machinery ``python -m repro run --workers N`` uses — and pin the headline
guarantee of docs/parallel.md: w2 and w4 runs of the same spec produce
identical combined digests, and the microbench windowed digest equals
its sequential (one-heap) execution exactly.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.parallel.runtime import ParallelRunner
from repro.run import ModelSpec

pytestmark = pytest.mark.parallel_smoke

MICRO = ModelSpec(
    kind="microbench",
    partitions=4,
    timers=300,
    duration=0.002,
    cross_every=16,
    lookahead=1e-4,
)


def test_microbench_digest_invariant_across_worker_counts():
    sequential = ParallelRunner(MICRO, workers=1).run()
    w2 = ParallelRunner(MICRO, workers=2).run()
    w4 = ParallelRunner(MICRO, workers=4).run()
    assert sequential.digest == w2.digest == w4.digest
    assert w2.cross_messages > 0, "microbench produced no cross traffic"
    assert w2.cross_messages == w4.cross_messages
    assert w2.partitions == w4.partitions == 4
    assert w2.workers == 2 and w4.workers == 4


def test_microbench_workers_capped_at_partitions():
    result = ParallelRunner(MICRO, workers=16).run()
    assert result.workers == 4  # 4 partitions -> at most 4 workers
    assert result.digest == ParallelRunner(MICRO, workers=2).run().digest


def test_basil_digest_invariant_across_worker_counts():
    spec = ModelSpec(
        kind="basil",
        config=SystemConfig(f=1, num_shards=3, seed=2024),
        workload="ycsb-t",
        workload_keys=300,
        num_clients=4,
        duration=0.02,
        warmup=0.005,
    )
    w2 = ParallelRunner(spec, workers=2).run()
    w4 = ParallelRunner(spec, workers=4).run()
    assert w2.digest == w4.digest
    assert w2.partitions == w4.partitions == 4  # 3 shards + clients
    assert w2.cross_messages > 0
    assert w2.cross_messages == w4.cross_messages
    assert w2.bench is not None and w4.bench is not None
    assert w2.bench["commits"] == w4.bench["commits"] > 0
    assert w2.bench["throughput"] == pytest.approx(w4.bench["throughput"])


def test_sequential_only_kinds_reject_partitioned_runs():
    spec = ModelSpec(kind="tapir", duration=0.01, warmup=0.002)
    with pytest.raises(SimulationError, match="workers=1"):
        ParallelRunner(spec, workers=2)


def test_sequential_only_fields_reject_partitioned_runs():
    """The windowed kernel runs plain closed-loop Basil and the
    microbench; a drain, an arrival stream, a geo tier, a fault schedule
    or an obs report is refused by name, not ignored."""
    from repro.config import ArrivalConfig
    from repro.faults.spec import FaultSchedule
    from repro.geo.plan import GeoSpec
    from repro.geo.topology import wan3

    specs = {
        "drain": ModelSpec(kind="basil", drain=0.1),
        "arrivals": ModelSpec(kind="basil", arrivals=ArrivalConfig(rate=500.0)),
        "geo": ModelSpec(kind="basil", geo=GeoSpec(topology=wan3())),
        "fault_schedule": ModelSpec(kind="basil", fault_schedule=FaultSchedule()),
        "obs": ModelSpec(kind="basil", obs=True),
    }
    for name, spec in specs.items():
        with pytest.raises(
            SimulationError, match=rf"ModelSpec\.{name} only supports workers=1"
        ):
            ParallelRunner(spec, workers=2)
        ParallelRunner(spec, workers=1)  # every one is fine sequentially


# ---------------------------------------------------------------------------
# The harness itself: it leaves the caller's process as it found it, and
# it names what died.
# ---------------------------------------------------------------------------
def _run_loops():
    """Every way a caller's process enters the dispatch loop, by name;
    each returns None or raises what its loop is built to raise."""
    from repro.run import SequentialRun
    from repro.sim.loop import Future, Simulator

    def forever(sim):
        sim.call_later(1.0, forever, sim)

    def busy():
        sim = Simulator()
        forever(sim)
        return sim

    def boom():
        raise ValueError("callback failed")

    def callback_raises():
        sim = Simulator()
        sim.call_later(1.0, boom)
        sim.run()

    def until_complete():
        sim = busy()
        sim.run_until_complete(sim.sleep(5.0))

    async def nested(sim):
        await sim.sleep(1.0)
        sim.run_until_complete(sim.sleep(1.0))  # a drain inside a drain

    def run_nested():
        sim = Simulator()
        sim.run_until_complete(nested(sim))

    return {
        "Simulator.run": lambda: busy().run(until=10.0),
        "run_until_complete": until_complete,
        "nested run_until_complete": run_nested,
        "SequentialRun.run": lambda: SequentialRun(MICRO).run(),
        "ParallelRunner workers=1": lambda: ParallelRunner(MICRO, workers=1).run(),
        "ParallelRunner workers=2": lambda: ParallelRunner(MICRO, workers=2).run(),
        "max_events": lambda: busy().run(max_events=5),
        "deadlock": lambda: Simulator().run_until_complete(Future()),
        "callback raises": callback_raises,
    }


def test_run_loops_hand_the_collector_back():
    """The dispatch loop pauses the host's cyclic collector; every entry
    point leaves ``gc.isenabled()`` exactly as it found it — enabled or
    disabled — also when the loop raises."""
    import gc

    raising = {
        "max_events": SimulationError,
        "deadlock": SimulationError,
        "callback raises": ValueError,
    }
    assert gc.isenabled()
    try:
        for name, enter in _run_loops().items():
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                if name in raising:
                    with pytest.raises(raising[name]):
                        enter()
                else:
                    enter()
                assert gc.isenabled() == enabled, (name, enabled)
                assert gc.get_freeze_count() == 0, name
    finally:
        gc.enable()


def test_dead_worker_is_a_named_error(monkeypatch):
    """A worker that exits mid-run surfaces as a SimulationError naming
    it and its partitions — promptly, not as a bare EOFError or a hang."""
    import os
    import time

    import repro.parallel.worker as worker_module
    from repro.parallel.exchange import WorkerReady

    def ready_then_die(conn, worker_id, spec, plan, owned):
        # Pass the build barrier, then: worker 1 vanishes without a
        # WorkerError; worker 0 keeps answering grants with empty reports.
        conn.send(WorkerReady(worker_id))
        if worker_id == 1:
            os._exit(1)
        while conn.recv() is not None:
            conn.send(())

    monkeypatch.setattr(worker_module, "worker_main", ready_then_die)
    t0 = time.monotonic()
    with pytest.raises(SimulationError, match=r"worker 1 \(partitions 1, 3\) exited with code 1"):
        ParallelRunner(MICRO, workers=2).run()
    assert time.monotonic() - t0 < 5.0


def test_ladder_compares_the_sequential_row_too(monkeypatch, capsys):
    """A windowed run that diverged from the one-heap execution fails the
    ladder: the digest check covers w1, not only the windowed rows."""
    from repro import __main__ as cli

    args = ["sweep", "ladder", "--workers", "1", "2", "--timers", "20", "--duration", "0.0006"]
    assert cli.main(args) == 0

    real = cli._ladder_row

    def forged(spec, workers):
        row = real(spec, workers)
        if workers == 1:
            row["digest"] = "forged"
        return row

    monkeypatch.setattr(cli, "_ladder_row", forged)
    capsys.readouterr()
    assert cli.main(args) == 1
    assert "workers=[2]" in capsys.readouterr().out
