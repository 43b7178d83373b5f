"""The run digest: every network's delivery fingerprint.

``Network._deliver`` folds each delivery's (source, destination, message
type, time) into one 64-bit value, and a run's ``PartitionResult.digest``
is that value for every protocol run, traced or not.  It must be

* blind to instruments: trace, profiler and telemetry on or off fold the
  same deliveries, for every system and the geo edge tier;
* sensitive to the schedule: one message delivered 1 ns late moves it;
* independent of worker packing in the windowed kernel, with tracing off.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.config import SystemConfig
from repro.geo.plan import GeoSpec
from repro.geo.topology import wan3
from repro.run import ModelSpec, SequentialRun

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def _spec(name: str) -> ModelSpec:
    config = SystemConfig(f=1, num_shards=1, batch_size=4, seed=5)
    if name == "geo-edge":
        return ModelSpec(
            kind="basil", config=config,
            geo=GeoSpec(topology=wan3(), mode="edge", users_per_region=2, keys=16),
            duration=0.3, warmup=0.1,
        )
    kind = "basil" if name == "basil-sig" else name
    return ModelSpec(
        kind=kind, config=config, workload_keys=200, num_clients=3,
        duration=0.02, warmup=0.005,
    )


@pytest.mark.parametrize("name", ["basil-sig", "tapir", "txsmr", "geo-edge"])
def test_instruments_leave_the_fingerprint_equal(name, tmp_path):
    bare = SequentialRun(_spec(name)).run()
    instrumented = SequentialRun(dataclasses.replace(
        _spec(name), trace=True, trace_dir=str(tmp_path), prof=True, obs=True,
    )).run()
    assert instrumented.report is not None  # obs and prof did run
    assert os.listdir(tmp_path)  # and the trace was written
    assert len(bare.digest) == 16
    # The telemetry ticker adds its own events; it delivers no message.
    assert instrumented.events > bare.events
    assert bare.digest == instrumented.digest


class _DelayOne:
    """Delivers the ``index``-th message ``extra`` seconds late."""

    def __init__(self, index: int, extra: float) -> None:
        self.index, self.extra, self.seen = index, extra, 0

    def intercept(self, src, dst, message, base_delay):
        self.seen += 1
        return base_delay + self.extra if self.seen == self.index else base_delay


def _run_with(adversary) -> str:
    run = SequentialRun(_spec("basil-sig"))
    run.system.network.adversary = adversary
    return run.run().digest


def test_one_message_one_nanosecond_late_moves_the_fingerprint():
    assert _run_with(_DelayOne(50, 0.0)) == SequentialRun(_spec("basil-sig")).run().digest
    assert _run_with(_DelayOne(50, 1e-9)) != _run_with(_DelayOne(50, 0.0))


def test_fingerprint_is_the_same_under_another_hash_seed():
    # Node and message-type ids are crc32s of their names, never str hashes.
    snippet = (
        "from tests.sim.test_fingerprint import _spec\n"
        "from repro.run import SequentialRun\n"
        "print(SequentialRun(_spec('tapir')).run().digest)\n"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", snippet], cwd=ROOT, check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src") + os.pathsep
                            + ROOT, "PYTHONHASHSEED": seed},
        ).stdout.strip()
        for seed in ("1", "2")
    }
    assert digests == {SequentialRun(_spec("tapir")).run().digest}


@pytest.mark.parallel_smoke
def test_windowed_fingerprint_is_invariant_to_worker_packing():
    from repro.parallel.runtime import ParallelRunner

    spec = ModelSpec(
        kind="basil", config=SystemConfig(f=1, num_shards=2, seed=2024),
        workload_keys=300, num_clients=4, duration=0.01, warmup=0.003,
    )
    assert not spec.trace
    w2 = ParallelRunner(spec, workers=2).run()
    w3 = ParallelRunner(spec, workers=3).run()
    assert len(w2.digest) == 64  # combined over partitions
    assert w2.digest == w3.digest
    assert all(len(p["digest"]) == 16 for p in w2.per_partition.values())
