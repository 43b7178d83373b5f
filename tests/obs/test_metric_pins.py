"""Absolute pins on what the metrics registry holds at the end of a run.

``repro.obs check`` compares telemetry within a tolerance, so it cannot
notice a counter that moved by one or a histogram whose samples shifted.
Here each run's registry is reduced to a sha256 over its sorted contents
(key -> counter or gauge value, or histogram ``summary()``) and pinned to
a constant, for runs that together reach every instrumented site: the
obs ``check`` configuration, a Zipf run with stall-late Byzantine
clients (fallback, abort-taxonomy and byz-client counters), Basil behind
the wan3 edge tier, two open-loop admission points (AIMD shedding, and a
static cap that parks arrivals) and both baselines.  The open-loop
``delay`` point also pins its trace digest: its ``load`` spans (queued,
in flight, shed) are in no other pinned trace.

A change that only moves where instrumentation is recorded from must
leave every value here untouched.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import AdmissionConfig, ArrivalConfig, SystemConfig
from repro.geo.plan import GeoSpec
from repro.geo.topology import wan3
from repro.obs.recorder import ObsRecorder
from repro.run import ModelSpec, SequentialRun
from repro.sim.monitor import Histogram


def registry_digest(registry) -> str:
    """sha256 over the registry's contents, sorted by series key."""
    contents = {
        key: metric.summary() if isinstance(metric, Histogram) else metric.value
        for key, metric in registry
    }
    blob = json.dumps(contents, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _basil(seed: int = 2024, **fields) -> SystemConfig:
    return SystemConfig(f=1, num_shards=1, batch_size=4, seed=seed, **fields)


def _spec(name: str) -> ModelSpec:
    if name == "zipf-byz":
        return ModelSpec(
            kind="basil", config=_basil(), workload="ycsb-z", workload_keys=1_000,
            num_clients=10, duration=0.05, warmup=0.01, obs=True,
            byz_client_behaviour="stall-late", byz_client_count=3,
        )
    if name == "geo-wan3-edge":
        return ModelSpec(
            kind="basil", config=_basil(),
            geo=GeoSpec(topology=wan3(), mode="edge", users_per_region=3, keys=32),
            duration=1.0, warmup=0.25, obs=True,
        )
    if name == "open-aimd":
        return ModelSpec(
            kind="basil", config=_basil(seed=7), workload_keys=300, num_clients=8,
            duration=0.05, warmup=0.02, obs=True,
            arrivals=ArrivalConfig(process="bursty", rate=6_000.0, peak_ratio=3.0,
                                   on_fraction=0.3, cycle=0.01),
            admission=AdmissionConfig(policy="aimd", initial_cap=8.0, min_cap=2.0),
        )
    if name == "open-delay":
        return ModelSpec(
            kind="basil", config=_basil(seed=7), workload_keys=300, num_clients=8,
            duration=0.05, warmup=0.02, obs=True,
            arrivals=ArrivalConfig(process="poisson", rate=3_000.0),
            admission=AdmissionConfig(policy="static-cap", cap=4, mode="delay",
                                      max_queue_delay=0.01),
        )
    if name in ("tapir", "txsmr"):
        return ModelSpec(
            kind=name, config=_basil(seed=7), workload_keys=300, num_clients=4,
            duration=0.05, warmup=0.02, obs=True,
        )
    raise KeyError(name)


def observe(name: str) -> tuple[str, str]:
    """(registry digest, trace digest) of one pinned run."""
    registries = []
    attach = ObsRecorder.attach

    def recording(self, system, until=None):
        registries.append(self.registry)
        return attach(self, system, until=until)

    ObsRecorder.attach = recording
    try:
        if name == "obs-check":
            from repro.obs.__main__ import CHECK_ARGS, run_instrumented

            trace = run_instrumented(**CHECK_ARGS).trace_digest or ""
        else:
            trace = SequentialRun(_spec(name)).run().digest
    finally:
        ObsRecorder.attach = attach
    (registry,) = registries
    return registry_digest(registry), trace


#: name -> registry digest.
PINS = {
    "geo-wan3-edge": (
        "2a50fd59026f1e2ff1389f1e28df4beb3d552facbc5c23c311d4a098492084e6"
    ),
    "obs-check": (
        "a89f47a305fb435fe6dc9e81b975681630758442f4ac8e62dab422c64eaf828b"
    ),
    "open-aimd": (
        "d743c9b576d5e7d239d7a4ad92365dcdf5ed514833bb239bee95725868c1b568"
    ),
    "open-delay": (
        "77941a0a92370f6a30b1e4def2df5231210ba79ac3cfa41b73f5e251e6e484e4"
    ),
    "tapir": (
        "8d825f6565bf03c5b88413a1949436657bce883bbdf20021284e2f745436a738"
    ),
    "txsmr": (
        "99ea6abd5b93ceee73f163648b88b6f37c2d83d40a703767865f6aee0575ace7"
    ),
    "zipf-byz": (
        "68a4162ea352e35f9fe82917aab2dd67d46296aa98480f03da48b2674321380a"
    ),
}
#: name -> trace digest, where no other test pins the trace.
TRACE_PINS = {
    # The same as the run with obs off: telemetry moves no geo event.
    "geo-wan3-edge": (
        "78c56c3d19ee768a3836e5cedeed67debc7a32ac552deb24e8cef8cad0de047c"
    ),
    "open-delay": (
        "786203f32c804e4d443e483cfb8e0d65e7e059bbebf8413e6c4c59d249c26a8a"
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_registry_contents_are_pinned(name):
    registry, trace = observe(name)
    assert registry == PINS[name]
    if name in TRACE_PINS:
        assert trace == TRACE_PINS[name]


if __name__ == "__main__":  # prints the pin tables for this tree
    for case in sorted(PINS):
        registry, trace = observe(case)
        print(f"    {case!r}: {registry!r},  # trace {trace!r}")
