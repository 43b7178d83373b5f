"""Absolute pins on what the metrics registry holds at the end of a run.

A tolerance comparison of two runs (``repro compare``) cannot notice
a counter that moved by one or a histogram whose samples shifted.  Here
each run's registry is reduced to a sha256 over its sorted contents
(key -> counter or gauge value, or histogram ``summary()``) and pinned in
the ledger (``tests/pins.json``), for runs that together reach every
instrumented site: ``run_instrumented()``'s default configuration
(``obs-check``), a Zipf run with stall-late Byzantine clients (fallback,
abort-taxonomy and byz-client counters), Basil behind the wan3 edge
tier, two open-loop admission points (AIMD shedding, and a static cap
that parks arrivals) and both baselines.  The open-loop ``delay`` point
also pins its run digest (under the key ``trace``): its parked and
re-admitted arrivals are in no other pinned schedule.

``obs-check`` also pins a sha256 over its whole ``RunReport`` — the
bench row, every sampled series point, histogram summaries, health
verdicts — and the health rules that judged it, so a one-sample
histogram shift or a changed health-rule threshold fails it exactly,
where a tolerance check would pass.

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
from repro.obs.report import run_instrumented
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


#: The pinned runs; each one's values are ledger entry ``metrics/<name>``.
CASES = ("geo-wan3-edge", "obs-check", "open-aimd", "open-delay", "tapir",
         "txsmr", "zipf-byz")
#: Runs that also pin their run digest (ledger key ``trace``): no other
#: test pins that schedule.  geo-wan3-edge's equals the run with obs off
#: (telemetry delivers no message); open-delay's holds the only pinned
#: parked arrivals.
TRACE_PINNED = ("geo-wan3-edge", "open-delay")


def report_digest(report, rules) -> str:
    """sha256 over a whole RunReport (bench row, every series point,
    histograms, verdicts, health, config, meta) and the health rules
    that judged it, so a threshold no verdict crossed still counts."""
    blob = {"report": report.to_dict(), "rules": [rule.to_dict() for rule in rules]}
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def observe(name: str) -> dict[str, str]:
    """The pinned values of one run: its registry digest, plus its run
    digest (``TRACE_PINNED``) or its whole report (``obs-check``)."""
    recorders = []
    attach = ObsRecorder.attach

    def recording(self, system, until=None):
        recorders.append(self)
        return attach(self, system, until=until)

    ObsRecorder.attach = recording
    try:
        if name == "obs-check":
            report = run_instrumented()
        else:
            result = SequentialRun(_spec(name)).run()
    finally:
        ObsRecorder.attach = attach
    (recorder,) = recorders
    observed = {"registry": registry_digest(recorder.registry)}
    if name == "obs-check":
        observed["report"] = report_digest(report, recorder.rules)
    if name in TRACE_PINNED:
        observed["trace"] = result.digest
    return observed


@pytest.mark.parametrize("name", CASES)
def test_registry_contents_are_pinned(name, pin):
    pin(f"metrics/{name}", observe(name))
