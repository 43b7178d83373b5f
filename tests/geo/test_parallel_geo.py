"""Geo runs on the parallel front-end: digests, floors, region faults.

Three contracts, mirroring the figure-parallel suite:

* **Golden digest** — a geo spec at ``workers=1`` is byte-identical
  (trace digest) to building ``build_geo_system`` + ``GeoRunner`` by
  hand.
* **Worker-count invariance** — ``workers=2`` and ``workers=3`` produce
  the same windowed digest and the same merged bench row (plans are
  functions of the topology, never of worker packing), with the
  per-region tables unioned and raw samples dropped by the merge.
* **Region-correlated faults** — a serialized region blackout injects
  identically at any worker count, and the per-pair latency floors turn
  an under-lookahead cross-region delivery into an error that names the
  region pair.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.faults.spec import FaultSchedule
from repro.geo.faults import (
    region_blackout,
    region_fault_schedule,
    region_isolation,
    region_slowdown,
)
from repro.geo.plan import GeoSpec
from repro.geo.runner import GeoRunner, build_geo_system
from repro.geo.topology import wan3
from repro.parallel import ParallelRunner
from repro.parallel.models import BasilPartitionHost, make_plan
from repro.run import ModelSpec
from repro.trace.export import trace_digest
from repro.trace.tracer import Tracer

pytestmark = pytest.mark.geo_smoke

REGIONS = ("us-east", "eu-west", "ap-south")


def _geo():
    return GeoSpec(topology=wan3(), mode="edge", users_per_region=2, keys=16)


def _spec(schedule=None, obs=False):
    return ModelSpec(
        kind="basil",
        config=SystemConfig(num_shards=1, seed=11),
        geo=_geo(),
        duration=0.4,
        warmup=0.1,
        label="geo-par",
        fault_schedule=schedule,
        obs=obs,
    )


def test_workers1_digest_matches_hand_built():
    spec = _spec()
    par = ParallelRunner(spec, workers=1).run()

    system = build_geo_system(spec.system_config(), spec.geo)
    tracer = system.sim.attach_tracer(Tracer())
    GeoRunner(
        system, spec.geo, duration=spec.duration, warmup=spec.warmup,
        name=spec.label,
    ).run()
    assert par.digest == trace_digest(tracer)
    assert par.bench["commits"] > 0


def test_digest_and_bench_invariant_w2_w3():
    r2 = ParallelRunner(_spec(), workers=2).run()
    r3 = ParallelRunner(_spec(), workers=3).run()
    assert r2.digest == r3.digest
    assert r2.partitions == r3.partitions == 3
    # merged row: every region's table present, raw samples dropped
    g = r2.bench["extra"]["geo"]
    assert set(g["regions"]) == set(REGIONS)
    assert "samples" not in g
    assert g["ops"] > 0
    assert r2.bench == r3.bench


def test_geo_spec_rejects_non_basil_and_byz():
    with pytest.raises(SimulationError, match="basil"):
        ModelSpec(kind="microbench", geo=_geo())
    with pytest.raises(SimulationError, match="byzantine"):
        ModelSpec(kind="basil", geo=_geo(), byz_client_count=1)
    # the schedule's byz-client faults are the same mix: same refusal
    from repro.config import ArrivalConfig
    from repro.faults.spec import ByzantineClientFault, FaultSchedule

    byz = FaultSchedule(faults=(ByzantineClientFault(count=1),))
    with pytest.raises(SimulationError, match="byz-client faults"):
        ModelSpec(kind="basil", geo=_geo(), fault_schedule=byz)
    with pytest.raises(SimulationError, match="open-loop arrivals"):
        ModelSpec(kind="basil", geo=_geo(), arrivals=ArrivalConfig())
    with pytest.raises(SimulationError, match="byzantine client mix"):
        ModelSpec(kind="basil", arrivals=ArrivalConfig(), fault_schedule=byz)


def test_pair_floor_names_the_region_pair():
    spec = _spec()
    host = BasilPartitionHost(spec, make_plan(spec), 0)
    # 1ms is a legal datacenter delay but undercuts the 40ms floor of
    # the us-east <-> eu-west pair: the host must refuse, by name
    with pytest.raises(SimulationError, match="us-east <-> eu-west"):
        host._remote_send("edge/us-east", "s0/r1", None, 0.001)


# ---------------------------------------------------------------------------
# Region-correlated faults
# ---------------------------------------------------------------------------
def _blackout_schedule(geo, config):
    placement = geo.placement(config)
    fault = region_blackout(placement, "eu-west", start=0.2, end=0.35)
    return region_fault_schedule("eu-blackout", (fault,)), placement


def test_region_blackout_groups_every_hosted_node():
    geo = _geo()
    schedule, placement = _blackout_schedule(geo, SystemConfig(num_shards=1))
    (fault,) = schedule.faults
    assert fault.groups[0] == (
        "s0/r1", "s0/r4", "edge/eu-west", "user/eu-west/0", "user/eu-west/1"
    )
    assert fault.groups[1] == ("*",)
    # the schedule serializes and replays like any other
    assert FaultSchedule.from_json(schedule.to_json()) == schedule


def test_region_isolation_and_slowdown_shapes():
    placement = _geo().placement(SystemConfig(num_shards=1))
    cuts = region_isolation(placement, "us-east", "eu-west", 0.1, 0.2)
    east = set(placement.nodes_in("us-east"))
    west = set(placement.nodes_in("eu-west"))
    assert len(cuts) == 2 * len(east) * len(west)  # both directions
    assert all(f.drop_rate == 1.0 for f in cuts)
    assert {(f.src in east, f.dst in west) for f in cuts} == {
        (True, True), (False, False)
    }
    slow = region_slowdown(placement, "ap-south", 0.1, None, extra_delay=0.05)
    assert {f.src for f in slow} == set(placement.nodes_in("ap-south"))
    assert all(f.dst == "*" and f.extra_delay == 0.05 for f in slow)


def test_region_blackout_invariant_across_worker_counts():
    config = SystemConfig(num_shards=1, seed=11)
    schedule, _ = _blackout_schedule(_geo(), config)
    r1 = ParallelRunner(_spec(schedule), workers=1).run()
    r2 = ParallelRunner(_spec(schedule), workers=2).run()
    r3 = ParallelRunner(_spec(schedule), workers=3).run()
    assert r1.fault_stats is not None and r1.fault_stats["partition_drops"] > 0
    assert r2.fault_stats["partition_drops"] > 0
    # packing-invariant: same partitions, same schedules, same counters
    assert r2.fault_stats == r3.fault_stats
    assert r2.digest == r3.digest
    assert r2.bench["extra"]["fault_stats"] == r2.fault_stats
    # every region (including the cut one) still reports its table, and
    # the edge tier as a whole kept serving from the lease cache
    regions = r2.bench["extra"]["geo"]["regions"]
    assert set(regions) == set(REGIONS)
    assert sum(row["lease_hits"] for row in regions.values()) > 0
