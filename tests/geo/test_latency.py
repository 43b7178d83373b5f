"""Placement + matrix latency model, the uniform-default contract, and
the region-correlated faults built from a placement."""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig, SystemConfig
from repro.errors import SimulationError
from repro.faults.spec import FaultSchedule
from repro.geo.faults import (
    region_blackout,
    region_fault_schedule,
    region_isolation,
    region_slowdown,
)
from repro.geo.latency import GeoPlacement, RegionLatencyModel, proxy_name, user_name
from repro.geo.topology import GeoTopology, RegionLink, wan3
from repro.sim.loop import Simulator
from repro.sim.network import Network, UniformLatency


class _CountingRng:
    """Counts uniform draws and returns the upper bound (max jitter)."""

    def __init__(self):
        self.draws = 0

    def uniform(self, lo, hi):
        self.draws += 1
        return hi


def _placement(users=2, mode="edge", shards=1):
    return GeoPlacement(
        wan3(), SystemConfig(num_shards=shards), users_per_region=users, mode=mode
    )


def test_replicas_round_robin_across_regions():
    placement = _placement()
    # 5f+1 = 6 replicas of shard 0, replica i in region i % 3
    assert placement.region_of("s0/r0") == "us-east"
    assert placement.region_of("s0/r1") == "eu-west"
    assert placement.region_of("s0/r5") == "ap-south"
    assert placement.nodes_in("eu-west") == (
        "s0/r1", "s0/r4", "edge/eu-west", "user/eu-west/0", "user/eu-west/1"
    )
    assert placement.replicas_in("eu-west") == ("s0/r1", "s0/r4")


def test_every_shard_spans_every_region():
    placement = _placement(shards=3)
    for shard in range(3):
        regions = {placement.region_of(f"s{shard}/r{i}") for i in range(6)}
        assert regions == set(wan3().regions)


def test_serving_tier_is_sticky_and_mode_aware():
    edge = _placement(mode="edge")
    assert edge.region_of(proxy_name("ap-south")) == "ap-south"
    assert edge.region_of(user_name("ap-south", 1)) == "ap-south"
    direct = _placement(mode="direct")
    assert proxy_name("ap-south") not in direct.nodes_in("ap-south")


def test_unplaced_node_is_an_error():
    placement = _placement()
    with pytest.raises(SimulationError, match="no region placement"):
        placement.region_of("client/7")
    with pytest.raises(SimulationError, match="unknown region"):
        placement.nodes_in("atlantis")


def test_model_samples_pair_latency_one_draw_per_message():
    placement = _placement()
    model = RegionLatencyModel(wan3(), placement)
    rng = _CountingRng()
    delay = model.sample(rng, "s0/r0", "s0/r1")  # us-east -> eu-west
    assert delay == pytest.approx(0.040 + 0.003)
    assert rng.draws == 1
    assert "us-east <-> eu-west" in model.describe("s0/r0", "s0/r1")


def test_zero_jitter_pair_draws_nothing():
    topo = GeoTopology(
        name="flat", regions=("a", "b"),
        links=(
            RegionLink("a", "a", base=1e-5),
            RegionLink("b", "b", base=1e-5),
            RegionLink("a", "b", base=2e-3, jitter=0.0),
        ),
    )
    placement = GeoPlacement(topo, SystemConfig(), users_per_region=1)
    model = RegionLatencyModel(topo, placement)
    rng = _CountingRng()
    assert model.sample(rng, "edge/a", "edge/b") == 2e-3
    assert rng.draws == 0  # swapping models must not perturb draw sequences


def test_uniform_default_reproduces_network_config():
    """An unconfigured Network uses UniformLatency with the config's
    parameters and the old single-link arithmetic (one draw iff jitter)."""
    config = NetworkConfig()
    network = Network(Simulator(seed=3), config)
    model = network.latency
    assert isinstance(model, UniformLatency)
    rng = _CountingRng()
    assert model.sample(rng, "x", "y") == pytest.approx(
        config.one_way_latency + config.jitter
    )
    assert rng.draws == (1 if config.jitter else 0)


# ---------------------------------------------------------------------------
# Region-correlated faults
# ---------------------------------------------------------------------------
def test_region_blackout_groups_every_hosted_node():
    placement = _placement()
    fault = region_blackout(placement, "eu-west", start=0.2, end=0.35)
    schedule = region_fault_schedule("eu-blackout", (fault,))
    assert fault.groups[0] == (
        "s0/r1", "s0/r4", "edge/eu-west", "user/eu-west/0", "user/eu-west/1"
    )
    assert fault.groups[1] == ("*",)
    # the schedule serializes and replays like any other
    assert FaultSchedule.from_json(schedule.to_json()) == schedule


def test_region_isolation_and_slowdown_shapes():
    placement = _placement()
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
