"""WAN topologies: preset matrices, validation, serialization."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.geo.topology import (
    TOPOLOGIES,
    GeoTopology,
    RegionLink,
    get_topology,
    wan3,
    wan5,
)


def test_wan3_matrix_complete_and_symmetric():
    topo = wan3()
    assert topo.regions == ("us-east", "eu-west", "ap-south")
    # every unordered pair (incl. diagonal) has exactly one entry
    assert len(topo.links) == 6
    assert topo.latency("us-east", "eu-west") == (0.040, 0.003)
    assert topo.latency("eu-west", "us-east") == (0.040, 0.003)
    # the diagonal is the datacenter-class intra-region link
    assert topo.latency("eu-west", "eu-west") == pytest.approx((75e-6, 10e-6))


def test_wan5_matrix_complete():
    topo = wan5()
    assert len(topo.regions) == 5
    assert len(topo.links) == 5 + 10  # diagonal + all cross pairs
    for a in topo.regions:
        for b in topo.regions:
            base, jitter = topo.latency(a, b)
            assert base > 0.0 and jitter >= 0.0


def test_min_cross_region_and_lookahead():
    topo = wan3()
    fastest = topo.min_cross_region()
    assert {fastest.a, fastest.b} == {"us-east", "eu-west"}
    assert fastest.base == 0.040
    assert wan5().min_cross_region().base == 0.030  # us-east <-> us-west


def test_json_round_trip(tmp_path):
    topo = wan5()
    again = GeoTopology.from_json(topo.to_json())
    assert again == topo
    path = tmp_path / "custom.json"
    path.write_text(topo.to_json())
    assert get_topology(str(path)) == topo


def test_get_topology_presets_and_errors():
    for name in TOPOLOGIES:
        assert get_topology(name).name == name
    with pytest.raises(SimulationError, match="unknown topology"):
        get_topology("wan9")


def test_matrix_validation_errors():
    with pytest.raises(SimulationError, match="missing the latency entry"):
        GeoTopology(
            name="holey", regions=("a", "b"),
            links=(RegionLink("a", "a", 1e-5), RegionLink("b", "b", 1e-5)),
        )
    with pytest.raises(SimulationError, match="duplicate latency entry"):
        GeoTopology(
            name="dup", regions=("a",),
            links=(RegionLink("a", "a", 1e-5), RegionLink("a", "a", 2e-5)),
        )
    with pytest.raises(SimulationError, match="unknown region"):
        GeoTopology(
            name="stray", regions=("a",),
            links=(RegionLink("a", "a", 1e-5), RegionLink("a", "z", 1e-3)),
        )
    with pytest.raises(SimulationError, match="duplicate region names"):
        GeoTopology(name="twice", regions=("a", "a"), links=())
    with pytest.raises(SimulationError, match="negative latency"):
        RegionLink("a", "b", base=-1.0)
    with pytest.raises(SimulationError, match="no latency entry"):
        wan3().latency("us-east", "nowhere")
