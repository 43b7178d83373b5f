"""GeoSpec validation, alone and inside a ModelSpec."""

from __future__ import annotations

import pytest

from repro.config import ArrivalConfig
from repro.errors import SimulationError
from repro.faults.spec import ByzantineClientFault, FaultSchedule
from repro.geo.plan import GeoSpec
from repro.geo.topology import GeoTopology, RegionLink, wan3
from repro.run import ModelSpec


def test_geospec_validation():
    with pytest.raises(SimulationError, match="unknown geo mode"):
        GeoSpec(topology=wan3(), mode="cdn")
    with pytest.raises(SimulationError, match="at least one user"):
        GeoSpec(topology=wan3(), users_per_region=0)
    with pytest.raises(SimulationError, match="at least one key"):
        GeoSpec(topology=wan3(), keys=0)
    with pytest.raises(SimulationError, match="read_fraction"):
        GeoSpec(topology=wan3(), read_fraction=1.5)


def test_single_region_topology_has_no_plan():
    solo = GeoTopology(
        name="solo", regions=("only",), links=(RegionLink("only", "only", 1e-5),)
    )
    with pytest.raises(SimulationError, match="single region"):
        GeoSpec(topology=solo)


def test_geo_spec_rejects_non_basil_and_byz():
    geo = GeoSpec(topology=wan3(), mode="edge", users_per_region=2, keys=16)
    with pytest.raises(SimulationError, match="basil"):
        ModelSpec(kind="microbench", geo=geo)
    with pytest.raises(SimulationError, match="byzantine"):
        ModelSpec(kind="basil", geo=geo, byz_client_count=1)
    # the schedule's byz-client faults are the same mix: same refusal
    byz = FaultSchedule(faults=(ByzantineClientFault(count=1),))
    with pytest.raises(SimulationError, match="byz-client faults"):
        ModelSpec(kind="basil", geo=geo, fault_schedule=byz)
    with pytest.raises(SimulationError, match="open-loop arrivals"):
        ModelSpec(kind="basil", geo=geo, arrivals=ArrivalConfig())
    with pytest.raises(SimulationError, match="byzantine client mix"):
        ModelSpec(kind="basil", arrivals=ArrivalConfig(), fault_schedule=byz)
