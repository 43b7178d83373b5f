"""Region placement of a Basil deployment and the matrix latency model.

**Placement.** Each shard's ``5f+1`` replicas are spread round-robin
across the topology's regions (replica ``i`` lives in region
``i % R``), so every shard spans every region: a commit quorum of
``3f+1`` out of ``5f+1`` necessarily hears from at least two regions and
pays WAN latency — the regime where Basil's quorum-latency results
(PAPER.md Fig 4/6) change shape.  The serving tier is sticky: region
``r`` hosts its own :class:`~repro.geo.edge.EdgeProxy` (``edge/{r}``)
and end users (``user/{r}/{i}``), so user traffic never crosses a
region boundary before the proxy decides it must.

**Latency.** :class:`RegionLatencyModel` implements the
:class:`repro.sim.network.LatencyModel` protocol over a
:class:`~repro.geo.topology.GeoTopology`: each message samples
``base + uniform(0, jitter)`` for its endpoints' region pair — one RNG
draw per message iff the pair has jitter, same contract as the uniform
model.
"""

from __future__ import annotations

from typing import Any

from repro.core.sharding import Sharder
from repro.errors import SimulationError
from repro.geo.topology import GeoTopology


def proxy_name(region: str) -> str:
    return f"edge/{region}"


def user_name(region: str, index: int) -> str:
    return f"user/{region}/{index}"


class GeoPlacement:
    """name -> region mapping for one deployment on one topology."""

    def __init__(
        self,
        topology: GeoTopology,
        config: Any,
        users_per_region: int = 0,
        mode: str = "edge",
    ) -> None:
        self.topology = topology
        self.config = config
        self.users_per_region = users_per_region
        self.mode = mode
        regions = topology.regions
        self._regions_of: dict[str, str] = {}
        self._members: dict[str, list[str]] = {r: [] for r in regions}
        sharder = Sharder(config)
        for shard in range(config.num_shards):
            for i, name in enumerate(sharder.members(shard)):
                self._place(name, regions[i % len(regions)])
        for region in regions:
            if mode == "edge":
                self._place(proxy_name(region), region)
            for i in range(users_per_region):
                self._place(user_name(region, i), region)

    def _place(self, name: str, region: str) -> None:
        self._regions_of[name] = region
        self._members[region].append(name)

    # -- lookups ---------------------------------------------------------
    def region_of(self, name: str) -> str:
        region = self._regions_of.get(name)
        if region is None:
            raise SimulationError(
                f"node {name!r} has no region placement on topology "
                f"{self.topology.name!r}"
            )
        return region

    def nodes_in(self, region: str) -> tuple[str, ...]:
        """Every node hosted in ``region`` (replicas + proxy + users)."""
        try:
            return tuple(self._members[region])
        except KeyError:
            raise SimulationError(
                f"unknown region {region!r} on topology {self.topology.name!r}"
            ) from None

    def replicas_in(self, region: str) -> tuple[str, ...]:
        return tuple(n for n in self.nodes_in(region) if n.startswith("s"))


class RegionLatencyModel:
    """Per-(src, dst) latency looked up through a region placement.

    Implements the :class:`repro.sim.network.LatencyModel` protocol.
    Pair parameters are cached per (src, dst) name pair, so the hot
    ``sample`` path is one dict hit + the usual jitter draw.
    """

    __slots__ = ("topology", "placement", "_pairs")

    def __init__(self, topology: GeoTopology, placement: GeoPlacement) -> None:
        self.topology = topology
        self.placement = placement
        self._pairs: dict[tuple[str, str], tuple[float, float]] = {}

    def _pair(self, src: str, dst: str) -> tuple[float, float]:
        params = self._pairs.get((src, dst))
        if params is None:
            params = self.topology.latency(
                self.placement.region_of(src), self.placement.region_of(dst)
            )
            self._pairs[(src, dst)] = params
        return params

    def sample(self, rng: Any, src: str, dst: str) -> float:
        base, jitter = self._pair(src, dst)
        if jitter:
            base += rng.uniform(0.0, jitter)
        return base

    def describe(self, src: str, dst: str) -> str:
        a = self.placement.region_of(src)
        b = self.placement.region_of(dst)
        base, jitter = self.topology.latency(a, b)
        return f"region pair {a} <-> {b} ({base:g}s base + {jitter:g}s jitter)"
