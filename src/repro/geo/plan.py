"""Geo run descriptions and region-per-partition plans.

A :class:`GeoSpec` is the picklable "geo flavour" attached to a
:class:`repro.run.ModelSpec`: topology, serving mode, user
population and edge-tier knobs.  :func:`geo_plan` maps a geo deployment
onto partitions **one region per partition**: a region's replicas, edge
proxy, and users all share a partition, so every cross-partition message
is by construction a cross-region message and the conservative lookahead
is the *minimum cross-region base latency* of the matrix — typically
three orders of magnitude wider than the single-link 75 µs bound, i.e.
~500x fewer windows for the same simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.geo.latency import GeoPlacement
from repro.geo.topology import GeoTopology
from repro.parallel.partition import PartitionPlan

#: Serving modes the runner understands.
MODES = ("edge", "direct")


@dataclass(frozen=True)
class GeoSpec:
    """Picklable description of one geo-distributed serving experiment."""

    topology: GeoTopology
    #: ``edge`` — users talk to their region's EdgeProxy (lease reads,
    #: write-back batches); ``direct`` — users are Basil clients issuing
    #: quorum reads and 2PC commits straight at the core.
    mode: str = "edge"
    users_per_region: int = 4
    #: Geo key population (keys ``geo/0 .. geo/{keys-1}``, genesis 0).
    #: Kept hot by default: interactive serving reads concentrate on a
    #: small working set, which is what a lease cache exists to exploit.
    keys: int = 24
    read_fraction: float = 0.9
    #: Read-lease TTL at the proxy, simulated seconds (the bounded
    #: staleness the edge trade-off accepts).
    lease_ttl: float = 2.0
    #: Write-back batch flush cadence / max batch size.
    flush_interval: float = 0.02
    flush_max: int = 8
    #: Closed-loop think time between user operations.
    think_time: float = 0.005

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise SimulationError(
                f"unknown geo mode {self.mode!r} (one of {', '.join(MODES)})"
            )
        if self.users_per_region < 1:
            raise SimulationError("geo runs need at least one user per region")
        if self.keys < 1:
            raise SimulationError("geo runs need at least one key")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise SimulationError("read_fraction must be within [0, 1]")

    def placement(self, config) -> GeoPlacement:
        return GeoPlacement(
            self.topology, config, users_per_region=self.users_per_region,
            mode=self.mode,
        )


def derive_lookahead(topology: GeoTopology) -> float:
    """Lookahead from the minimum cross-region entry of the latency matrix.

    Jitter only ever adds delay, so no cross-region delivery can undercut
    the fastest pair's base.  Raises a :class:`SimulationError` naming
    the offending region pair when that minimum cannot bound a window.
    """
    fastest = topology.min_cross_region()
    if fastest.base <= 0.0:
        raise SimulationError(
            f"region pair {fastest.a} <-> {fastest.b} has a zero base "
            f"latency: the latency matrix of {topology.name!r} admits "
            f"instantaneous cross-region delivery, so no positive "
            f"cross-partition lookahead can be derived from it"
        )
    return fastest.base


def geo_plan(config, geo: GeoSpec) -> PartitionPlan:
    """Region-per-partition plan with matrix-derived lookahead.

    Partition ``r`` hosts everything placed in region ``r``; per-pair
    floors record each region pair's base latency so a partitioned run
    can detect (and name) the pair any under-lookahead delivery crossed.
    """
    topology = geo.topology
    if len(topology.regions) < 2:
        raise SimulationError(
            f"topology {topology.name!r} has a single region; a geo plan "
            f"needs at least two partitions"
        )
    placement = geo.placement(config)
    index = {region: pid for pid, region in enumerate(topology.regions)}
    assignment = tuple(
        (name, index[placement.region_of(name)]) for name in placement.roster()
    )
    pair_floors = tuple(
        (index[link.a], index[link.b], link.base)
        for link in topology.cross_region_links()
    )
    return PartitionPlan(
        num_partitions=len(topology.regions),
        lookahead=derive_lookahead(topology),
        assignment=assignment,
        roster_names=tuple(name for name, _ in assignment),
        default_partition=0,
        label=f"geo/{topology.name}/{geo.mode}",
        partition_labels=topology.regions,
        pair_floors=pair_floors,
    )
