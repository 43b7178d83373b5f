"""Geo run descriptions.

A :class:`GeoSpec` is the picklable "geo flavour" attached to a
:class:`repro.run.ModelSpec`: topology, serving mode, user
population and edge-tier knobs.  Geo runs are sequential (``workers=1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.geo.latency import GeoPlacement
from repro.geo.topology import GeoTopology

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
        self.topology.min_cross_region()  # raises on a single-region topology

    def placement(self, config) -> GeoPlacement:
        return GeoPlacement(
            self.topology, config, users_per_region=self.users_per_region,
            mode=self.mode,
        )
