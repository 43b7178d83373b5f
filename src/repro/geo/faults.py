"""Region-correlated fault specs layered on the repro.faults schedule.

WAN failures are correlated by geography: a subsea-cable cut or a
regional cloud outage takes out *every* node a region hosts at once, not
an arbitrary replica subset.  These builders resolve a region through a
:class:`~repro.geo.latency.GeoPlacement` into the explicit node names it
hosts (exact names are valid fnmatch patterns) and compose the standard
:mod:`repro.faults.spec` primitives, so geo fault schedules serialize,
replay, and inject exactly like any other schedule.
"""

from __future__ import annotations

from repro.faults.spec import Fault, FaultSchedule, LinkFault, PartitionFault
from repro.geo.latency import GeoPlacement


def region_blackout(
    placement: GeoPlacement, region: str, start: float, end: float | None
) -> PartitionFault:
    """Partition every node hosted in ``region`` away from everyone else.

    Replicas, the edge proxy, and users of the region land in one
    partition group; the wildcard group holds the rest of the world.
    Intra-region traffic keeps flowing (the region is alive, just cut
    off), which is exactly the regime the edge tier's lease cache is
    supposed to ride out.
    """
    return PartitionFault(
        groups=(placement.nodes_in(region), ("*",)),
        start=start,
        end=end,
    )


def region_isolation(
    placement: GeoPlacement, region_a: str, region_b: str,
    start: float, end: float | None,
) -> tuple[LinkFault, ...]:
    """Cut only the ``region_a <-> region_b`` links, both directions.

    Models a single inter-region route failure: both regions stay
    reachable from everywhere else, so quorums re-form around the cut.
    """
    faults = []
    for src_region, dst_region in ((region_a, region_b), (region_b, region_a)):
        for src in placement.nodes_in(src_region):
            for dst in placement.nodes_in(dst_region):
                faults.append(
                    LinkFault(src=src, dst=dst, start=start, end=end, drop_rate=1.0)
                )
    return tuple(faults)


def region_slowdown(
    placement: GeoPlacement, region: str, start: float, end: float | None,
    extra_delay: float, delay_jitter: float = 0.0,
) -> tuple[LinkFault, ...]:
    """Add ``extra_delay`` to every message leaving ``region``.

    A brown-out rather than a blackout: congestion on the region's
    egress.  Only the outbound side is degraded so the asymmetry is
    visible in per-region latency series.
    """
    return tuple(
        LinkFault(
            src=src, dst="*", start=start, end=end,
            extra_delay=extra_delay, delay_jitter=delay_jitter,
        )
        for src in placement.nodes_in(region)
    )


def region_fault_schedule(name: str, faults: tuple[Fault, ...]) -> FaultSchedule:
    """Wrap region faults in a named, serializable schedule."""
    return FaultSchedule(name=name, faults=tuple(faults))
