"""Build and drive one geo-distributed serving experiment.

:func:`build_geo_system` wires a :class:`~repro.core.system.BasilSystem`
whose network samples latency from the topology's region matrix
(:class:`~repro.geo.latency.RegionLatencyModel`) and whose replicas know
their hosting region.  :class:`GeoRunner` then stands up the serving
tier — per-region :class:`~repro.geo.edge.EdgeProxy` + users in ``edge``
mode, per-region :class:`~repro.geo.edge.DirectUser` Basil clients in
``direct`` mode — runs the closed loop, and reports *end-user* latency
measured at the session boundary, per region, next to the core's commit
statistics.  That separation is the point of the experiment: the edge
tier's lease/write-back decoupling keeps the end-user path regional
while consensus still pays WAN quorum latency underneath.

``GeoRunner`` is a :class:`repro.bench.runner.Driver`: ``setup()``
schedules everything without executing an event, ``finalize()``
summarizes, so the run pipeline (:mod:`repro.run`) drives it like the
other drivers.  Geo runs are sequential.
"""

from __future__ import annotations

from typing import Any

from repro.bench.runner import BenchResult, Driver
from repro.geo.edge import DirectUser, EdgeProxy, EdgeUser, RegionStats, histogram
from repro.geo.latency import RegionLatencyModel, user_name
from repro.geo.obs import edge_probe, geo_health_rules
from repro.geo.plan import GeoSpec
from repro.workloads.geo import GeoSessionWorkload


def wan_timeouts(config: Any, topology: Any) -> Any:
    """Raise the client timeout knobs to WAN scale for ``topology``.

    The defaults are calibrated for a 0.15 ms-ping datacenter; on a WAN
    matrix they fire long before a cross-region round trip completes, so
    every prepare "starves" at 8 x 5 ms and every read is resolved by a
    timeout-driven rebroadcast to the sender's local replicas — masking
    the very latency the experiment measures.  Each knob is raised (never
    lowered) to a multiple of the topology's worst cross-region RTT.
    """
    rtt = 2.0 * max(
        link.base + link.jitter for link in topology.cross_region_links()
    )
    return config.with_overrides(
        request_timeout=max(config.request_timeout, 2.5 * rtt),
        dependency_timeout=max(config.dependency_timeout, 1.5 * rtt),
        fallback_view_timeout=max(config.fallback_view_timeout, 2.0 * rtt),
    )


def build_geo_system(config: Any, geo: GeoSpec) -> Any:
    """A Basil deployment on ``geo``'s topology.

    Replicas carry their hosting region (``replica.region``) so the
    core's churn metrics come out region-labeled, and the network's
    latency model resolves every (src, dst) pair through the placement.
    Client timeouts are raised to WAN scale via :func:`wan_timeouts`.
    """
    from repro.core.system import BasilSystem

    config = wan_timeouts(config, geo.topology)
    placement = geo.placement(config)
    model = RegionLatencyModel(geo.topology, placement)
    system = BasilSystem(config, latency=model)
    for name, replica in system.replicas.items():
        replica.region = placement.region_of(name)
    return system


#: Client-id block per region: region ``i`` owns ids ``1000*(i+1) ...``.
#: Blocks keep client ids (which salt Basil timestamps) unique across
#: regions.
_REGION_ID_BLOCK = 1000


class GeoRunner(Driver):
    """Closed-loop geo serving experiment over one system."""

    def __init__(
        self,
        system: Any,
        geo: GeoSpec,
        duration: float = 0.3,
        warmup: float = 0.05,
        name: str = "",
        recorder: Any = None,
        injector: Any = None,
    ) -> None:
        super().__init__(
            system,
            GeoSessionWorkload(num_keys=geo.keys, read_fraction=geo.read_fraction),
            duration, warmup,
            name or f"geo-{geo.topology.name}-{geo.mode}", injector, recorder,
        )
        self.geo = geo
        self.regions = geo.topology.regions
        self.proxies: dict[str, EdgeProxy] = {}
        self.users: dict[str, list[Any]] = {}
        self.stats: dict[str, RegionStats] = {}

    def _start(self, end_time: float) -> None:
        """Stand up the serving tier, then attach the recorder."""
        from repro.core.system import CLOCK_EPOCH

        system, geo = self.system, self.geo
        sim, config = system.sim, system.config
        window_end = self.warmup + self.duration
        skew_rng = sim.rng("clock-skew")
        for region in self.regions:
            base_id = _REGION_ID_BLOCK * (geo.topology.region_index(region) + 1)
            stats = self.stats[region] = RegionStats(region, self.warmup, window_end)
            members: list[Any] = []
            if geo.mode == "edge":
                proxy = EdgeProxy(
                    sim, base_id, system.network, config, system.sharder,
                    system.registry, region=region, lease_ttl=geo.lease_ttl,
                    flush_interval=geo.flush_interval, flush_max=geo.flush_max,
                )
                proxy.clock_offset = CLOCK_EPOCH + skew_rng.uniform(
                    -config.clock_skew, config.clock_skew
                )
                system.network.register(proxy)
                proxy.start()
                self.proxies[region] = proxy
                for i in range(geo.users_per_region):
                    user = EdgeUser(
                        sim, user_name(region, i), system.network, config,
                        region=region, proxy=proxy.name, workload=self.workload,
                        rng=sim.rng(f"geo-user/{region}/{i}"), stats=stats,
                        stop_issuing=window_end, end_time=end_time,
                        think_time=geo.think_time,
                    )
                    system.network.register(user)
                    user.start()
                    members.append(user)
            else:
                for i in range(geo.users_per_region):
                    user = DirectUser(
                        sim, base_id + 1 + i, system.network, config,
                        system.sharder, system.registry, region=region,
                        index=i, workload=self.workload,
                        rng=sim.rng(f"geo-user/{region}/{i}"), stats=stats,
                        stop_issuing=window_end, end_time=end_time,
                        think_time=geo.think_time,
                    )
                    user.clock_offset = CLOCK_EPOCH + skew_rng.uniform(
                        -config.clock_skew, config.clock_skew
                    )
                    system.network.register(user)
                    user.start()
                    members.append(user)
            self.users[region] = members
        if self.recorder is not None:
            self.recorder.rules = list(self.recorder.rules) + geo_health_rules(
                self.regions
            )
            if self.proxies:
                self.recorder.ticker.add_probe(edge_probe(self.proxies))
            self.recorder.attach(system, until=end_time)

    def _result(self) -> BenchResult:
        geo, topology = self.geo, self.geo.topology
        per_region: dict[str, dict[str, Any]] = {}
        read_samples: list[float] = []
        write_samples: list[float] = []
        commits = aborts = fast = failures = 0
        for region in self.regions:
            stats = self.stats[region]
            row = stats.summary()
            proxy = self.proxies.get(region)
            members = list(self.users[region])
            if proxy is not None:
                members.append(proxy)
                looked = proxy.lease_hits + proxy.lease_misses
                row["lease_hits"] = proxy.lease_hits
                row["lease_misses"] = proxy.lease_misses
                row["lease_hit_rate"] = proxy.lease_hits / looked if looked else 0.0
                row["writebacks"] = proxy.writebacks
                row["writeback_commits"] = proxy.writeback_commits
                row["writeback_aborts"] = proxy.writeback_aborts
            row["read_failures"] = sum(
                getattr(n, "read_failures", 0) for n in members
            )
            commits += sum(getattr(n, "core_commits", 0) for n in members)
            fast += sum(getattr(n, "core_fast_commits", 0) for n in members)
            aborts += sum(getattr(n, "core_aborts", 0) for n in members)
            failures += stats.failures
            read_samples.extend(stats.reads)
            write_samples.extend(stats.writes)
            per_region[region] = row
        all_samples = read_samples + write_samples
        ops = len(all_samples)
        reads, writes = histogram(read_samples), histogram(write_samples)
        fastest = topology.min_cross_region()
        extra_geo: dict[str, Any] = {
            "topology": topology.name,
            "mode": geo.mode,
            "regions": per_region,
            "min_cross_region_base": fastest.base,
            "cross_region_rtt": 2.0 * fastest.base,
            "ops": ops,
            "failures": failures,
            "read_p50": reads.percentile(50),
            "read_p99": reads.percentile(99),
            "write_p50": writes.percentile(50),
            "write_p99": writes.percentile(99),
        }
        attempts = commits + aborts
        return self._row(
            throughput=ops / self.duration if self.duration else 0.0,
            mean_latency=sum(all_samples) / ops if ops else 0.0,
            p99_latency=histogram(all_samples).percentile(99),
            commit_rate=commits / attempts if attempts else 1.0,
            fast_path_rate=fast / commits if commits else 0.0,
            commits=commits,
            aborts=aborts,
            extra={"geo": extra_geo},
        )
