"""Partition plans: how a node graph maps onto logical partitions.

A :class:`PartitionPlan` is a pure, picklable description — it decides
*where every node lives* and what the conservative lookahead is, and it
is the only thing workers and the coordinator must agree on.  Plans are
functions of the topology alone (never of the worker count), which is
what makes run digests invariant across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SimulationError


@dataclass(frozen=True)
class PartitionPlan:
    """Placement of every node onto ``num_partitions`` logical partitions.

    ``assignment`` pins named nodes to partitions; any name not pinned
    falls through to ``default_partition`` (Basil uses this for clients,
    which are created dynamically as ``client/{id}``).  ``roster`` is
    the full set of node names in the deployment — every partition
    pre-issues signing keys for all of them so cross-partition
    signatures verify.
    """

    num_partitions: int
    lookahead: float
    assignment: tuple[tuple[str, int], ...] = ()
    roster_names: tuple[str, ...] = ()
    default_partition: int = 0
    label: str = "plan"

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise SimulationError("plan needs at least one partition")
        if self.lookahead <= 0.0:
            raise SimulationError("lookahead must be positive")
        for name, pid in self.assignment:
            if not 0 <= pid < self.num_partitions:
                raise SimulationError(f"{name!r} assigned to bad partition {pid}")

    @property
    def _index(self) -> dict[str, int]:
        index = self.__dict__.get("_index_memo")
        if index is None:
            index = dict(self.assignment)
            object.__setattr__(self, "_index_memo", index)
        return index

    def partition_of(self, name: str) -> int:
        return self._index.get(name, self.default_partition)

    def roster(self) -> tuple[str, ...]:
        return self.roster_names

    def slice(self, partition_id: int) -> "PlanSlice":
        if not 0 <= partition_id < self.num_partitions:
            raise SimulationError(f"no partition {partition_id} in this plan")
        return PlanSlice(plan=self, partition_id=partition_id)

    def assign_workers(self, num_workers: int) -> list[tuple[int, ...]]:
        """Round-robin partitions onto workers; worker i gets i, i+N, ...

        Purely a *hosting* decision: each partition runs on its own
        simulator regardless, so this mapping cannot affect schedules.
        """
        if num_workers < 1:
            raise SimulationError("need at least one worker")
        num_workers = min(num_workers, self.num_partitions)
        owned: list[list[int]] = [[] for _ in range(num_workers)]
        for pid in range(self.num_partitions):
            owned[pid % num_workers].append(pid)
        return [tuple(pids) for pids in owned]


@dataclass(frozen=True)
class PlanSlice:
    """One partition's view of a plan — the ``partition`` argument the
    partition-aware system builders (e.g. ``BasilSystem``) accept."""

    plan: PartitionPlan
    partition_id: int

    def partition_of(self, name: str) -> int:
        return self.plan.partition_of(name)

    def roster(self) -> tuple[str, ...]:
        return self.plan.roster()


def basil_plan(config: Any, num_clients: int) -> PartitionPlan:
    """Shard-per-partition placement for a Basil deployment.

    Partition ``s`` hosts shard ``s``'s ``5f+1`` replicas; the last
    partition hosts every client (clients talk to all shards, so giving
    them their own partition keeps each replica partition's inbound
    traffic shard-local).  Lookahead is the *base* one-way latency:
    jitter only ever adds delay, so no delivery can undercut it.
    """
    from repro.core.sharding import Sharder

    sharder = Sharder(config)
    num_partitions = config.num_shards + 1
    client_pid = config.num_shards
    assignment = tuple(
        (name, sharder.shard_of_replica(name)) for name in sharder.all_replicas()
    )
    clients = tuple(f"client/{i}" for i in range(1, num_clients + 1))
    return PartitionPlan(
        num_partitions=num_partitions,
        lookahead=config.network.one_way_latency,
        assignment=assignment,
        roster_names=tuple(name for name, _ in assignment) + clients,
        default_partition=client_pid,
        label=f"basil/{config.num_shards}shards+clients",
    )


def uniform_plan(num_partitions: int, lookahead: float) -> PartitionPlan:
    """A plan of anonymous partitions (the kernel microbenchmark)."""
    return PartitionPlan(
        num_partitions=num_partitions,
        lookahead=lookahead,
        label=f"uniform/{num_partitions}",
    )


def audit_rng_streams(
    seed: int, streams_by_partition: dict[int, dict[str, str]]
) -> None:
    """Assert the RNG namespace discipline held for a whole run.

    ``streams_by_partition`` maps partition id to that simulator's
    ``rng_streams()`` (stream name -> full derivation key).  Raises
    :class:`SimulationError` if any stream was derived outside its
    partition's ``(seed, partition_id)`` namespace, or if any two
    partitions derived the same key (which would mean two partitions
    observed identical draw sequences).
    """
    seen: dict[str, int] = {}
    for pid, streams in streams_by_partition.items():
        prefix = f"{seed}/p{pid}/"
        for stream, key in streams.items():
            if key != prefix + stream:
                raise SimulationError(
                    f"partition {pid} stream {stream!r} derived as {key!r}, "
                    f"expected prefix {prefix!r}"
                )
            other = seen.get(key)
            if other is not None:
                raise SimulationError(
                    f"partitions {other} and {pid} share RNG key {key!r}"
                )
            seen[key] = pid
