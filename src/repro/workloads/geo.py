"""The geo session workload: single-key reads/writes from edge users.

Interactive end-user traffic is not transactional batches — it is a
stream of small session operations (read a profile, post an update).
:class:`GeoSessionWorkload` models that as single-key operations over a
shared ``geo/{i}`` key population with a configurable read fraction.
The geo runner consumes :meth:`next_op` directly (users issue raw
operations, not multi-key transactions); :meth:`next_transaction` wraps
each op in a one-op session body so the same workload also runs under
the standard closed-loop :class:`repro.bench.runner.ExperimentRunner`.
"""

from __future__ import annotations

import random
from typing import Any

from repro.workloads.base import IndexedGenesis, TxTask, Workload


def geo_key(index: int) -> str:
    return f"geo/{index}"


class GeoSessionWorkload(Workload):
    """Single-key session ops: ``read_fraction`` reads, the rest writes."""

    name = "geo-sessions"

    def __init__(self, num_keys: int = 120, read_fraction: float = 0.9) -> None:
        self.num_keys = num_keys
        self.read_fraction = read_fraction

    def genesis(self) -> IndexedGenesis:
        return IndexedGenesis(self.num_keys, (("geo/", geo_key),), 0)

    def next_op(self, rng: random.Random) -> tuple[str, str, Any]:
        """One session operation: ``(op, key, value)``.

        Draw order (key roll, op roll, value roll for writes) is fixed —
        it is part of the geo determinism contract across worker counts.
        """
        key = geo_key(rng.randrange(self.num_keys))
        if rng.random() < self.read_fraction:
            return "read", key, None
        return "write", key, rng.randrange(1_000_000)

    def next_transaction(self, rng: random.Random) -> TxTask:
        op, key, value = self.next_op(rng)

        if op == "read":

            async def body(session) -> Any:
                return await session.read(key)

            return TxTask(name="geo-read", body=body)

        async def body(session) -> Any:
            session.write(key, value)

        return TxTask(name="geo-write", body=body)
