"""Absolute schedule pins for the four protocol shapes basilbench runs.

Each case is a small run of one ``basilbench`` workload's shape: 2
shards with the default ``CryptoConfig`` (verify memo on), the same with
crypto off, 1 shard Zipf with stall-late Byzantine clients, and Basil on
the ``wan3`` matrix behind the edge tier.  For each, the trace digest,
the dispatched event count, the commits and the final scheduling
sequence number (``sim._seq``: every heap push, fired or not) are pinned
in the ledger (``tests/pins.json``).

A change that only makes events cheaper — the kernel, the CPU model's
bookkeeping, certificate verification, canonical encoding — must leave
all four values of all four cases untouched.  Comparing two code paths
of the same tree (``workers=1`` against sequential, profiler on against
off) cannot catch such a change, because both paths move together.
"""

from __future__ import annotations

import pytest

from repro.config import CryptoConfig, SystemConfig
from repro.geo.plan import GeoSpec
from repro.geo.topology import wan3
from repro.run import ModelSpec, SequentialRun


def _spec(name: str) -> ModelSpec:
    if name == "sig-2shard":
        return ModelSpec(
            kind="basil",
            config=SystemConfig(f=1, num_shards=2, batch_size=4, seed=2024),
            workload="ycsb-t", workload_keys=1_000, num_clients=8,
            duration=0.02, warmup=0.005,
        )
    if name == "nosig-2shard":
        return ModelSpec(
            kind="basil",
            config=SystemConfig(f=1, num_shards=2, batch_size=4, seed=2024,
                                crypto=CryptoConfig(enabled=False)),
            workload="ycsb-t", workload_keys=2_000, num_clients=8,
            duration=0.005, warmup=0.002,
        )
    if name == "zipf-byz":
        return ModelSpec(
            kind="basil",
            config=SystemConfig(f=1, num_shards=1, batch_size=4, seed=2024),
            workload="ycsb-z", workload_keys=1_000, num_clients=10,
            duration=0.05, warmup=0.01,
            byz_client_behaviour="stall-late", byz_client_count=3,
        )
    if name == "geo-wan3-edge":
        return ModelSpec(
            kind="basil",
            config=SystemConfig(f=1, num_shards=1, batch_size=4, seed=2024),
            geo=GeoSpec(topology=wan3(), mode="edge", users_per_region=3, keys=32),
            duration=2.0, warmup=0.5,
        )
    raise KeyError(name)


#: The pinned cases; each one's values are ledger entry ``schedule/<name>``.
CASES = ("geo-wan3-edge", "nosig-2shard", "sig-2shard", "zipf-byz")


def observe(name: str) -> dict[str, int | str]:
    run = SequentialRun(_spec(name))
    result = run.run()
    return {"digest": result.digest, "events": result.events,
            "commits": result.bench["commits"], "seq": run.sim._seq}


@pytest.mark.parametrize("name", CASES)
def test_schedule_is_pinned(name, pin):
    pin(f"schedule/{name}", observe(name))
