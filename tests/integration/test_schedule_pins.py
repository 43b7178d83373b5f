"""Absolute schedule pins for the four protocol shapes basilbench runs.

Each case is a small run of one ``basilbench`` workload's shape: 2
shards with the default ``CryptoConfig`` (verify memo on), the same with
crypto off, 1 shard Zipf with stall-late Byzantine clients, and Basil on
the ``wan3`` matrix behind the edge tier.  For each, the trace digest,
the dispatched event count, the commits and the final scheduling
sequence number (``sim._seq``: every heap push, fired or not) are pinned
to constants.

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


#: name -> (trace digest, events, commits, final sim._seq)
PINS = {
    "geo-wan3-edge": (
        "7f7250b351acdbbf02c2512cd803af298b81e31324bd79e729a7dc4e31e66d09",
        9090, 34, 9889,
    ),
    "nosig-2shard": (
        "057beec86afebe78b11f78826a8edee588f27be2a44789d8e1d8f6e99773422e",
        4902, 21, 5852,
    ),
    "sig-2shard": (
        "fe0f35a7c9e19d3e4e0e486f9aa0c72324fcb38de4c68e8dd5f70de7c73dbc86",
        16965, 24, 17918,
    ),
    "zipf-byz": (
        "42d9ca4f7ed71bb9189720d6833f91e54901724df468461ef255cba1c862daa5",
        26596, 32, 28610,
    ),
}


def observe(name: str) -> tuple[str, int, int, int]:
    run = SequentialRun(_spec(name))
    result = run.run()
    return result.digest, result.events, result.bench["commits"], run.sim._seq


@pytest.mark.parametrize("name", sorted(PINS))
def test_schedule_is_pinned(name):
    assert observe(name) == PINS[name]


if __name__ == "__main__":  # prints the PINS table for this tree
    for case in sorted(PINS):
        print(f"    {case!r}: {observe(case)!r},")
