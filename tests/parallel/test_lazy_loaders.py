"""Implicit genesis: computed populations and first-touch placement.

Retargeted from the eager loader (``stream_load`` / ``iter_data``) this
file was written against; the ``test_stream_load_*`` tests keep their
names — the test floor tracks them — and now pin the same placement
properties on lazily-seeded stores.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.config import SystemConfig
from repro.core.genesis import Genesis
from repro.core.sharding import Sharder
from repro.core.system import BasilSystem
from repro.core.timestamps import Timestamp
from repro.storage.versionstore import VersionStore
from repro.workloads import make_workload
from repro.workloads.smallbank import checking_key, savings_key
from repro.workloads.ycsb import ycsb_key

LATE = Timestamp(10**9, 1)


def test_ycsb_iter_matches_eager_load():
    genesis = make_workload("ycsb-t", keys=200).genesis()
    eager = [(ycsb_key(i), b"\x00" * 64) for i in range(200)]
    assert list(genesis.items()) == eager
    assert len(genesis) == 200


def test_smallbank_iter_matches_eager_load():
    genesis = make_workload("smallbank", keys=50).genesis()
    eager = []
    for account in range(50):
        eager.append((checking_key(account), 10_000))
        eager.append((savings_key(account), 10_000))
    assert list(genesis.items()) == eager
    assert len(genesis) == 100


def test_computed_genesis_rejects_keys_outside_the_population():
    genesis = make_workload("ycsb-t", keys=100).genesis()
    assert ycsb_key(99) in genesis
    for stranger in (ycsb_key(100), "ycsb:7", "ycsb:+0000007", "ycsb:", "ycsb:0000000x",
                     "other:00000001", 7, None, ("ycsb:00000001",)):
        assert stranger not in genesis
        assert genesis.get(stranger, "absent") == "absent"


def test_huge_keyspace_iterates_without_materializing():
    # Paper scale: 10M keys.  Building the dict would be ~GBs; building the
    # mapping, looking keys up and iterating the first few must be free.
    genesis = make_workload("ycsb-t", keys=10_000_000).genesis()
    assert isinstance(genesis, Mapping) and len(genesis) == 10_000_000
    assert genesis[ycsb_key(9_999_999)] == b"\x00" * 64
    it = iter(genesis.items())
    for _ in range(5):
        key, value = next(it)
        assert isinstance(value, bytes)


def _stores(sharder: Sharder, values, shards) -> dict[int, VersionStore]:
    genesis = Genesis(values, sharder)
    stores = {shard: VersionStore() for shard in shards}
    for shard, store in stores.items():
        store.seed(genesis, shard)
    return stores


def test_stream_load_matches_eager_placement():
    sharder = Sharder(SystemConfig(num_shards=3))
    eager = dict(make_workload("ycsb-t", keys=300).genesis())
    stores = _stores(sharder, make_workload("ycsb-t", keys=300).genesis(), range(3))
    seen = {}
    for shard, store in stores.items():
        for key in eager:
            version = store.latest_committed(key, LATE)
            assert (version is not None) == (sharder.shard_of(key) == shard)
            if version is not None:
                seen[key] = version.value
        assert store.stats()["keys"] == sum(
            1 for key in eager if sharder.shard_of(key) == shard
        )
    assert seen == eager


def test_stream_load_skips_unhosted_shards():
    # A partition hosting only shard 1 reads shard-0 keys as absent and
    # never holds state for them.
    sharder = Sharder(SystemConfig(num_shards=2))
    genesis = make_workload("ycsb-t", keys=200).genesis()
    store = _stores(sharder, genesis, [1])[1]
    for key in genesis:
        store.latest_committed(key, LATE)
    loaded = set(store.keys())
    assert loaded
    assert loaded == {k for k in genesis if sharder.shard_of(k) == 1}


def test_stream_load_no_targets_consumes_nothing():
    class ClientsOnly:
        """A partition that hosts none of the deployment's replicas."""

        partition_id = 1

        def partition_of(self, name):
            return 0

        def roster(self):
            return ()

    class Untouchable(Mapping):
        def _refuse(self, *args):
            raise AssertionError("population read by a client-only partition")

        __getitem__ = __iter__ = __len__ = _refuse

    system = BasilSystem(SystemConfig(num_shards=2), partition=ClientsOnly())
    assert not system.replicas
    system.load(Untouchable())  # client-only partitions pay nothing
