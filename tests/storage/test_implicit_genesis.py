"""A lazily-seeded store is indistinguishable from an eagerly loaded one.

The reference store has every population key of its shard written with
``apply_committed_write(key, GENESIS, ...)`` up front (what ``load`` did
before genesis became implicit); the store under test is only pointed at
the shared :class:`Genesis`.  Both are driven through the same random
operation sequences and must agree on every return value, every raised
error, and every introspection answer — while the lazy store holds state
for nothing the sequence did not touch.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.txsmr.occ import OCCStore, ShardTx, _Entry
from repro.config import SystemConfig
from repro.core.certificates import GENESIS_TXID
from repro.core.genesis import Genesis
from repro.core.sharding import Sharder
from repro.core.timestamps import GENESIS, Timestamp
from repro.errors import StorageError
from repro.storage.versionstore import _EMPTY, VersionStore

SHARDER = Sharder(SystemConfig(num_shards=2))
POPULATION = {f"p{i}": f"v{i}" for i in range(12)}
#: Population keys of both shards plus keys nobody loaded.
KEYS = sorted(POPULATION) + ["stranger-a", "stranger-b", "stranger-c"]
SHARD = 0
LOCAL = [k for k in POPULATION if SHARDER.shard_of(k) == SHARD]
assert 0 < len(LOCAL) < len(POPULATION)  # both shards own part of it

keys = st.sampled_from(KEYS)
#: Small timestamps so operations collide; GENESIS itself is reachable,
#: and so is a probe from below it.
stamps = st.builds(Timestamp, st.integers(-1, 6), st.integers(0, 2))
writers = st.sampled_from([b"w1", b"w2", GENESIS_TXID])


def _ops(*names):
    return st.sampled_from(names)


store_ops = st.lists(
    st.one_of(
        st.tuples(_ops("latest_committed", "latest_prepared", "update_rts",
                       "remove_rts", "has_rts_above", "max_rts", "reads_spanning",
                       "promote_prepared_write", "remove_prepared_write",
                       "committed_versions", "prepared_versions", "__contains__"),
                  keys, stamps),
        st.tuples(_ops("writes_between"), keys, stamps, stamps),
        st.tuples(_ops("add_prepared_write", "apply_committed_write"),
                  keys, stamps, st.integers(0, 3), writers),
        st.tuples(_ops("add_read", "remove_read"), keys, stamps, stamps, writers),
    ),
    max_size=60,
)


def _call(store, op):
    name, key, *args = op
    if name in ("max_rts", "committed_versions", "prepared_versions", "__contains__"):
        args = []
    try:
        return getattr(store, name)(key, *args)
    except StorageError as exc:
        return ("StorageError", str(exc))


def _pair():
    lazy, eager = VersionStore(), VersionStore()
    lazy.seed(Genesis(POPULATION, SHARDER), SHARD)
    for key in LOCAL:
        eager.apply_committed_write(key, GENESIS, POPULATION[key], GENESIS_TXID)
    return lazy, eager


@settings(max_examples=300, deadline=None)
@given(store_ops)
def test_version_store_matches_eager_reference(ops):
    lazy, eager = _pair()
    touched = set()
    for op in ops:
        assert _call(lazy, op) == _call(eager, op), op
        touched.add(op[1])
        assert lazy.stats() == eager.stats()
    lazy.check_invariants()
    eager.check_invariants()
    for store in (lazy, eager):  # an emptied chain is the shared () again
        for state in store._keys.values():
            for chain in (state.committed, state.prepared, state.rts, state.reads):
                assert chain or chain is _EMPTY
    for key in KEYS:
        assert (key in lazy) == (key in eager)
        assert lazy.committed_versions(key) == eager.committed_versions(key)
        assert lazy.prepared_versions(key) == eager.prepared_versions(key)
    # first touch only: no state for keys the sequence never named, and
    # asking about them above did not create any
    assert set(lazy.keys()) <= touched
    assert set(lazy.keys()) <= set(eager.keys())


def test_untouched_store_reports_the_eager_numbers():
    lazy, eager = _pair()
    assert not list(lazy.keys())
    assert lazy.stats() == eager.stats()
    assert lazy.stats()["keys"] == lazy.stats()["committed_versions"] == len(LOCAL)
    lazy.latest_committed(LOCAL[0], Timestamp(5, 1))
    assert list(lazy.keys()) == [LOCAL[0]]
    assert lazy.stats() == eager.stats()


def test_genesis_version_is_one_object_across_replicas():
    genesis = Genesis(POPULATION, SHARDER)
    replicas = [VersionStore() for _ in range(6)]
    for store in replicas:
        store.seed(genesis, SHARD)
    seen = {id(store.latest_committed(LOCAL[0], Timestamp(5, 1))) for store in replicas}
    assert len(seen) == 1
    # ... while the per-key bookkeeping stays private to each replica
    replicas[0].update_rts(LOCAL[0], Timestamp(3, 1))
    assert replicas[1].max_rts(LOCAL[0]) is None


def test_footprint_counts_only_what_the_store_touched():
    genesis = Genesis(POPULATION, SHARDER)
    store = VersionStore()
    store.seed(genesis, SHARD)
    assert store.footprint() == {"touched_keys": 0, "stored_versions": 0}
    store.apply_committed_write(LOCAL[0], Timestamp(3, 1), "new", b"w1")
    store.latest_committed(LOCAL[1], Timestamp(5, 1))
    assert store.footprint() == {"touched_keys": 2, "stored_versions": 1}
    # the population-wide counts are unchanged in meaning
    assert store.stats()["keys"] == len(LOCAL)
    assert store.stats()["committed_versions"] == len(LOCAL) + 1
    # a key outside the population holds all its versions itself
    store.add_prepared_write("stranger-a", Timestamp(4, 1), "p", b"w2")
    assert store.footprint() == {"touched_keys": 3, "stored_versions": 2}


def test_population_census_is_counted_once():
    class Counting(dict):
        walks = 0

        def __iter__(self):
            type(self).walks += 1
            return super().__iter__()

    genesis = Genesis(Counting(POPULATION), SHARDER)
    stores = [VersionStore() for _ in range(3)]
    for store in stores:
        store.seed(genesis, SHARD)
    for _ in range(5):
        for store in stores:
            assert store.stats()["keys"] == len(LOCAL)
    assert Counting.walks == 1


# ---------------------------------------------------------------------------
# OCCStore (TxSMR)
# ---------------------------------------------------------------------------
versions = st.integers(0, 3)
txids = st.sampled_from([b"t%d" % i for i in range(6)])
shard_txs = st.builds(
    ShardTx,
    txid=txids,
    read_set=st.lists(st.tuples(keys, versions), max_size=3).map(tuple),
    write_set=st.lists(st.tuples(keys, st.integers(0, 9)), max_size=3).map(tuple),
)
occ_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), keys),
        st.tuples(st.just("prepare"), shard_txs),
        st.tuples(_ops("commit", "abort"), txids),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(occ_ops)
def test_occ_store_matches_eager_reference(ops):
    lazy, eager = OCCStore(), OCCStore()
    lazy.data.seed(Genesis(POPULATION, SHARDER), SHARD)
    for key in LOCAL:
        eager.data[key] = _Entry(value=POPULATION[key], version=1)
    for name, arg in ops:
        assert getattr(lazy, name)(arg) == getattr(eager, name)(arg), (name, arg)
    assert lazy.prepared == eager.prepared
    assert lazy.write_locks == eager.write_locks
    assert lazy.read_locks == eager.read_locks
    assert set(lazy.data) <= set(eager.data)
    for key in KEYS:
        assert lazy.read(key) == eager.read(key)
