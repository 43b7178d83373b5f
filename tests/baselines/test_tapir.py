"""Tests for the TAPIR baseline."""

import pytest

from repro.baselines.tapir.store import TapirStore, TapirVote
from repro.baselines.tapir.system import TapirSystem
from repro.config import SystemConfig
from repro.core.genesis import Genesis
from repro.core.sharding import Sharder
from repro.core.timestamps import GENESIS, Timestamp
from repro.core.transaction import TxBuilder


def loaded(**items):
    """A store whose (implicit) genesis holds ``items``."""
    store = TapirStore()
    store.versions.seed(Genesis(items, Sharder(SystemConfig())), 0)
    return store


def ts(t, c=1):
    return Timestamp(t, c)


def make_tx(stamp, reads=(), writes=()):
    b = TxBuilder(timestamp=stamp)
    for k, v in reads:
        b.record_read(k, v)
    for k, v in writes:
        b.record_write(k, v)
    return b.freeze()


# ---------------------------------------------------------------------------
# Store-level OCC
# ---------------------------------------------------------------------------
def test_occ_clean_prepare_ok():
    store = loaded(k=1)
    tx = make_tx(ts(10), reads=[("k", GENESIS)], writes=[("k", 2)])
    assert store.occ_check(tx) is TapirVote.OK


def test_occ_stale_read_aborts():
    store = loaded(k=1)
    tx1 = make_tx(ts(5), writes=[("k", 2)])
    store.occ_check(tx1)
    store.commit(tx1)
    late = make_tx(ts(10), reads=[("k", GENESIS)], writes=[("x", 1)])
    assert store.occ_check(late) is TapirVote.ABORT


def test_occ_conflict_with_prepared_is_abstain():
    store = TapirStore()
    tx1 = make_tx(ts(5), writes=[("k", 2)])
    assert store.occ_check(tx1) is TapirVote.OK
    # reader that would miss the *prepared* write: ABSTAIN (retryable)
    late = make_tx(ts(10), reads=[("k", GENESIS)])
    assert store.occ_check(late) is TapirVote.ABSTAIN


def test_occ_prepared_writes_invisible_to_reads():
    store = loaded(k=1)
    tx1 = make_tx(ts(5), writes=[("k", 99)])
    store.occ_check(tx1)
    version = store.read("k", ts(10))
    assert version.value == 1  # still the committed value


def test_occ_duplicate_prepare_idempotent():
    store = TapirStore()
    tx = make_tx(ts(5), writes=[("k", 2)])
    assert store.occ_check(tx) is TapirVote.OK
    assert store.occ_check(tx) is TapirVote.OK


def test_abort_releases_prepared_state():
    store = TapirStore()
    tx = make_tx(ts(5), writes=[("k", 2)])
    store.occ_check(tx)
    store.abort(tx)
    late = make_tx(ts(10), reads=[("k", GENESIS)])
    assert store.occ_check(late) is TapirVote.OK


# ---------------------------------------------------------------------------
# Shard parts: a replica validates only what lies on its own shard
# ---------------------------------------------------------------------------
TWO_SHARDS = Sharder(SystemConfig(f=1, num_shards=2))
OWNED, FOREIGN = "owned", "foreign"  # on shards 0 and 1 of TWO_SHARDS


def test_a_foreign_key_is_left_to_its_own_shard():
    assert [TWO_SHARDS.shard_of(k) for k in (OWNED, FOREIGN)] == [0, 1]
    store = TapirStore()
    writer = make_tx(ts(5), writes=[(OWNED, 1), (FOREIGN, 2)])
    assert store.occ_check(TWO_SHARDS.part_of(writer, 0)) is TapirVote.OK
    store.commit(TWO_SHARDS.part_of(writer, 0))
    assert list(store.versions.keys()) == [OWNED]
    # a read that missed the foreign write is the other shard's to judge
    late = make_tx(ts(10), reads=[(FOREIGN, GENESIS)], writes=[(OWNED, 3), (FOREIGN, 4)])
    assert store.occ_check(TWO_SHARDS.part_of(late, 0)) is TapirVote.OK
    store.abort(TWO_SHARDS.part_of(late, 0))
    assert list(store.versions.keys()) == [OWNED]


def test_a_conflict_on_an_owned_key_still_aborts():
    store = TapirStore()
    writer = make_tx(ts(5), writes=[(OWNED, 1)])
    store.occ_check(TWO_SHARDS.part_of(writer, 0))
    store.commit(TWO_SHARDS.part_of(writer, 0))
    stale = make_tx(ts(10), reads=[(OWNED, GENESIS)], writes=[(FOREIGN, 3)])
    assert store.occ_check(TWO_SHARDS.part_of(stale, 0)) is TapirVote.ABORT


# ---------------------------------------------------------------------------
# System-level
# ---------------------------------------------------------------------------
@pytest.fixture()
def system():
    sys_ = TapirSystem(SystemConfig(f=1, num_shards=1))
    sys_.load({f"k{i}": i for i in range(5)})
    return sys_


def test_tapir_uses_2f_plus_1_replicas(system):
    assert len(system.replicas) == 3


def test_tapir_commit_fast_path(system):
    client = system.create_client()

    async def main():
        session = system.new_session(client)
        value = await session.read("k1")
        session.write("k1", value + 10)
        return await session.commit()

    result = system.sim.run_until_complete(main())
    assert result.committed and result.fast_path
    system.run()
    assert system.committed_value("k1") == 11


def test_tapir_read_own_write(system):
    client = system.create_client()

    async def main():
        session = system.new_session(client)
        session.write("k1", 77)
        return await session.read("k1")

    assert system.sim.run_until_complete(main()) == 77


def test_tapir_conflicting_rmw_one_aborts(system):
    a, b = system.create_client(), system.create_client()

    async def rmw(client, delta):
        session = system.new_session(client)
        value = await session.read("k1")
        session.write("k1", value + delta)
        return await session.commit()

    async def main():
        return await system.sim.gather([rmw(a, 10), rmw(b, 100)])

    ra, rb = system.sim.run_until_complete(main())
    system.run()
    final = system.committed_value("k1")
    committed = [r for r in (ra, rb) if r.committed]
    assert len(committed) >= 1
    if len(committed) == 2:
        assert final in (111,)  # both applied => serialized
    else:
        assert final in (11, 101)


def test_tapir_slow_path_with_silent_replica(system):
    silent = system.replicas["s0/r2"]
    silent.deliver = lambda sender, message: None
    client = system.create_client()

    async def main():
        session = system.new_session(client)
        value = await session.read("k1")
        session.write("k1", value + 1)
        return await session.commit()

    result = system.sim.run_until_complete(main())
    assert result.committed
    assert not result.fast_path  # missing reply forces the slow path
    system.run()
    assert system.committed_value("k1") == 2


def test_tapir_cross_shard():
    sys_ = TapirSystem(SystemConfig(f=1, num_shards=2))
    keys = {f"key-{i}": i for i in range(10)}
    sys_.load(keys)
    client = sys_.create_client()
    k0 = next(k for k in keys if sys_.sharder.shard_of(k) == 0)
    k1 = next(k for k in keys if sys_.sharder.shard_of(k) == 1)

    async def main():
        session = sys_.new_session(client)
        a = await session.read(k0)
        b = await session.read(k1)
        session.write(k0, a + b)
        session.write(k1, a - b)
        return await session.commit()

    result = sys_.sim.run_until_complete(main())
    assert result.committed
    sys_.run()
    assert sys_.committed_value(k0) == keys[k0] + keys[k1]
