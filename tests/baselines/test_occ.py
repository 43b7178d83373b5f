"""Unit tests for the TxSMR shard OCC state machine."""

from repro.baselines.txsmr.occ import OCCStore, ShardTx
from repro.config import SystemConfig
from repro.core.genesis import Genesis
from repro.core.sharding import Sharder


def loaded(**items):
    """A store whose (implicit) genesis holds ``items``."""
    store = OCCStore()
    store.data.seed(Genesis(items, Sharder(SystemConfig())), 0)
    return store


def tx(txid, reads=(), writes=()):
    return ShardTx(txid=txid, read_set=tuple(reads), write_set=tuple(writes))


def test_prepare_commit_applies_writes():
    store = loaded(k=1)
    t = tx(b"t1", reads=[("k", 1)], writes=[("k", 2)])
    assert store.prepare(t) == "ok"
    assert store.commit(b"t1")
    assert store.read("k") == (2, 2)


def test_stale_read_version_aborts():
    store = loaded(k=1)
    t1 = tx(b"t1", reads=[("k", 1)], writes=[("k", 2)])
    store.prepare(t1)
    store.commit(b"t1")
    t2 = tx(b"t2", reads=[("k", 1)], writes=[("x", 9)])
    assert store.prepare(t2) == "abort"


def test_read_of_missing_key_version_zero():
    store = OCCStore()
    assert store.read("nope") == (None, 0)
    t = tx(b"t1", reads=[("nope", 0)], writes=[("nope", 5)])
    assert store.prepare(t) == "ok"
    store.commit(b"t1")
    assert store.read("nope") == (5, 1)


def test_write_write_conflict_with_indoubt_aborts():
    store = loaded(k=1)
    assert store.prepare(tx(b"t1", writes=[("k", 2)])) == "ok"
    assert store.prepare(tx(b"t2", writes=[("k", 3)])) == "abort"


def test_read_write_conflict_with_indoubt_aborts():
    store = loaded(k=1)
    assert store.prepare(tx(b"t1", writes=[("k", 2)])) == "ok"
    assert store.prepare(tx(b"t2", reads=[("k", 1)])) == "abort"


def test_write_read_conflict_with_indoubt_aborts():
    store = loaded(k=1)
    assert store.prepare(tx(b"t1", reads=[("k", 1)], writes=[("z", 0)])) == "ok"
    assert store.prepare(tx(b"t2", writes=[("k", 3)])) == "abort"


def test_abort_releases_locks():
    store = loaded(k=1)
    store.prepare(tx(b"t1", writes=[("k", 2)]))
    assert store.abort(b"t1")
    assert store.prepare(tx(b"t2", writes=[("k", 3)])) == "ok"


def test_duplicate_prepare_and_commit_idempotent():
    store = loaded(k=1)
    t = tx(b"t1", writes=[("k", 2)])
    assert store.prepare(t) == "ok"
    assert store.prepare(t) == "ok"
    assert store.commit(b"t1")
    assert not store.commit(b"t1")
    assert store.read("k") == (2, 2)  # applied exactly once


def test_determinism_same_op_sequence_same_state():
    def run():
        store = loaded(a=1, b=2)
        store.prepare(tx(b"t1", reads=[("a", 1)], writes=[("a", 10)]))
        store.prepare(tx(b"t2", reads=[("b", 99)], writes=[("b", 20)]))  # stale: abort
        store.commit(b"t1")
        store.abort(b"t2")
        return store.read("a"), store.read("b")

    assert run() == run()
