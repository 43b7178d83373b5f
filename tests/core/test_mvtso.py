"""Unit tests for MVTSO-Check (Algorithm 1) against a bare store."""

import pytest

from repro.core.mvtso import (
    CheckStatus,
    TxPhase,
    TxState,
    apply_commit,
    mvtso_check,
    undo_prepare,
)
from repro.config import SystemConfig
from repro.core.messages import Decision
from repro.core.sharding import Sharder
from repro.core.timestamps import GENESIS, Timestamp
from repro.core.transaction import Dep, TxBuilder
from repro.errors import StorageError
from repro.storage.versionstore import VersionStore

DELTA = 0.05
NOW = 100.0


def ts(seconds, client=1):
    return Timestamp.from_clock(seconds, client)


def make_tx(stamp, reads=(), writes=(), deps=()):
    b = TxBuilder(timestamp=stamp)
    for k, v in reads:
        b.record_read(k, v)
    for k, v in writes:
        b.record_write(k, v)
    for d in deps:
        b.record_dep(d)
    return b.freeze()


@pytest.fixture()
def store():
    return VersionStore()


@pytest.fixture()
def states():
    return {}


def check(store, states, tx, now=NOW):
    return mvtso_check(store, states, tx, local_time=now, delta=DELTA)


def test_clean_write_prepares(store, states):
    tx = make_tx(ts(10), writes=[("k", b"v")])
    result = check(store, states, tx)
    assert result.status is CheckStatus.PREPARED
    assert store.latest_prepared("k", ts(11)) is not None
    assert states[tx.txid].phase is TxPhase.PREPARED


def test_timestamp_beyond_delta_rejected(store, states):
    tx = make_tx(ts(NOW + 10 * DELTA), writes=[("k", b"v")])
    result = check(store, states, tx)
    assert result.status is CheckStatus.ABORT
    assert result.reason == "timestamp-bound"


def test_timestamp_within_delta_accepted(store, states):
    tx = make_tx(ts(NOW + DELTA / 2), writes=[("k", b"v")])
    assert check(store, states, tx).status is CheckStatus.PREPARED


def test_read_from_future_is_misbehavior(store, states):
    tx = make_tx(ts(10), reads=[("k", ts(20))])
    result = check(store, states, tx)
    assert result.status is CheckStatus.MISBEHAVIOR


def test_missed_committed_write_aborts(store, states):
    # k written at t=5; reader claims version GENESIS but has ts=10 > 5.
    store.apply_committed_write("k", ts(5), b"x", b"w" * 32)
    tx = make_tx(ts(10), reads=[("k", GENESIS)])
    result = check(store, states, tx)
    assert result.status is CheckStatus.ABORT
    assert result.reason == "missed-write"


def test_read_of_latest_version_ok(store, states):
    store.apply_committed_write("k", ts(5), b"x", b"w" * 32)
    tx = make_tx(ts(10), reads=[("k", ts(5))])
    assert check(store, states, tx).status is CheckStatus.PREPARED


def test_missed_prepared_write_aborts(store, states):
    writer = make_tx(ts(7), writes=[("k", b"p")])
    assert check(store, states, writer).status is CheckStatus.PREPARED
    reader = make_tx(ts(10), reads=[("k", GENESIS)])
    result = check(store, states, reader)
    assert result.status is CheckStatus.ABORT


def test_write_invalidating_prepared_read_aborts(store, states):
    # reader at ts=10 read version GENESIS of k and prepared
    reader = make_tx(ts(10), reads=[("k", GENESIS)], writes=[("other", b"o")])
    assert check(store, states, reader).status is CheckStatus.PREPARED
    # writer at ts=5 < 10 would have been missed by that reader
    writer = make_tx(ts(5), writes=[("k", b"w")])
    result = check(store, states, writer)
    assert result.status is CheckStatus.ABORT
    assert result.reason == "invalidates-read"


def test_write_above_reader_timestamp_ok(store, states):
    reader = make_tx(ts(10), reads=[("k", GENESIS)], writes=[("other", b"o")])
    check(store, states, reader)
    writer = make_tx(ts(15), writes=[("k", b"w")])
    assert check(store, states, writer).status is CheckStatus.PREPARED


def test_rts_fence_aborts_lower_writer(store, states):
    store.update_rts("k", ts(20))
    writer = make_tx(ts(10), writes=[("k", b"w")])
    result = check(store, states, writer)
    assert result.status is CheckStatus.ABORT
    assert result.reason == "rts-fence"


def test_rts_below_writer_ok(store, states):
    store.update_rts("k", ts(5))
    writer = make_tx(ts(10), writes=[("k", b"w")])
    assert check(store, states, writer).status is CheckStatus.PREPARED


def test_unknown_dep_aborts(store, states):
    dep = Dep(txid=b"\x09" * 32, key="k", version=ts(5))
    tx = make_tx(ts(10), reads=[("k", ts(5))], deps=[dep])
    result = check(store, states, tx)
    assert result.status is CheckStatus.ABORT
    assert result.reason == "invalid-dep"


def test_dep_with_wrong_version_claim_aborts(store, states):
    writer = make_tx(ts(5), writes=[("k", b"p")])
    check(store, states, writer)
    bad_dep = Dep(txid=writer.txid, key="k", version=ts(6))  # wrong version
    tx = make_tx(ts(10), reads=[("k", ts(6))], deps=[bad_dep])
    assert check(store, states, tx).reason == "invalid-dep"


def test_valid_pending_dep_reported(store, states):
    writer = make_tx(ts(5), writes=[("k", b"p")])
    check(store, states, writer)
    dep = Dep(txid=writer.txid, key="k", version=ts(5))
    tx = make_tx(ts(10), reads=[("k", ts(5))], deps=[dep])
    result = check(store, states, tx)
    assert result.status is CheckStatus.PREPARED
    assert result.pending_deps == (writer.txid,)


def test_dep_on_aborted_tx_aborts(store, states):
    writer = make_tx(ts(5), writes=[("k", b"p")])
    check(store, states, writer)
    undo_prepare(store, writer)
    states[writer.txid].phase = TxPhase.ABORTED
    dep = Dep(txid=writer.txid, key="k", version=ts(5))
    tx = make_tx(ts(10), reads=[("k", ts(5))], deps=[dep])
    assert check(store, states, tx).reason == "dep-aborted"


def test_committed_dep_not_pending(store, states):
    writer = make_tx(ts(5), writes=[("k", b"p")])
    check(store, states, writer)
    apply_commit(store, writer)
    states[writer.txid].phase = TxPhase.COMMITTED
    dep = Dep(txid=writer.txid, key="k", version=ts(5))
    tx = make_tx(ts(10), reads=[("k", ts(5))], deps=[dep])
    result = check(store, states, tx)
    assert result.status is CheckStatus.PREPARED
    assert result.pending_deps == ()


def test_undo_prepare_restores_store(store, states):
    tx = make_tx(ts(10), reads=[("r", GENESIS)], writes=[("k", b"v")])
    check(store, states, tx)
    undo_prepare(store, tx)
    assert store.latest_prepared("k", ts(11)) is None
    assert store.reads_spanning("r", ts(5)) == []


def test_apply_commit_promotes(store, states):
    tx = make_tx(ts(10), writes=[("k", b"v")])
    check(store, states, tx)
    apply_commit(store, tx)
    assert store.latest_prepared("k", ts(11)) is None
    assert store.latest_committed("k", ts(11)).value == b"v"


class CountingStore(VersionStore):
    """Counts committed-version inserts attempted (promotions included)."""

    def __init__(self):
        super().__init__()
        self.applied = 0

    def _commit_slot(self, state, key, timestamp, writer):
        self.applied += 1
        return super()._commit_slot(state, key, timestamp, writer)


def test_apply_commit_of_own_prepared_write_inserts_once(states):
    store = CountingStore()
    tx = make_tx(ts(10), writes=[("k", b"v")])
    check(store, states, tx)
    apply_commit(store, tx)
    assert store.applied == 1  # the promotion; no second insert attempt
    [version] = store.committed_versions("k")
    assert (version.value, version.writer) == (b"v", tx.txid)


def test_apply_commit_with_nothing_prepared_inserts(states):
    store = CountingStore()
    tx = make_tx(ts(10), writes=[("k", b"v")])
    apply_commit(store, tx)
    assert store.applied == 1
    [version] = store.committed_versions("k")
    assert (version.value, version.writer) == (b"v", tx.txid)
    apply_commit(store, tx)  # a duplicate writeback stays idempotent
    assert len(store.committed_versions("k")) == 1


def test_apply_commit_over_another_writers_prepare_raises(store, states):
    other = b"o" * 32
    store.add_prepared_write("k", ts(10), b"theirs", other)
    tx = make_tx(ts(10), writes=[("k", b"mine")])
    with pytest.raises(StorageError):
        apply_commit(store, tx)
    # the other writer's version was promoted before the clash surfaced
    [version] = store.committed_versions("k")
    assert (version.value, version.writer) == (b"theirs", other)
    assert store.prepared_versions("k") == []


def test_serializable_interleaving_accepted(store, states):
    """Two non-conflicting transactions both prepare."""
    t1 = make_tx(ts(10), reads=[("a", GENESIS)], writes=[("a", b"1")])
    t2 = make_tx(ts(11), reads=[("b", GENESIS)], writes=[("b", b"2")])
    assert check(store, states, t1).status is CheckStatus.PREPARED
    assert check(store, states, t2).status is CheckStatus.PREPARED


def test_write_write_same_key_allowed_multiversion(store, states):
    """Blind write-write conflicts are fine under MVTSO."""
    t1 = make_tx(ts(10), writes=[("a", b"1")])
    t2 = make_tx(ts(11), writes=[("a", b"2")])
    assert check(store, states, t1).status is CheckStatus.PREPARED
    assert check(store, states, t2).status is CheckStatus.PREPARED


def test_interested_clients_are_a_tuple_without_duplicates():
    state = TxState()
    assert state.interested is None
    for client in ("c2", "c1", "c2", "c1", "c3"):
        state.add_interested(client)
    assert state.interested == ("c2", "c1", "c3")


# ---------------------------------------------------------------------------
# Shard parts: a replica checks only what lies on its own shard
# ---------------------------------------------------------------------------
TWO_SHARDS = Sharder(SystemConfig(f=1, num_shards=2))
OWNED, FOREIGN = "owned", "foreign"  # on shards 0 and 1 of TWO_SHARDS


def test_placement_of_the_part_keys():
    assert [TWO_SHARDS.shard_of(k) for k in (OWNED, FOREIGN)] == [0, 1]


def test_unknown_dep_on_a_foreign_key_is_not_invalid(store, states):
    unseen = Dep(txid=b"u" * 32, key=FOREIGN, version=ts(4))
    tx = make_tx(ts(10), reads=[(OWNED, GENESIS), (FOREIGN, ts(4))],
                 writes=[(OWNED, b"o"), (FOREIGN, b"f")], deps=[unseen])
    assert check(store, states, tx).reason == "invalid-dep"  # the whole record
    part = TWO_SHARDS.part_of(tx, 0)
    assert (part.txid, part.deps) == (tx.txid, ())
    result = check(store, {}, part)
    assert result.status is CheckStatus.PREPARED
    assert result.pending_deps == ()
    assert list(store.keys()) == [OWNED]


def test_unknown_dep_on_an_owned_key_is_still_invalid(store, states):
    unseen = Dep(txid=b"u" * 32, key=OWNED, version=ts(4))
    tx = make_tx(ts(10), reads=[(OWNED, ts(4))], writes=[(FOREIGN, b"f")], deps=[unseen])
    result = check(store, states, TWO_SHARDS.part_of(tx, 0))
    assert result.status is CheckStatus.ABORT
    assert result.reason == "invalid-dep"


def test_part_is_the_record_when_nothing_lies_elsewhere():
    tx = make_tx(ts(10), reads=[(OWNED, GENESIS)], writes=[(OWNED, b"o")])
    assert TWO_SHARDS.part_of(tx, 0) is tx
    assert TWO_SHARDS.part_of(tx, 0) is tx  # memoized on the record
    assert TWO_SHARDS.part_of(tx, 1).read_set == ()
    mixed = make_tx(ts(10), writes=[(OWNED, b"o"), (FOREIGN, b"f")])
    assert Sharder(SystemConfig(f=1)).part_of(mixed, 0) is mixed  # one shard


def test_undo_and_commit_touch_only_the_part(store, states):
    tx = make_tx(ts(10), reads=[(FOREIGN, GENESIS)], writes=[(OWNED, b"o"), (FOREIGN, b"f")])
    part = TWO_SHARDS.part_of(tx, 0)
    assert check(store, states, part).status is CheckStatus.PREPARED
    undo_prepare(store, part)
    apply_commit(store, part)
    assert [v.value for v in store.committed_versions(OWNED)] == [b"o"]
    assert FOREIGN not in store and list(store.keys()) == [OWNED]


def test_a_wait_on_a_decided_transaction_resolves_from_its_phase():
    undecided = TxState()
    assert undecided.decision_signal is None
    waiting = undecided.wait_decision()
    assert not waiting.done() and undecided.decision_signal is not None
    for phase, decision in ((TxPhase.COMMITTED, Decision.COMMIT),
                            (TxPhase.ABORTED, Decision.ABORT)):
        state = TxState(phase=phase)
        assert state.wait_decision().result() is decision
        assert state.decision_signal is None  # no signal made for it


def test_prepare_builds_a_tx_state_only_for_an_unknown_transaction(store, states, monkeypatch):
    import repro.core.mvtso as mvtso

    built = []

    def counting_tx_state(*args, **kwargs):
        built.append(args)
        return TxState(*args, **kwargs)

    monkeypatch.setattr(mvtso, "TxState", counting_tx_state)
    # A replica makes the state when the prepare arrives: the check reuses it.
    known = make_tx(ts(10), writes=[("k", b"v")])
    states[known.txid] = TxState()
    assert check(store, states, known).status is CheckStatus.PREPARED
    assert built == [] and states[known.txid].tx is known
    # A transaction with no state yet gets exactly one.
    fresh = make_tx(ts(11), writes=[("j", b"v")])
    assert check(store, states, fresh).status is CheckStatus.PREPARED
    assert len(built) == 1 and states[fresh.txid].tx is fresh
    assert states[fresh.txid].phase is TxPhase.PREPARED
