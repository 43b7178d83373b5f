"""Unit and property tests for the multiversion store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.versionstore import VersionStore


def ts(t, c=0):
    return (t, c)


@pytest.fixture()
def store():
    return VersionStore()


def test_latest_committed_basic(store):
    store.apply_committed_write("k", ts(10), b"a", b"t1")
    store.apply_committed_write("k", ts(20), b"b", b"t2")
    assert store.latest_committed("k", ts(15)).value == b"a"
    assert store.latest_committed("k", ts(25)).value == b"b"
    assert store.latest_committed("k", ts(5)) is None
    assert store.latest_committed("missing", ts(5)) is None


def test_read_boundary_is_strict(store):
    store.apply_committed_write("k", ts(10), b"a", b"t1")
    # MVTSO reads versions with timestamp strictly below the reader's.
    assert store.latest_committed("k", ts(10)) is None


def test_out_of_order_insertion_keeps_chain_sorted(store):
    store.apply_committed_write("k", ts(30), b"c", b"t3")
    store.apply_committed_write("k", ts(10), b"a", b"t1")
    store.apply_committed_write("k", ts(20), b"b", b"t2")
    values = [v.value for v in store.committed_versions("k")]
    assert values == [b"a", b"b", b"c"]
    store.check_invariants()


def test_duplicate_commit_is_idempotent(store):
    store.apply_committed_write("k", ts(10), b"a", b"t1")
    store.apply_committed_write("k", ts(10), b"a", b"t1")
    assert len(store.committed_versions("k")) == 1


def test_conflicting_writers_same_timestamp_rejected(store):
    store.apply_committed_write("k", ts(10), b"a", b"t1")
    with pytest.raises(StorageError):
        store.apply_committed_write("k", ts(10), b"x", b"t2")


def test_prepared_visibility_and_promotion(store):
    store.add_prepared_write("k", ts(10), b"p", b"t1")
    version = store.latest_prepared("k", ts(15))
    assert version.value == b"p"
    assert store.prepared_versions("k") == [version]
    assert store.latest_committed("k", ts(15)) is None
    store.promote_prepared_write("k", ts(10))
    assert store.latest_prepared("k", ts(15)) is None
    assert store.latest_committed("k", ts(15)).value == b"p"


def test_promotion_moves_the_prepared_record(store):
    store.add_prepared_write("k", ts(10), b"p", b"t1")
    [prepared] = store.prepared_versions("k")
    assert store.promote_prepared_write("k", ts(10)) == b"t1"
    assert store.committed_versions("k")[-1] is prepared


def test_promotion_is_idempotent(store):
    store.add_prepared_write("k", ts(10), b"p", b"t1")
    store.promote_prepared_write("k", ts(10))
    store.promote_prepared_write("k", ts(10))
    assert len(store.committed_versions("k")) == 1


def test_abort_removes_prepared(store):
    store.add_prepared_write("k", ts(10), b"p", b"t1")
    store.remove_prepared_write("k", ts(10))
    assert store.latest_prepared("k", ts(15)) is None


def test_rts_tracking(store):
    store.update_rts("k", ts(10))
    store.update_rts("k", ts(30))
    store.update_rts("k", ts(20))
    assert store.max_rts("k") == ts(30)
    assert store.has_rts_above("k", ts(25))
    assert not store.has_rts_above("k", ts(30))
    store.remove_rts("k", ts(30))
    assert store.max_rts("k") == ts(20)


def test_rts_idempotent_update(store):
    store.update_rts("k", ts(10))
    store.update_rts("k", ts(10))
    store.remove_rts("k", ts(10))
    assert store.max_rts("k") is None


def test_writes_between_spans_both_chains(store):
    store.apply_committed_write("k", ts(10), b"a", b"t1")
    store.apply_committed_write("k", ts(20), b"b", b"t2")
    store.add_prepared_write("k", ts(25), b"p", b"t3")
    committed, prepared = store.writes_between("k", ts(10), ts(30))
    assert [v.timestamp for v in committed] == [ts(20)]
    assert [v.timestamp for v in prepared] == [ts(25)]
    # boundaries are exclusive
    assert store.writes_between("k", ts(20), ts(25)) == ((), ())


def test_reads_spanning(store):
    # reader at ts 30 read version ts 10; a write at ts 20 splits them.
    store.add_read("k", ts(30), ts(10), b"reader")
    spans = store.reads_spanning("k", ts(20))
    assert spans == [(ts(30), ts(10), b"reader")]
    # write above the reader's timestamp is fine
    assert store.reads_spanning("k", ts(35)) == []
    # write below the version read is fine
    assert store.reads_spanning("k", ts(5)) == []


def test_remove_read(store):
    store.add_read("k", ts(30), ts(10), b"r")
    store.remove_read("k", ts(30), ts(10), b"r")
    assert store.reads_spanning("k", ts(20)) == []


def test_contains_only_counts_committed(store):
    assert "k" not in store
    store.add_prepared_write("k", ts(1), b"p", b"t")
    assert "k" not in store
    store.promote_prepared_write("k", ts(1))
    assert "k" in store


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 3), st.binary(max_size=4)),
        min_size=1,
        max_size=40,
        unique_by=lambda e: (e[0], e[1]),
    )
)
def test_property_latest_committed_matches_linear_scan(writes):
    store = VersionStore()
    for t, c, val in writes:
        store.apply_committed_write("k", (t, c), val, writer=f"t{t}-{c}".encode())
    store.check_invariants()
    for probe in [(0, 0), (10, 2), (25, 0), (51, 0), (100, 9)]:
        expected = None
        for t, c, val in writes:
            if (t, c) < probe and (expected is None or (t, c) > expected[0]):
                expected = ((t, c), val)
        got = store.latest_committed("k", probe)
        if expected is None:
            assert got is None
        else:
            assert got.timestamp == expected[0]
            assert got.value == expected[1]


@given(
    st.lists(st.integers(0, 30), max_size=30),
    st.lists(st.integers(0, 30), max_size=10),
)
def test_property_rts_max_after_adds_and_removes(adds, removes):
    store = VersionStore()
    live: set[int] = set()
    for t in adds:
        store.update_rts("k", (t, 0))
        live.add(t)
    for t in removes:
        store.remove_rts("k", (t, 0))
        live.discard(t)
    expected = (max(live), 0) if live else None
    assert store.max_rts("k") == expected
