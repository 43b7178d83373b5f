"""Tests for client-chosen timestamps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.timestamps import GENESIS, Timestamp


def test_total_order_time_then_client():
    assert Timestamp(1, 5) < Timestamp(2, 1)
    assert Timestamp(2, 1) < Timestamp(2, 2)
    assert Timestamp(2, 2) == Timestamp(2, 2)


def test_from_clock_rounds_to_microseconds():
    ts = Timestamp.from_clock(1.0000004, client_id=3)
    assert ts.time == 1_000_000
    assert ts.client_id == 3
    assert Timestamp.from_clock(1.5, 1).to_seconds() == 1.5


def test_genesis_below_all_client_timestamps():
    assert GENESIS < Timestamp.from_clock(1e-6, client_id=1)
    assert GENESIS < Timestamp(0, 1)


@given(st.integers(0, 10**12), st.integers(1, 10**6), st.integers(0, 10**12), st.integers(1, 10**6))
def test_order_is_antisymmetric_and_total(t1, c1, t2, c2):
    a, b = Timestamp(t1, c1), Timestamp(t2, c2)
    assert (a < b) + (b < a) + (a == b) == 1


_stamps = st.builds(Timestamp, st.integers(-(2**65), 2**65), st.integers(-5, 10**6))


@given(_stamps, _stamps)
def test_comparisons_and_hash_agree_with_the_pair(a, b):
    pa, pb = (a.time, a.client_id), (b.time, b.client_id)
    assert (a < b) == (pa < pb)
    assert (a <= b) == (pa <= pb)
    assert (a > b) == (pa > pb)
    assert (a >= b) == (pa >= pb)
    assert (a == b) == (pa == pb)
    assert (a != b) == (pa != pb)
    assert hash(a) == hash(pa)


@given(_stamps)
def test_comparing_with_another_type_raises(ts):
    pair = (ts.time, ts.client_id)
    for other in (pair, ts.time, None):
        for compare in (
            lambda: ts < other, lambda: ts <= other,
            lambda: ts > other, lambda: ts >= other,
        ):
            with pytest.raises(TypeError):
                compare()
        assert ts != other and not ts == other


def test_distinct_clients_never_tie():
    a = Timestamp.from_clock(1.0, 1)
    b = Timestamp.from_clock(1.0, 2)
    assert a != b and (a < b or b < a)
