"""Tests for the YCSB-T workload."""

import random
from collections import Counter

import pytest

from repro.workloads.ycsb import YCSBWorkload, read_only_workload

from tests.workloads.conftest import drive


def test_load_data_size_and_values():
    wl = YCSBWorkload(num_keys=100, value_size=8)
    data = dict(wl.genesis())
    assert len(data) == 100
    assert all(len(v) == 8 for v in data.values())


def test_transaction_touches_right_counts(rng):
    wl = YCSBWorkload(num_keys=1000, reads=2, writes=2)
    data = dict(wl.genesis())
    task = wl.next_transaction(rng)
    session, _ = drive(task.body, data)
    # 2 pure reads + 2 read-modify-writes = 4 reads, 2 writes
    assert len(session.reads) == 4
    assert len(session.writes) == 2


def test_read_only_variant(rng):
    wl = read_only_workload(num_keys=500, reads=24)
    data = dict(wl.genesis())
    session, _ = drive(wl.next_transaction(rng).body, data)
    assert len(session.reads) == 24
    assert not session.writes


def test_keys_are_distinct_within_txn(rng):
    wl = YCSBWorkload(num_keys=100, reads=3, writes=3)
    data = dict(wl.genesis())
    for _ in range(20):
        session, _ = drive(wl.next_transaction(rng).body, data)
        assert len(set(session.reads)) == len(set(session.reads))
        assert len(session.writes) == 3


def test_zipfian_skews_access(rng):
    wl = YCSBWorkload(num_keys=1000, reads=1, writes=0, distribution="zipfian")
    data = dict(wl.genesis())
    counts = Counter()
    for _ in range(2000):
        session, _ = drive(wl.next_transaction(rng).body, data)
        counts.update(session.reads)
    top_share = sum(c for _, c in counts.most_common(20)) / 2000
    assert top_share > 0.25


def test_uniform_spreads_access(rng):
    wl = YCSBWorkload(num_keys=100, reads=1, writes=0, distribution="uniform")
    data = dict(wl.genesis())
    counts = Counter()
    for _ in range(5000):
        session, _ = drive(wl.next_transaction(rng).body, data)
        counts.update(session.reads)
    assert len(counts) == 100


def test_rejects_unknown_distribution():
    with pytest.raises(ValueError):
        YCSBWorkload(distribution="pareto")
