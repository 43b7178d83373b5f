"""A replica stores, indexes and validates only its own shard's keys.

After a drained 3-shard run, every key with state in a replica's store,
and every key of its read index, is a key the replica's shard owns:
MVTSO-Check, prepare, undo and commit see only the part of each
transaction on that shard (``Sharder.part_of``).
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.run import ModelSpec, SequentialRun
from repro.verify.history import HistoryChecker

SPEC = ModelSpec(
    kind="basil", config=SystemConfig(f=1, num_shards=3, seed=11),
    workload="ycsb-t", workload_keys=2_000, num_clients=60,
    duration=0.1, drain=0.2, trace=False,
)


@pytest.fixture(scope="module")
def system():
    run = SequentialRun(SPEC)
    assert run.run().bench["commits"] > 0
    return run.system


def test_every_stored_and_indexed_key_is_owned(system):
    indexed = 0
    for replica in system.replicas.values():
        keys = list(replica.store.keys())
        assert keys, replica.name
        assert {system.sharder.shard_of(key) for key in keys} == {replica.shard}
        for key, state in replica.store._keys.items():
            if state.reads:
                indexed += 1
                assert system.sharder.shard_of(key) == replica.shard, (replica.name, key)
    assert indexed


def test_the_run_is_serializable_with_few_invalid_dep_votes(system):
    assert HistoryChecker(system).check() == []
    invalid = sum(r.abort_reasons.get("invalid-dep", 0) for r in system.replicas.values())
    # every replica of a shard votes on every dep it validates; before the
    # split, deps on other shards' keys alone gave 389 such votes here
    assert invalid < 50
