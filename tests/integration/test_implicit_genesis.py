"""Implicit genesis end to end: systems, oracles, and the paper's population."""

from __future__ import annotations

import pytest

from repro.baselines.tapir.system import TapirSystem
from repro.baselines.txsmr.system import TxSMRSystem
from repro.config import SystemConfig
from repro.core.certificates import GENESIS_CERT
from repro.core.messages import ReadRequest
from repro.core.replica import BasilReplica
from repro.core.system import BasilSystem
from repro.core.timestamps import GENESIS, Timestamp
from repro.faults.campaign import check_safety
from repro.run import ModelSpec, SequentialRun
from repro.storage.versionstore import Version
from repro.verify.history import HistoryChecker

POPULATION = {f"k{i}": i for i in range(40)}
READ_TS = Timestamp(5, 1)


def _read_through(replica: BasilReplica, key):
    request = ReadRequest(req_id=1, key=key, timestamp=READ_TS, client="client/1")
    return replica.build_read_reply(request).committed


def test_untouched_keys_read_as_genesis_everywhere():
    system = BasilSystem(SystemConfig(f=1, num_shards=2))
    system.load(POPULATION)
    for key, value in POPULATION.items():
        assert system.committed_value(key) == value
        owners = system.shard_replicas(system.sharder.shard_of(key))
        for replica in system.replicas.values():
            assert (key in replica.store) == (replica in owners)
            assert not list(replica.store.keys())  # asking touched nothing
    assert system.committed_value("never-loaded") is None
    committed = _read_through(system.shard_replicas(system.sharder.shard_of("k7"))[0], "k7")
    assert (committed.version, committed.value, committed.cert) == (GENESIS, 7, GENESIS_CERT)


def test_replaced_replica_inherits_the_genesis():
    class Variant(BasilReplica):
        pass

    system = BasilSystem(SystemConfig(f=1, num_shards=1))
    system.load({"k": b"v"})
    variant = system.replace_replica("s0/r3", Variant)
    assert isinstance(system.replicas["s0/r3"], Variant)
    committed = _read_through(variant, "k")
    assert committed is not None and committed.value == b"v"
    assert committed.cert is GENESIS_CERT


# ---------------------------------------------------------------------------
# Convergence oracles: a key only some replicas have touched
# ---------------------------------------------------------------------------
def _forge_genesis(state) -> None:
    """Replace the genesis version heading one store's chain of a key."""
    state.committed = (Version(GENESIS, "forged", b"\xff" * 32),) + state.committed[1:]


def test_history_checker_with_partially_touched_keys():
    system = BasilSystem(SystemConfig(f=1, num_shards=2))
    system.load(POPULATION)
    key = "k3"
    replicas = system.shard_replicas(system.sharder.shard_of(key))
    for replica in replicas[:2]:  # the other four never see the key
        replica.store.update_rts(key, READ_TS)
    assert HistoryChecker(system).check() == []
    # one replica's genesis version of that key is not the deployment's
    _forge_genesis(replicas[0].store._keys[key])
    kinds = [v.kind for v in HistoryChecker(system).check()]
    assert kinds and set(kinds) == {"version-divergence"}


def test_tapir_convergence_with_partially_touched_keys():
    system = TapirSystem(SystemConfig(f=1, num_shards=2))
    system.load(POPULATION)
    key = "k3"
    members = system.sharder.members(system.sharder.shard_of(key))
    first = system.replicas[members[0]].store.versions
    first.update_rts(key, READ_TS)
    assert check_safety("tapir", system) == []
    _forge_genesis(first._keys[key])
    assert any("tapir-divergence" in v for v in check_safety("tapir", system))


@pytest.mark.parametrize("kind,protocol", [("txsmr", "pbft"), ("txsmr-hotstuff", "hotstuff")])
def test_txsmr_convergence_with_partially_touched_keys(kind, protocol):
    system = TxSMRSystem(SystemConfig(f=1, num_shards=2), protocol=protocol)
    system.load(POPULATION)
    key = "k3"
    members = system.sharder.members(system.sharder.shard_of(key))
    first = system.apps[members[0]].store
    assert first.read(key) == (3, 1)
    assert check_safety(kind, system) == []
    first.data[key].value = "forged"
    assert any("txsmr-divergence" in v for v in check_safety(kind, system))


# ---------------------------------------------------------------------------
# The paper's population
# ---------------------------------------------------------------------------
def test_ten_million_key_ycsb_runs_on_touched_keys_only():
    spec = ModelSpec(
        kind="basil",
        config=SystemConfig(f=1, num_shards=2, batch_size=4),
        workload="ycsb-t",
        workload_keys=10_000_000,
        num_clients=8,
        duration=0.03,
        warmup=0.01,
        trace=False,
        drain=0.2,
    )
    run = SequentialRun(spec)
    result = run.run()
    assert result.bench["commits"] > 0
    system = run.system
    assert HistoryChecker(system).check() == []
    for replica in system.replicas.values():
        held = set(replica.store.keys())
        # the few hundred keys the window's transactions named, out of
        # the five million population keys the sharder places here
        assert 0 < len(held) < 2_000
        for key in held:
            # a multi-shard transaction leaves its foreign keys' writes and
            # reads here too; only this shard's keys start from a genesis
            chain = replica.store.committed_versions(key)
            local = system.sharder.shard_of(key) == replica.shard
            assert (bool(chain) and chain[0].timestamp == GENESIS) == local
