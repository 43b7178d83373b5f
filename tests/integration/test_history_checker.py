"""Tests for the offline Byz-serializability checker."""

import pytest

from repro.bench.runner import ExperimentRunner
from repro.config import SystemConfig
from repro.core.mvtso import TxPhase
from repro.core.system import BasilSystem
from repro.core.timestamps import Timestamp
from repro.verify.history import HistoryChecker
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.ycsb import YCSBWorkload


def run_system(workload, clients=8, duration=0.15):
    system = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=4))
    runner = ExperimentRunner(
        system, workload, num_clients=clients, duration=duration, warmup=0.05
    )
    result = runner.run()
    system.run()  # drain writebacks
    return system, result


def test_clean_ycsb_run_passes():
    system, result = run_system(YCSBWorkload(num_keys=1000, reads=2, writes=2))
    assert result.commits > 50
    HistoryChecker(system).assert_ok()


def test_contended_zipfian_run_passes():
    system, result = run_system(
        YCSBWorkload(num_keys=300, reads=2, writes=2, distribution="zipfian")
    )
    assert result.aborts > 0  # there was real contention
    HistoryChecker(system).assert_ok()


def test_smallbank_run_passes():
    system, result = run_system(SmallbankWorkload(num_accounts=300, hot_accounts=30))
    HistoryChecker(system).assert_ok()


def test_byzantine_run_passes():
    from repro.byzantine.clients import ByzantineClient

    system = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=4))
    factories = [
        lambda: system.create_client(
            client_class=ByzantineClient, behaviour="stall-early", faulty_fraction=0.5
        )
    ] + [lambda: system.create_client()] * 3
    wl = YCSBWorkload(num_keys=1000, reads=1, writes=1, distribution="zipfian")
    runner = ExperimentRunner(
        system, wl, num_clients=8, duration=0.15, warmup=0.05,
        client_factories=factories,
    )
    runner.run()
    system.run()
    HistoryChecker(system).assert_ok()


# ---------------------------------------------------------------------------
# The checker must actually detect corruption
# ---------------------------------------------------------------------------
def corrupt_target(system):
    replica = system.shard_replicas(0)[0]
    for txid, state in replica.tx_states.items():
        if state.phase is TxPhase.COMMITTED and state.tx is not None and state.tx.write_set:
            return replica, txid, state
    raise AssertionError("no committed transaction found to corrupt")


def test_detects_decision_divergence():
    system, _ = run_system(YCSBWorkload(num_keys=1000, reads=1, writes=1))
    replica, txid, state = corrupt_target(system)
    state.phase = TxPhase.ABORTED  # lie about the decision
    violations = HistoryChecker(system).check()
    assert any(v.kind == "decision-divergence" for v in violations)


def test_detects_version_divergence():
    system, _ = run_system(YCSBWorkload(num_keys=1000, reads=1, writes=1))
    replica, txid, state = corrupt_target(system)
    key, _value = state.tx.write_set[0]
    version = replica.store.committed_versions(key)[-1]
    # forge a different writer at the same timestamp on one replica
    state = replica.store._keys[key]
    from repro.storage.versionstore import Version

    forged = Version(version.timestamp, b"forged", b"\xff" * 32)
    state.committed = state.committed[:-1] + (forged,)
    violations = HistoryChecker(system).check()
    assert any(v.kind == "version-divergence" for v in violations)


def test_detects_non_serializable_read():
    system, _ = run_system(YCSBWorkload(num_keys=1000, reads=1, writes=1))
    replica, txid, state = corrupt_target(system)
    # fabricate a committed transaction whose read is impossible: it
    # claims to have read a version *above* the real chain at a key
    from repro.core.transaction import TxBuilder

    builder = TxBuilder(timestamp=Timestamp(10**13, 99))
    key, _value = state.tx.write_set[0]
    builder.record_read(key, Timestamp(10**12, 98))  # nonexistent version
    builder.record_write("poison", b"x")
    fake = builder.freeze()
    fake_state = replica.state_of(fake.txid)
    fake_state.tx = fake
    fake_state.phase = TxPhase.COMMITTED
    violations = HistoryChecker(system).check()
    assert any(v.kind == "non-serializable-read" for v in violations)


def test_multi_shard_run_passes():
    system = BasilSystem(SystemConfig(f=1, num_shards=2, batch_size=4))
    wl = YCSBWorkload(num_keys=1500, reads=2, writes=2)
    runner = ExperimentRunner(
        system, wl, num_clients=8, duration=0.15, warmup=0.05
    )
    result = runner.run()
    system.run()
    assert result.commits > 50
    HistoryChecker(system).assert_ok()


def test_checker_flags_dep_on_uncommitted():
    from repro.core.timestamps import Timestamp
    from repro.core.transaction import Dep, TxBuilder

    system, _ = run_system(YCSBWorkload(num_keys=500, reads=1, writes=1))
    replica = system.shard_replicas(0)[0]
    builder = TxBuilder(timestamp=Timestamp(10**13, 55))
    builder.record_write("orphan", b"x")
    builder.record_dep(Dep(txid=b"\xab" * 32, key="orphan", version=Timestamp(1, 1)))
    fake = builder.freeze()
    state = replica.state_of(fake.txid)
    state.tx = fake
    state.phase = TxPhase.COMMITTED
    violations = HistoryChecker(system).check()
    assert any(v.kind == "dep-on-uncommitted" for v in violations)
