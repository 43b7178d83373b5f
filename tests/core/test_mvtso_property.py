"""Randomized-interleaving properties of MVTSO-Check (Algorithm 1).

Drives one replica's store/state through hundreds of seeded random
prepare/commit/abort interleavings and asserts the invariants the
protocol's safety argument leans on:

* no committed transaction ever read a stale version (a committed write
  existed between the version it read and its own timestamp);
* every committed read observed a genuinely committed version;
* aborting a prepared transaction leaves no residue in the store;
* the whole decision sequence is a deterministic function of the seed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.certificates import GENESIS_TXID
from repro.core.mvtso import (
    CheckStatus,
    TxPhase,
    apply_commit,
    mvtso_check,
    undo_prepare,
)
from repro.core.timestamps import GENESIS, Timestamp
from repro.core.transaction import TxBuilder
from repro.storage.versionstore import VersionStore

KEYS = [f"k{i}" for i in range(8)]


def drive(seed: int, steps: int = 400):
    """One seeded interleaving; returns (store, tx_states, decision log)."""
    rng = random.Random(seed)
    store = VersionStore()
    tx_states: dict = {}
    for key in KEYS:
        store.apply_committed_write(key, GENESIS, b"init", GENESIS_TXID)
    prepared = []
    log = []
    t = 1.0
    for step in range(steps):
        if rng.random() < 0.6 or not prepared:
            t += rng.uniform(0.0, 0.001)
            ts = Timestamp.from_clock(t, client_id=rng.randint(1, 5))
            builder = TxBuilder(timestamp=ts)
            for key in rng.sample(KEYS, rng.randint(1, 3)):
                if rng.random() < 0.5:
                    builder.record_write(key, b"w%d" % step)
                else:
                    below = [
                        v for v in store.committed_versions(key) if v.timestamp < ts
                    ]
                    # mostly the freshest committed version, sometimes a
                    # deliberately stale one (must be caught, not admitted)
                    version = below[-1] if rng.random() < 0.8 else rng.choice(below)
                    builder.record_read(key, version.timestamp)
            tx = builder.freeze()
            result = mvtso_check(store, tx_states, tx, local_time=10.0, delta=1.0)
            log.append((tx.txid.hex(), result.status.value))
            if result.status is CheckStatus.PREPARED:
                prepared.append(tx)
        else:
            tx = prepared.pop(rng.randrange(len(prepared)))
            state = tx_states[tx.txid]
            if rng.random() < 0.7:
                apply_commit(store, tx)
                state.phase = TxPhase.COMMITTED
                log.append((tx.txid.hex(), "commit"))
            else:
                undo_prepare(store, tx)
                state.phase = TxPhase.ABORTED
                log.append((tx.txid.hex(), "abort"))
    return store, tx_states, log


@pytest.mark.parametrize("seed", range(8))
def test_committed_reads_are_never_stale(seed):
    store, tx_states, _ = drive(seed)
    commits = 0
    for state in tx_states.values():
        if state.phase is not TxPhase.COMMITTED:
            continue
        commits += 1
        tx = state.tx
        for key, version in tx.read_set:
            stale, _prepared = store.writes_between(key, version, tx.timestamp)
            assert not stale, (
                f"tx {tx.txid.hex()[:8]} read {key}@{version} but committed "
                f"writes {[v.timestamp for v in stale]} lie below its "
                f"timestamp {tx.timestamp}"
            )
    assert commits > 10  # the interleaving actually exercised the check


@pytest.mark.parametrize("seed", range(8))
def test_committed_reads_observed_committed_versions(seed):
    store, tx_states, _ = drive(seed)
    for state in tx_states.values():
        if state.phase is not TxPhase.COMMITTED:
            continue
        for key, version in state.tx.read_set:
            chain = {v.timestamp for v in store.committed_versions(key)}
            assert version in chain


@pytest.mark.parametrize("seed", range(8))
def test_aborts_leave_no_residue(seed):
    store, tx_states, _ = drive(seed)
    for state in tx_states.values():
        if state.phase is not TxPhase.ABORTED or state.tx is None:
            continue
        for key, _value in state.tx.write_set:
            prepared = {v.timestamp for v in store.prepared_versions(key)}
            committed = {v.timestamp for v in store.committed_versions(key)}
            assert state.tx.timestamp not in prepared
            assert state.tx.timestamp not in committed


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_interleaving_is_seed_deterministic(seed):
    _, _, log_a = drive(seed)
    _, _, log_b = drive(seed)
    assert log_a == log_b


def test_different_seeds_diverge():
    _, _, log_a = drive(0)
    _, _, log_b = drive(1)
    assert log_a != log_b


def test_store_invariants_hold_throughout():
    store, _, _ = drive(3)
    store.check_invariants()
