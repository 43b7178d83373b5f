"""Replica state holds only what a fast-path transaction uses.

A small seeded closed-loop run in which every transaction commits on the
fast path leaves, on every replica:

* no fallback containers and no decision signal on any transaction's
  state;
* every empty version chain as the one shared ``()``, every other one
  an exact-size tuple;
* one genesis version per key, and one committed chain per key nobody
  wrote, shared by all 5f+1 replicas of its shard;
* each stored version as one record, without a wrapping pair;
* slotted records (no per-instance ``__dict__``) and verification
  caches keyed without per-entry tuples: one table of verified
  signatures per node, on its crypto context.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import repro
from repro.config import SystemConfig
from repro.core.genesis import Genesis
from repro.core.mvtso import TxPhase, TxState
from repro.core.sharding import Sharder
from repro.core.timestamps import GENESIS, Timestamp
from repro.run import ModelSpec, SequentialRun
from repro.sim.events import Signal
from repro.storage.versionstore import _EMPTY, Version, VersionStore

SPEC = ModelSpec(
    kind="basil", config=SystemConfig(f=1, num_shards=2, seed=3),
    workload="ycsb-t", workload_keys=400, num_clients=4,
    duration=0.02, warmup=0.002, drain=0.05, trace=False,
)


@pytest.fixture(scope="module")
def run():
    seq = SequentialRun(SPEC)
    result = seq.run()
    assert result.bench["commits"] > 0
    assert result.bench["fast_path_rate"] == 1.0
    return seq.system


def _key_states(replica):
    return replica.store._keys.values()


def test_no_transaction_holds_fallback_containers(run):
    states = [s for r in run.replicas.values() for s in r.tx_states.values()]
    assert states
    for state in states:
        assert state.interested is None
        assert state.elect_msgs is None
        assert state.proposed_views is None
        assert state.decided


def test_no_transaction_holds_a_decision_signal(run):
    states = [s for r in run.replicas.values() for s in r.tx_states.values()]
    assert states
    # nobody waited on a decision, so no signal was ever made
    assert all(state.decision_signal is None for state in states)


def _chains(run):
    for replica in run.replicas.values():
        for state in _key_states(replica):
            yield from (state.committed, state.prepared, state.rts, state.reads)


def test_every_empty_chain_is_the_shared_tuple(run):
    chains = 0
    for chain in _chains(run):
        chains += 1
        assert chain or chain is _EMPTY
    assert chains


def test_every_chain_is_an_exact_size_tuple(run):
    sizes = 0
    for chain in _chains(run):
        # a tuple reserves no spare room; a list grown by insert does
        assert type(chain) is tuple
        sizes += len(chain)
    assert sizes


def test_a_stored_version_is_one_record(run):
    versions = 0
    for replica in run.replicas.values():
        for state in _key_states(replica):
            for version in (*state.committed, *state.prepared):
                assert type(version) is Version
                assert len(version) == 3 and type(version.writer) is bytes
                versions += 1
    assert versions


def test_an_unwritten_key_has_one_committed_chain_per_shard(run):
    shared = 0
    for shard in range(run.sharder.num_shards):
        replicas = run.shard_replicas(shard)
        assert len(replicas) == 6
        common = set.intersection(*(set(r.store.keys()) for r in replicas))
        for key in common:
            chains = [r.store._keys[key].committed for r in replicas]
            if any(len(chain) != 1 for chain in chains):
                continue  # written on some replica
            assert all(chain is chains[0] for chain in chains), key
            shared += 1
    assert shared


def test_genesis_entry_is_one_object_on_every_replica_of_its_shard(run):
    shared = 0
    for shard in range(run.sharder.num_shards):
        replicas = run.shard_replicas(shard)
        assert len(replicas) == 6
        common = set.intersection(*(set(r.store.keys()) for r in replicas))
        for key in common:
            if run.sharder.shard_of(key) != shard:
                continue
            heads = [r.store._keys[key].committed[0] for r in replicas]
            assert heads[0][0] is GENESIS
            assert all(head is heads[0] for head in heads), key
            shared += 1
    assert shared


def test_a_write_copies_the_shared_chain():
    population = {f"k{i}": i for i in range(8)}
    genesis = Genesis(population, Sharder(SystemConfig(num_shards=1)))
    replicas = [VersionStore() for _ in range(6)]
    for store in replicas:
        store.seed(genesis, 0)
        store.latest_committed("k1", Timestamp(5, 1))
    shared = replicas[0]._keys["k1"].committed
    replicas[0].apply_committed_write("k1", Timestamp(3, 1), "v", b"t1")
    assert shared is genesis.chain("k1", 0) and len(shared) == 1
    assert all(r._keys["k1"].committed is shared for r in replicas[1:])
    mine = replicas[0]._keys["k1"].committed
    assert [v.writer for v in mine] == [shared[0].writer, b"t1"]
    assert mine[0] is shared[0]  # the genesis version itself stays shared


def test_records_have_no_instance_dict(run):
    replica = run.shard_replicas(0)[0]
    state = next(iter(replica.tx_states.values()))
    version = next(s.committed[-1] for s in _key_states(replica) if s.committed)
    for obj in (state, Signal(), version):
        assert isinstance(obj, (TxState, Signal, Version))
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    # a transaction nobody has waited on has no signal
    assert TxState().decision_signal is None


def test_a_fired_signal_holds_no_waiters():
    state = TxState()
    waiter = state.wait_decision()
    signal = state.decision_signal
    assert signal._waiters == [waiter]
    signal.fire("decided")
    assert waiter.result() == "decided"
    assert signal._waiters == []


def _containers(obj):
    return [v for v in vars(obj).values() if isinstance(v, (dict, set))]


def test_verification_caches_hold_no_tuples(run):
    verified = certs = 0
    tables = set()
    for node in [*run.replicas.values(), *run.clients]:
        ctx = node.crypto
        # one table per node, read by the node's own verifier
        assert node.verifier.ctx is ctx
        tables.add(id(ctx.verified))
        for signer, digests in ctx.verified.items():
            assert type(signer) is str and type(digests) is dict
            assert all(type(d) is bytes for d in digests)
            assert all(type(t) is int for t in digests.values())
            verified += len(digests)
        # no (signer, digest) is both valid and invalid
        for signer, digest, _token in ctx.invalid:
            assert digest not in ctx.verified.get(signer, ()), signer
        # and no other cache shadows the table with per-entry tuples
        for container in [*_containers(ctx), *_containers(node.verifier)]:
            assert not any(type(k) is tuple for k in container)
        validator = node.validator
        for txids in (validator._committed, validator._aborted):
            assert all(type(txid) is bytes for txid in txids)
            certs += len(txids)
    assert len(tables) == len(run.replicas) + len(run.clients)
    assert verified and certs


#: Upper bound on :func:`retained_bytes_per_commit`, per interpreter
#: and version it was measured on: this layout's value plus 10 %.
RETAINED_BYTES_PER_COMMIT = {("cpython", 3, 11): 19_210}


def retained_bytes_per_commit() -> float:
    """The bytes that replica stores and ``tx_states`` alone keep alive,
    per committed transaction, at the end of a ``SPEC`` run: what
    tracemalloc sees freed when every replica drops them.  Shared state
    (the genesis population and its chains, records a client still
    holds) is not counted."""
    gc.collect()  # a full collection also empties the free lists
    tracemalloc.start()
    try:
        seq = SequentialRun(SPEC)
        seq.run()
        replicas = list(seq.system.replicas.values())
        commits = len({
            txid for r in replicas for txid, state in r.tx_states.items()
            if state.phase is TxPhase.COMMITTED
        })
        stores = [weakref.ref(r.store) for r in replicas]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        for replica in replicas:
            replica.store = replica.tx_states = None
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # nothing but the replicas kept a store or a transaction state alive
    assert all(store() is None for store in stores)
    assert not any(type(obj) is TxState for obj in gc.get_objects())
    assert commits and freed > 0
    return freed / commits


def test_retained_bytes_per_commit_stay_bounded():
    """Memory regression guard on :func:`retained_bytes_per_commit`.

    It is measured in a fresh interpreter: in this one, free lists and
    caches that earlier tests filled move it by a few per cent.  There
    it is deterministic (the hash seed does not move it either).
    Measured on CPython 3.11.7: 22,274 bytes with list chains,
    ``(timestamp, Version)`` entries and one decision signal per
    transaction; 18,396 with exact-size tuple chains, the shared genesis
    chain, one record per version and lazy decision signals; 17,464
    with siblings-only Merkle proofs and promoted versions moved, not
    copied, into the committed chain.  Another interpreter version
    allocates differently, so each has its own bound.
    """
    interpreter = (sys.implementation.name, *sys.version_info[:2])
    bound = RETAINED_BYTES_PER_COMMIT.get(interpreter)
    assert bound is not None, (
        f"no bound measured on {interpreter}: run retained_bytes_per_commit() "
        "on it and add its value plus 10 % to RETAINED_BYTES_PER_COMMIT"
    )
    root = Path(__file__).resolve().parents[2]
    src = Path(repro.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c",
         "from tests.integration.test_replica_footprint import "
         "retained_bytes_per_commit as m; print(m())"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    value = float(child.stdout)
    assert value <= bound, value
