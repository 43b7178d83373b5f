"""Replica state holds only what a fast-path transaction uses.

A small seeded closed-loop run in which every transaction commits on the
fast path leaves, on every replica:

* no fallback containers on any transaction's state;
* every empty version chain as the one shared ``()``;
* one genesis chain entry per key, shared by all 5f+1 replicas of its
  shard;
* slotted records (no per-instance ``__dict__``) and verification
  caches keyed without per-entry tuples: one table of verified
  signatures per node, on its crypto context.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.core.mvtso import TxState
from repro.core.timestamps import GENESIS
from repro.run import ModelSpec, SequentialRun
from repro.sim.events import Signal
from repro.storage.versionstore import _EMPTY, Version

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
        # fired with nobody waiting: no waiter list was ever made
        assert state.decision_signal.fired
        assert state.decision_signal._waiters is None


def test_every_empty_chain_is_the_shared_tuple(run):
    chains = 0
    for replica in run.replicas.values():
        for state in _key_states(replica):
            for chain in (state.committed, state.prepared, state.rts, state.reads):
                chains += 1
                if not chain:
                    assert chain is _EMPTY
                else:
                    assert type(chain) is list
    assert chains


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


def test_records_have_no_instance_dict(run):
    replica = run.shard_replicas(0)[0]
    state = next(iter(replica.tx_states.values()))
    version = next(s.committed[-1][1] for s in _key_states(replica) if s.committed)
    for obj in (state, state.decision_signal, version):
        assert isinstance(obj, (TxState, Signal, Version))
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    # a signal nobody has waited on has no waiter list, fired or not
    assert TxState().decision_signal._waiters is None


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
