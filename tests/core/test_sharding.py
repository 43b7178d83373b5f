"""Tests for shard topology decisions."""

import json
import os
import random
import subprocess
import sys

from hypothesis import given
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.sharding import Sharder
from repro.core.timestamps import Timestamp
from repro.core.transaction import TxBuilder


def make_tx(keys, nwrites=1):
    b = TxBuilder(timestamp=Timestamp(10, 1))
    for i, k in enumerate(keys):
        if i < nwrites:
            b.record_write(k, b"v")
        else:
            b.record_read(k, Timestamp(1, 1))
    return b.freeze()


def test_single_shard_everything_is_shard_zero():
    s = Sharder(SystemConfig(num_shards=1, f=1))
    assert all(s.shard_of(f"k{i}") == 0 for i in range(50))


def test_membership_size_is_5f_plus_1():
    for f in (1, 2):
        s = Sharder(SystemConfig(num_shards=2, f=f))
        assert len(s.members(0)) == 5 * f + 1
        assert len(set(s.members(0)) & set(s.members(1))) == 0
        for shard in (0, 1):  # the set view is the ordered tuple's members
            assert isinstance(s.members(shard), tuple)
            assert s.member_set(shard) == frozenset(s.members(shard))
            assert s.member_set(shard) is s.member_set(shard)  # built once


def test_shard_of_replica_roundtrip():
    s = Sharder(SystemConfig(num_shards=3, f=1))
    for shard in range(3):
        for name in s.members(shard):
            assert s.shard_of_replica(name) == shard


@given(st.text(min_size=1, max_size=12))
def test_placement_deterministic_and_in_range(key):
    s1 = Sharder(SystemConfig(num_shards=3, f=1))
    s2 = Sharder(SystemConfig(num_shards=3, f=1))
    assert s1.shard_of(key) == s2.shard_of(key)
    assert 0 <= s1.shard_of(key) < 3


def test_placement_spreads_keys():
    s = Sharder(SystemConfig(num_shards=3, f=1))
    shards = {s.shard_of(f"key-{i}") for i in range(100)}
    assert shards == {0, 1, 2}


def test_tx_shards_and_s_log():
    s = Sharder(SystemConfig(num_shards=3, f=1))
    keys = [f"key-{i}" for i in range(30)]
    tx = make_tx(keys, nwrites=5)
    involved = s.shards_of_tx(tx)
    assert involved == (0, 1, 2)
    assert s.s_log(tx) in involved
    # deterministic across sharder instances
    assert Sharder(SystemConfig(num_shards=3, f=1)).s_log(tx) == s.s_log(tx)


def test_s_log_only_among_involved():
    s = Sharder(SystemConfig(num_shards=3, f=1))
    # build single-key transactions: s_log must equal that key's shard
    for i in range(20):
        tx = make_tx([f"key-{i}"])
        assert s.s_log(tx) == s.shard_of(f"key-{i}")


def test_leader_rotates_with_view():
    s = Sharder(SystemConfig(num_shards=1, f=1))
    tx = make_tx(["a"])
    leaders = [s.leader_of(0, tx.txid, v) for v in range(s.n)]
    assert len(set(leaders)) == s.n  # round-robin covers all replicas
    assert s.leader_of(0, tx.txid, 0) == s.leader_of(0, tx.txid, s.n)


# ---------------------------------------------------------------------------
# Cross-process determinism: every placement decision must be a pure
# function of the inputs — no dependence on hash randomization, object
# identity, or interpreter state.  Clients and replicas run in different
# processes on a real deployment, so disagreement here is a split brain.
# ---------------------------------------------------------------------------
_TOPOLOGY_SNIPPET = """
import json
from repro.config import SystemConfig
from repro.core.sharding import Sharder
from repro.core.timestamps import Timestamp
from repro.core.transaction import TxBuilder

s = Sharder(SystemConfig(num_shards=3, f=1))
b = TxBuilder(timestamp=Timestamp(10, 1))
b.record_write("alpha", b"v")
b.record_read("beta", Timestamp(1, 1))
b.record_read("gamma-key", Timestamp(1, 1))
tx = b.freeze()
print(json.dumps({
    "shards": [s.shard_of(f"key-{i}") for i in range(64)],
    "txid": tx.txid.hex(),
    "s_log": s.s_log(tx),
    "leaders": [s.leader_of(0, tx.txid, v) for v in range(s.n)],
}))
"""


def _topology_in_subprocess(hashseed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run(
        [sys.executable, "-c", _TOPOLOGY_SNIPPET],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_topology_stable_across_processes():
    """shard_of / s_log / leader_of agree across interpreter instances
    with different hash randomization seeds, and with this process."""
    a = _topology_in_subprocess("1")
    b = _topology_in_subprocess("271828")
    assert a == b

    s = Sharder(SystemConfig(num_shards=3, f=1))
    assert a["shards"] == [s.shard_of(f"key-{i}") for i in range(64)]
    tx_builder = TxBuilder(timestamp=Timestamp(10, 1))
    tx_builder.record_write("alpha", b"v")
    tx_builder.record_read("beta", Timestamp(1, 1))
    tx_builder.record_read("gamma-key", Timestamp(1, 1))
    tx = tx_builder.freeze()
    assert a["txid"] == tx.txid.hex()
    assert a["s_log"] == s.s_log(tx)
    assert a["leaders"] == [s.leader_of(0, tx.txid, v) for v in range(s.n)]


def test_client_and_replica_instances_agree():
    """Independently constructed sharders (a client's and a replica's
    view of the topology) derive identical placement decisions."""
    config = SystemConfig(num_shards=4, f=1)
    client_side = Sharder(config)
    replica_side = Sharder(SystemConfig(num_shards=4, f=1))
    rng = random.Random(7)
    for i in range(50):
        key = f"key-{rng.randrange(10_000)}"
        assert client_side.shard_of(key) == replica_side.shard_of(key)
        tx = make_tx([f"key-{rng.randrange(10_000)}" for _ in range(4)], nwrites=2)
        assert client_side.shards_of_tx(tx) == replica_side.shards_of_tx(tx)
        assert client_side.s_log(tx) == replica_side.s_log(tx)
        shard = client_side.s_log(tx)
        for view in range(3):
            assert client_side.leader_of(shard, tx.txid, view) == replica_side.leader_of(
                shard, tx.txid, view
            )
