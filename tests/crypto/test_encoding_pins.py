"""Byte-level pins of the canonical encoding.

Transaction ids, signatures and Merkle roots are all digests of
``canonical_encode``, and trace digests follow from them, so an encoder
change that alters one byte of one class's encoding moves every
schedule.  These pins fix the ``digest_of`` hex of one instance of every
message class that reaches the encoder (ledger entries
``encoding/<class>`` in ``tests/pins.json``), and the exact encoding of
the atoms whose tags keep types apart (written out below: a format
specification, not a recorded value).  A faster encoder must reproduce
them all.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

import pytest

from repro.core.attestation import BatchAttestation
from repro.core.certificates import (
    GENESIS_CERT,
    AbortCert,
    CommitCert,
    ConflictProof,
    ShardLogCert,
)
from repro.core.messages import (
    CommittedRead,
    DecFBPayload,
    Decision,
    DecisionLogResult,
    ElectFBPayload,
    PreparedRead,
    PrepareVote,
    ReadReply,
    Vote,
)
from repro.core.timestamps import GENESIS, Timestamp
from repro.core.transaction import Dep, TxRecord
from repro.core.votes import VoteTally
from repro.crypto.digest import canonical_encode, digest_of
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import KeyRegistry, SignedMessage
from tests.conftest import pinned_names


def messages() -> dict[str, Any]:
    """One freshly built instance of every class that reaches ``digest_of``."""
    registry = KeyRegistry(seed=5)
    r0, r1 = registry.issue("s0/r0"), registry.issue("s0/r1")

    def signed(key, payload):
        return SignedMessage(payload=payload, signature=key.sign(payload))

    dep = Dep(txid=b"\x11" * 32, key="k1", version=Timestamp(999, 3))
    tx = TxRecord(
        timestamp=Timestamp(1_000_123, 7),
        read_set=(("k1", Timestamp(999, 3)), (42, GENESIS)),
        write_set=(("k2", b"value"), ("k3", 17)),
        deps=(dep,),
    )
    other = TxRecord(
        timestamp=Timestamp(1_000_001, 2),
        read_set=(),
        write_set=(("k1", "x"),),
    )
    commit_vote = PrepareVote(txid=tx.txid, replica="s0/r0", vote=Vote.COMMIT)
    payloads = [commit_vote, PrepareVote(txid=tx.txid, replica="s0/r0", vote=Vote.ABORT),
                ("plain", 3)]
    tree = MerkleTree([digest_of(p) for p in payloads])
    batch_att = BatchAttestation(
        payload=commit_vote, root=tree.root, proof=tree.proof(0),
        root_signature=r0.sign_digest(tree.root),
    )
    signed_vote = signed(r1, PrepareVote(txid=tx.txid, replica="s0/r1", vote=Vote.COMMIT))
    commit_tally = VoteTally(txid=tx.txid, shard=0, decision=Decision.COMMIT,
                             votes=(batch_att, signed_vote))
    fast_commit = CommitCert(txid=tx.txid, kind="fast", tallies=(commit_tally,))
    log_result = DecisionLogResult(txid=tx.txid, replica="s0/r1",
                                   decision=Decision.COMMIT, view_decision=0,
                                   view_current=1)
    log_cert = ShardLogCert(txid=tx.txid, shard=0, decision=Decision.COMMIT, view=0,
                            st2rs=(signed(r1, log_result),))
    slow_commit = CommitCert(txid=tx.txid, kind="slow", log=log_cert)
    other_cert = CommitCert(txid=other.txid, kind="slow", log=ShardLogCert(
        txid=other.txid, shard=0, decision=Decision.COMMIT, view=2, st2rs=()))
    proof = ConflictProof(tx=other, cert=other_cert)
    conflict_vote = PrepareVote(txid=tx.txid, replica="s0/r0", vote=Vote.ABORT,
                                conflict=proof, conflict_txid=other.txid,
                                conflict_key="k1")
    abort_tally = VoteTally(txid=tx.txid, shard=0, decision=Decision.ABORT,
                            votes=(signed(r0, conflict_vote),))
    return {
        "Dep": dep,
        "TxRecord": tx,
        "Timestamp": tx.timestamp,
        "Vote": Vote.COMMIT,
        "Decision": Decision.ABORT,
        "PrepareVote": commit_vote,
        "PrepareVote+ConflictProof": conflict_vote,
        "ConflictProof": proof,
        "InclusionProof": batch_att.proof,
        "BatchAttestation": batch_att,
        "Signature": signed_vote.signature,
        "SignedMessage": signed_vote,
        "VoteTally": commit_tally,
        "CommitCert/fast": fast_commit,
        "DecisionLogResult": log_result,
        "ShardLogCert": log_cert,
        "CommitCert/slow": slow_commit,
        "CommitCert/genesis": GENESIS_CERT,
        "AbortCert/fast": AbortCert(txid=tx.txid, kind="fast", tally=abort_tally),
        "AbortCert/slow": AbortCert(txid=tx.txid, kind="slow", log=log_cert),
        "ReadReply": ReadReply(
            req_id=3, key="k2", replica="s0/r0",
            committed=CommittedRead(version=tx.timestamp, value=b"value",
                                    cert=fast_commit, tx=tx),
            prepared=PreparedRead(value="x", tx=other),
        ),
        "ElectFBPayload": ElectFBPayload(txid=tx.txid, replica="s0/r1",
                                         decision=Decision.COMMIT, view=4),
        "DecFBPayload": DecFBPayload(txid=tx.txid, leader="s0/r2",
                                     decision=Decision.ABORT, view=5),
        "tuple-of-messages": (tx.timestamp, dep, Vote.ABORT),
    }


class Pair(NamedTuple):
    left: Any
    right: Any


class Level(enum.IntEnum):
    LOW = 1


def atoms() -> dict[str, Any]:
    return {
        "None": None,
        "True": True,
        "False": False,
        "int 1": 1,
        "int -12": -12,
        "big int": 2**70,
        "float 1.0": 1.0,
        "float -2.5e-07": -2.5e-07,
        "str": "héllo",
        "bytes": b"h\x00i",
        "tuple": (1, "a"),
        "list": [1, "a"],
        "empty tuple": (),
        "nested": [(1, [b"x"]), {"k": None}],
        "dict": {"b": 1, "a": (2,), 3: "c"},
        "dict reordered": {3: "c", "a": (2,), "b": 1},
        "set": {3, 1, 2},
        "frozenset": frozenset({2, 3, 1}),
        "tuple subclass": Pair(1, "a"),
        "int subclass": Level.LOW,
    }


#: name -> canonical_encode(value)
ATOM_ENCODINGS: dict[str, bytes] = {
    'False': b'F',
    'None': b'N',
    'True': b'T',
    'big int': b'i22:1180591620717411303424',
    'bytes': b'b3:h\x00i',
    'dict': b'd3:i1:3s1:cs1:al1:i1:2s1:bi1:1',
    'dict reordered': b'd3:i1:3s1:cs1:al1:i1:2s1:bi1:1',
    'empty tuple': b'l0:',
    'float -2.5e-07': b'f8:-2.5e-07',
    'float 1.0': b'f3:1.0',
    'frozenset': b'e3:i1:1i1:2i1:3',
    'int -12': b'i3:-12',
    'int 1': b'i1:1',
    'int subclass': b'i1:1',
    'list': b'l2:i1:1s1:a',
    'nested': b'l2:l2:i1:1l1:b1:xd1:s1:kN',
    'set': b'e3:i1:1i1:2i1:3',
    'str': b's6:h\xc3\xa9llo',
    'tuple': b'l2:i1:1s1:a',
    'tuple subclass': b'l2:i1:1s1:a',
}


@pytest.mark.parametrize("name", sorted(messages()))
def test_message_digest_is_pinned(name, pin):
    pin(f"encoding/{name}", digest_of(messages()[name]).hex())


def test_every_pinned_message_is_built():
    assert pinned_names("encoding/") == sorted(f"encoding/{name}" for name in messages())


def test_a_message_digest_does_not_depend_on_memo_state():
    """Nested objects contribute their digest whether or not it was
    memoised before: encoding the whole reply first and each part first
    give the same bytes."""
    fresh = messages()["ReadReply"]
    warmed = messages()
    for value in warmed.values():
        digest_of(value)
    assert digest_of(fresh) == digest_of(warmed["ReadReply"])


@pytest.mark.parametrize("name", sorted(ATOM_ENCODINGS))
def test_atom_encoding_is_pinned(name):
    assert canonical_encode(atoms()[name]) == ATOM_ENCODINGS[name]


def test_atom_tags_keep_types_apart():
    enc = {name: canonical_encode(value) for name, value in atoms().items()}
    assert enc["True"] != enc["int 1"]
    assert enc["int 1"] != enc["float 1.0"]
    assert canonical_encode("a") != canonical_encode(b"a")
    # Orderings never leak into the bytes; a set is a set, frozen or not.
    assert enc["dict"] == enc["dict reordered"]
    assert enc["set"] == enc["frozenset"]
    # Sequences are one tag: a tuple, a list and a tuple subclass with
    # the same items encode alike (message fields are tuples by
    # convention; nothing relies on telling the two apart).
    assert enc["tuple"] == enc["list"] == enc["tuple subclass"]

