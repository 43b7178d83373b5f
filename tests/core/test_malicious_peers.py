"""Hostile-peer robustness: garbage from other *clients* must not crash
or corrupt a victim client's transaction."""

import pytest

from repro.config import SystemConfig
from repro.core.api import TransactionSession
from repro.core.messages import (
    DecisionLogReply,
    PrepareReply,
    PrepareVote,
    ReadReply,
    Vote,
)
from repro.core.system import BasilSystem
from repro.crypto.signatures import SignedMessage


@pytest.fixture()
def system():
    sys_ = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=1))
    sys_.load({"k": b"v"})
    return sys_


class SpammerMixin:
    """Sends forged protocol replies at a victim, claiming replica-hood."""


def spam_victim(system, attacker, victim_name, txid=b"\x00" * 32):
    key = system.registry.issue(attacker.name)
    vote = PrepareVote(txid=txid, replica=attacker.name, vote=Vote.ABORT)
    signed = SignedMessage(payload=vote, signature=key.sign(vote))
    for req_id in range(1, 30):
        attacker.network.send(
            attacker, victim_name, PrepareReply(req_id=req_id, attestation=signed)
        )
        fake_read = ReadReply(
            req_id=req_id, key="k", replica=attacker.name, committed=None, prepared=None
        )
        attacker.network.send(
            attacker, victim_name,
            SignedMessage(payload=fake_read, signature=key.sign(fake_read)),
        )


def test_spammed_client_still_commits(system):
    attacker = system.create_client()
    victim = system.create_client()

    async def main():
        spam_victim(system, attacker, victim.name)
        session = TransactionSession(victim)
        value = await session.read("k")
        session.write("k", value + b"!")
        # keep spamming mid-transaction too
        spam_victim(system, attacker, victim.name)
        return await session.commit()

    result = system.sim.run_until_complete(main())
    assert result.committed
    system.run()
    assert system.committed_value("k") == b"v!"


def test_client_votes_do_not_count_toward_quorums(system):
    """An attacker claiming to be a replica in vote payloads is ignored."""
    attacker = system.create_client()
    victim = system.create_client()
    key = system.registry.issue(attacker.name)

    async def main():
        session = TransactionSession(victim)
        session.write("k", b"target")
        tx = session.builder.freeze()
        # flood abort votes claiming a replica identity (signature won't
        # match the claimed replica, and the sender is not a replica)
        fake = PrepareVote(txid=tx.txid, replica="s0/r0", vote=Vote.ABORT)
        signed = SignedMessage(payload=fake, signature=key.sign(fake))
        for req_id in range(1, 10):
            attacker.network.send(
                attacker, victim.name, PrepareReply(req_id=req_id, attestation=signed)
            )
        outcome = await victim.commit(tx, {})
        return outcome

    outcome = system.sim.run_until_complete(main())
    assert outcome.committed  # the forged aborts changed nothing


def test_garbage_messages_ignored(system):
    victim = system.create_client()
    attacker = system.create_client()

    async def main():
        attacker.network.send(attacker, victim.name, "not-a-protocol-message")
        attacker.network.send(attacker, victim.name, 12345)
        attacker.network.send(
            attacker, victim.name, DecisionLogReply(req_id=0, attestation=None)
        )
        session = TransactionSession(victim)
        return await session.read("k")

    # garbage may raise inside the victim's handler task, but must never
    # corrupt its transaction path
    assert system.sim.run_until_complete(main()) == b"v"


def test_framing_reads_with_foreign_client_id_ignored(system):
    """Reads stamped with another client's id are dropped: the replica
    sends no reply and leaves no RTS mark against the victim."""
    from repro.core.messages import ReadRequest
    from repro.core.timestamps import Timestamp

    attacker = system.create_client()
    victim = system.create_client()
    forged_ts = Timestamp.from_clock(attacker.local_time, victim.client_id)

    async def main():
        for i, name in enumerate(system.sharder.members(0)):
            attacker.network.send(
                attacker, name,
                ReadRequest(req_id=i + 1, key="k", timestamp=forged_ts,
                            client=victim.name),
            )
        await system.sim.sleep(0.01)

    replicas = system.shard_replicas(0)
    sent = [replica.messages_sent for replica in replicas]
    system.sim.run_until_complete(main())
    assert [replica.messages_sent for replica in replicas] == sent
    for replica in replicas:
        assert not replica.store.has_rts_above("k", forged_ts.__class__(0, 0))
