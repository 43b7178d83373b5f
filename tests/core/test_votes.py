"""Tests for shard vote tallying (Sec 4.2 stage-1 cases)."""

import pytest

from repro.core.messages import Decision, Vote
from repro.core.votes import ShardOutcome, ShardVoteCollector

from tests.core.conftest import sign_vote

TXID = b"\x42" * 32


@pytest.fixture()
def collector(config):
    return ShardVoteCollector(txid=TXID, shard=0, config=config)


def add_votes(collector, registry, sharder, votes):
    """votes: list of Vote values assigned to replicas in order."""
    for name, vote in zip(sharder.members(0), votes):
        collector.add(sign_vote(registry, name, TXID, vote))


def test_commit_fast_path_requires_unanimity(collector, registry, sharder, config):
    add_votes(collector, registry, sharder, [Vote.COMMIT] * (config.n - 1))
    assert collector.classify(complete=False) is None
    add_votes(collector, registry, sharder, [Vote.COMMIT] * config.n)
    outcome, tally = collector.classify(complete=False)
    assert outcome is ShardOutcome.COMMIT_FAST
    assert tally.decision is Decision.COMMIT
    assert len(tally.voters()) == config.n


def test_commit_slow_once_fast_impossible(collector, registry, sharder, config):
    # 3f+1 commits plus one abort: fast path is unreachable, settle slow.
    votes = [Vote.COMMIT] * config.commit_quorum + [Vote.ABORT]
    add_votes(collector, registry, sharder, votes)
    outcome, tally = collector.classify(complete=False)
    assert outcome is ShardOutcome.COMMIT_SLOW
    assert tally.decision is Decision.COMMIT


def test_commit_slow_when_complete(collector, registry, sharder, config):
    add_votes(collector, registry, sharder, [Vote.COMMIT] * config.commit_quorum)
    assert collector.classify(complete=False) is None  # fast still possible
    outcome, _ = collector.classify(complete=True)
    assert outcome is ShardOutcome.COMMIT_SLOW


def test_abort_fast_at_3f_plus_1(collector, registry, sharder, config):
    add_votes(collector, registry, sharder, [Vote.ABORT] * config.abort_fast_quorum)
    outcome, tally = collector.classify(complete=False)
    assert outcome is ShardOutcome.ABORT_FAST
    assert len(tally.voters()) == config.abort_fast_quorum


def test_abort_slow_when_complete(collector, registry, sharder, config):
    votes = [Vote.COMMIT] * 2 + [Vote.ABORT] * (config.f + 1)
    add_votes(collector, registry, sharder, votes)
    assert collector.classify(complete=False) is None
    outcome, tally = collector.classify(complete=True)
    assert outcome is ShardOutcome.ABORT_SLOW
    assert tally.decision is Decision.ABORT


def test_abort_slow_early_when_commit_unreachable(collector, registry, sharder, config):
    # With enough aborts that 3f+1 commits can never materialize, the
    # shard can settle abort before hearing from everyone.
    votes = [Vote.ABORT] * (2 * config.f + 1) + [Vote.COMMIT]
    add_votes(collector, registry, sharder, votes)
    result = collector.classify(complete=False)
    assert result is not None
    assert result[0] is ShardOutcome.ABORT_SLOW


def test_conflict_cert_abort_is_immediate(collector, registry, sharder, config):
    name = sharder.members(0)[0]
    collector.add(sign_vote(registry, name, TXID, Vote.ABORT, conflict="proof"))
    outcome, tally = collector.classify(complete=False)
    assert outcome is ShardOutcome.ABORT_FAST
    assert len(tally.votes) == 1


def test_duplicate_replica_votes_ignored(collector, registry, sharder, config):
    name = sharder.members(0)[0]
    collector.add(sign_vote(registry, name, TXID, Vote.COMMIT))
    collector.add(sign_vote(registry, name, TXID, Vote.ABORT))
    assert collector.replies == 1
    assert collector.classify(complete=True) is None


def test_wrong_txid_ignored(collector, registry, sharder):
    name = sharder.members(0)[0]
    collector.add(sign_vote(registry, name, b"\x00" * 32, Vote.COMMIT))
    assert collector.replies == 0
