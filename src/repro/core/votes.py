"""ST1R vote tallying: turning replica votes into shard outcomes.

A client collects attested :class:`~repro.core.messages.PrepareVote`
replies per shard and classifies the shard (Sec 4.2 stage 1, cases 1-5):

* **COMMIT_FAST** — all 5f+1 replicas voted commit (the shard's commit is
  already durable: any later client must still observe a CQ).
* **COMMIT_SLOW** — at least a CommitQuorum (3f+1) voted commit, but the
  vote is only a *tally*: an ST2 round is needed for durability.
* **ABORT_FAST** — 3f+1 abort votes (no competing commit quorum can ever
  form), or a single abort vote carrying a valid C-CERT of a conflicting
  committed transaction.
* **ABORT_SLOW** — an AbortQuorum (f+1) of abort votes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.core.attestation import Attestation, attestation_payload
from repro.core.messages import Decision, PrepareVote, Vote
from repro.crypto.digest import Digest


class ShardOutcome(enum.Enum):
    COMMIT_FAST = "commit_fast"
    COMMIT_SLOW = "commit_slow"
    ABORT_FAST = "abort_fast"
    ABORT_SLOW = "abort_slow"

    @property
    def decision(self) -> Decision:
        if self in (ShardOutcome.COMMIT_FAST, ShardOutcome.COMMIT_SLOW):
            return Decision.COMMIT
        return Decision.ABORT

    @property
    def fast(self) -> bool:
        return self in (ShardOutcome.COMMIT_FAST, ShardOutcome.ABORT_FAST)

    def canonical_fields(self) -> tuple:
        return (self.value,)


@dataclass(frozen=True)
class VoteTally:
    """A shard's vote with its supporting ST1R attestations.

    For fast outcomes this *is* the shard's V-CERT; for slow outcomes it
    is the SHARDVOTES evidence embedded in the ST2 message.
    """

    txid: Digest
    shard: int
    decision: Decision
    votes: tuple[Attestation, ...]

    def canonical_fields(self) -> tuple:
        return (self.txid, self.shard, self.decision, self.votes)

    def voters(self) -> frozenset[str]:
        return frozenset(attestation_payload(a).replica for a in self.votes)


@dataclass
class ShardVoteCollector:
    """Accumulates one shard's verified ST1R replies and classifies them.

    Only call :meth:`add` with attestations the client has already
    verified (signature + payload shape); the collector handles duplicate
    replicas and tally math.
    """

    txid: Digest
    shard: int
    config: SystemConfig
    _by_replica: dict[str, Attestation] = field(default_factory=dict)

    def add(self, att: Attestation) -> None:
        vote: PrepareVote = attestation_payload(att)
        if vote.txid != self.txid:
            return
        # First vote from a replica wins; correct replicas never change votes.
        self._by_replica.setdefault(vote.replica, att)

    @property
    def replies(self) -> int:
        return len(self._by_replica)

    def _split(self) -> tuple[list[Attestation], list[Attestation]]:
        commits, aborts = [], []
        for att in self._by_replica.values():
            if attestation_payload(att).vote is Vote.COMMIT:
                commits.append(att)
            else:
                aborts.append(att)
        return commits, aborts

    def conflict_abort(self) -> Attestation | None:
        """An abort vote carrying a (client-validated) conflict C-CERT."""
        for att in self._by_replica.values():
            vote = attestation_payload(att)
            if vote.vote is Vote.ABORT and vote.conflict is not None:
                return att
        return None

    def classify(self, complete: bool) -> tuple[ShardOutcome, VoteTally] | None:
        """Classify the shard, or return None if more replies are needed.

        ``complete`` means the client will not wait for further replies
        (all n replicas answered, or its patience timer fired).
        """
        cfg = self.config
        commits, aborts = self._split()
        conflict = self.conflict_abort()
        if conflict is not None:
            return ShardOutcome.ABORT_FAST, self._tally(Decision.ABORT, (conflict,))
        if len(aborts) >= cfg.abort_fast_quorum:
            return ShardOutcome.ABORT_FAST, self._tally(
                Decision.ABORT, tuple(aborts[: cfg.abort_fast_quorum])
            )
        if len(commits) >= cfg.commit_fast_quorum:
            return ShardOutcome.COMMIT_FAST, self._tally(Decision.COMMIT, tuple(commits))
        fast_commit_possible = (
            len(commits) + (cfg.n - self.replies) >= cfg.commit_fast_quorum
        )
        if len(commits) >= cfg.commit_quorum and (complete or not fast_commit_possible):
            return ShardOutcome.COMMIT_SLOW, self._tally(Decision.COMMIT, tuple(commits))
        if complete and len(aborts) >= cfg.abort_quorum:
            return ShardOutcome.ABORT_SLOW, self._tally(Decision.ABORT, tuple(aborts))
        commit_quorum_possible = (
            len(commits) + (cfg.n - self.replies) >= cfg.commit_quorum
        )
        if not commit_quorum_possible and len(aborts) >= cfg.abort_quorum:
            return ShardOutcome.ABORT_SLOW, self._tally(Decision.ABORT, tuple(aborts))
        return None

    def commit_tally(self, quorum: int) -> VoteTally | None:
        """A commit tally with at least ``quorum`` votes, if one exists."""
        commits, _ = self._split()
        if len(commits) < quorum:
            return None
        return self._tally(Decision.COMMIT, tuple(commits))

    def abort_tally(self, quorum: int) -> VoteTally | None:
        """An abort tally with at least ``quorum`` votes, if one exists."""
        _, aborts = self._split()
        if len(aborts) < quorum:
            return None
        return self._tally(Decision.ABORT, tuple(aborts))

    def _tally(self, decision: Decision, votes: tuple[Attestation, ...]) -> VoteTally:
        return VoteTally(txid=self.txid, shard=self.shard, decision=decision, votes=votes)
