"""Decision certificates and their validation.

* A **V-CERT** for a fast shard is a :class:`~repro.core.votes.VoteTally`
  whose attestation set meets the fast quorum (Sec 4.2 stage 1).
* A **V-CERT for S_log** (:class:`ShardLogCert`) is n-f = 4f+1 matching
  attested ST2R results (stage 2).
* A **C-CERT** (:class:`CommitCert`) proves a transaction committed:
  fast-path (every shard's unanimous commit V-CERT) or slow-path (the
  logging shard's V-CERT).  **A-CERT** (:class:`AbortCert`) is the abort
  analogue: fast-path needs only a single shard's abort V-CERT.

Validation is performed by :class:`CertValidator`, charging signature
verification costs through the attestation verifier and caching results
per (txid, decision) — sound because decisions are unique (Lemma 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig
from repro.core.attestation import Attestation, AttestationVerifier, attestation_payload
from repro.core.messages import Decision, DecisionLogResult, PrepareVote, Vote
from repro.core.sharding import Sharder
from repro.core.transaction import TxRecord
from repro.core.votes import VoteTally
from repro.crypto.digest import Digest

#: The id under which initially loaded (genesis) state committed.
GENESIS_TXID = b"\x00" * 32


@dataclass(frozen=True)
class ShardLogCert:
    """V-CERT for the logging shard: 4f+1 matching attested ST2R results."""

    txid: Digest
    shard: int
    decision: Decision
    view: int
    st2rs: tuple[Attestation, ...]

    def canonical_fields(self) -> tuple:
        return (self.txid, self.shard, self.decision, self.view, self.st2rs)


@dataclass(frozen=True)
class CommitCert:
    """C-CERT: proof that a transaction committed.

    ``kind`` is "fast" (``tallies`` holds one unanimous commit V-CERT per
    involved shard), "slow" (``log`` holds the S_log V-CERT), or
    "genesis" (initially loaded state; trusted by construction).
    """

    txid: Digest
    kind: str
    tallies: tuple[VoteTally, ...] = ()
    log: Optional[ShardLogCert] = None

    def canonical_fields(self) -> tuple:
        return (self.txid, self.kind, self.tallies, self.log)

    @property
    def decision(self) -> Decision:
        return Decision.COMMIT


@dataclass(frozen=True)
class AbortCert:
    """A-CERT: proof that a transaction aborted."""

    txid: Digest
    kind: str  # "fast" | "slow"
    tally: Optional[VoteTally] = None
    log: Optional[ShardLogCert] = None

    def canonical_fields(self) -> tuple:
        return (self.txid, self.kind, self.tally, self.log)

    @property
    def decision(self) -> Decision:
        return Decision.ABORT


DecisionCert = CommitCert | AbortCert

#: Shared genesis certificate object.
GENESIS_CERT = CommitCert(txid=GENESIS_TXID, kind="genesis")


@dataclass(frozen=True)
class ConflictProof:
    """Attached to an abort vote: a committed transaction T' conflicting
    with the vote's target (abort fast path, case 5)."""

    tx: TxRecord
    cert: CommitCert

    def canonical_fields(self) -> tuple:
        return (self.tx, self.cert)


def conflicts_with(a: TxRecord, b: TxRecord) -> bool:
    """True if committing both ``a`` and ``b`` would break serializability.

    Under MVTSO the only abort-inducing pattern between two transactions
    is: the lower-timestamped one writes a key that the higher-timestamped
    one read at a version below the writer's timestamp (the reader missed
    the write; Algorithm 1 steps 3-4).
    """
    if a.timestamp == b.timestamp:
        return a.txid != b.txid
    lo, hi = (a, b) if a.timestamp < b.timestamp else (b, a)
    for key, version in hi.read_set:
        if version < lo.timestamp and lo.writes_key(key):
            return True
    return False


class CertValidator:
    """Validates certificates on behalf of one node (client or replica)."""

    def __init__(
        self,
        config: SystemConfig,
        sharder: Sharder,
        verifier: AttestationVerifier,
    ) -> None:
        self.config = config
        self.sharder = sharder
        self.verifier = verifier
        #: Transactions whose commit / abort certificate this node validated.
        self._committed: set[Digest] = set()
        self._aborted: set[Digest] = set()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    async def validate(self, cert: DecisionCert, tx: TxRecord | None) -> bool:
        if isinstance(cert, CommitCert):
            return await self.validate_commit(cert, tx)
        if isinstance(cert, AbortCert):
            return await self.validate_abort(cert, tx)
        return False

    async def validate_commit(self, cert: CommitCert, tx: TxRecord | None) -> bool:
        if not isinstance(cert, CommitCert):
            return False
        if cert.kind == "genesis":
            return cert.txid == GENESIS_TXID
        if tx is None or cert.txid != tx.txid:
            return False
        if cert.txid in self._committed:
            return True
        if cert.kind == "fast":
            ok = await self._validate_fast_commit(cert, tx)
        elif cert.kind == "slow":
            chosen = self._log_quorum(cert.log, tx, Decision.COMMIT)
            ok = chosen is not None and await self.verifier.verify_quorum(chosen)
        else:
            ok = False
        if ok:
            self._committed.add(cert.txid)
        return ok

    async def validate_abort(self, cert: AbortCert, tx: TxRecord | None) -> bool:
        if not isinstance(cert, AbortCert) or tx is None or cert.txid != tx.txid:
            return False
        if cert.txid in self._aborted:
            return True
        if cert.kind == "fast":
            ok = cert.tally is not None and await self._validate_abort_tally(cert.tally, tx)
        elif cert.kind == "slow":
            chosen = self._log_quorum(cert.log, tx, Decision.ABORT)
            ok = chosen is not None and await self.verifier.verify_quorum(chosen)
        else:
            ok = False
        if ok:
            self._aborted.add(cert.txid)
        return ok

    # ------------------------------------------------------------------
    # Vote tallies (fast paths)
    # ------------------------------------------------------------------
    async def _validate_fast_commit(self, cert: CommitCert, tx: TxRecord) -> bool:
        involved = self.sharder.shards_of_tx(tx)
        covered = tuple(sorted(t.shard for t in cert.tallies))
        if covered != involved:
            return False
        for tally in cert.tallies:
            if tally.decision is not Decision.COMMIT or tally.txid != tx.txid:
                return False
            chosen = self._tally_quorum(tally, Vote.COMMIT, self.config.commit_fast_quorum)
            if chosen is None or not await self.verifier.verify_quorum(chosen):
                return False
        return True

    async def _validate_abort_tally(self, tally: VoteTally, tx: TxRecord) -> bool:
        if tally.decision is not Decision.ABORT or tally.txid != tx.txid:
            return False
        if tally.shard not in self.sharder.shards_of_tx(tx):
            return False
        # Case 5: a single abort vote carrying a committed conflicting txn.
        if len(tally.votes) == 1:
            vote: PrepareVote = attestation_payload(tally.votes[0])
            if vote.conflict is None:
                return False
            chosen = self._tally_quorum(tally, Vote.ABORT, 1)
            if chosen is None or not await self.verifier.verify_quorum(chosen):
                return False
            return await self.validate_conflict(vote.conflict, tx)
        # Case 4: 3f+1 abort votes.
        chosen = self._tally_quorum(tally, Vote.ABORT, self.config.abort_fast_quorum)
        return chosen is not None and await self.verifier.verify_quorum(chosen)

    async def validate_conflict(self, proof: ConflictProof, target: TxRecord) -> bool:
        """Check the conflict proof really dooms ``target``.

        Without this check a single Byzantine replica could abort any
        transaction by attaching an arbitrary (valid) C-CERT, violating
        Byzantine independence.
        """
        if not isinstance(proof, ConflictProof):
            return False
        if proof.cert.txid != proof.tx.txid:
            return False
        if not conflicts_with(proof.tx, target):
            return False
        return await self.validate_commit(proof.cert, proof.tx)

    async def validate_vote_tally(
        self, tally: VoteTally, tx: TxRecord, quorum: int
    ) -> bool:
        """Validate a (slow-path) SHARDVOTES tally against a quorum size."""
        if tally.txid != tx.txid or tally.shard not in self.sharder.shards_of_tx(tx):
            return False
        expected = Vote.COMMIT if tally.decision is Decision.COMMIT else Vote.ABORT
        if tally.decision is Decision.ABORT and len(tally.votes) == 1:
            return await self._validate_abort_tally(tally, tx)
        chosen = self._tally_quorum(tally, expected, quorum)
        return chosen is not None and await self.verifier.verify_quorum(chosen)

    # ------------------------------------------------------------------
    # Quorum shapes: what the verifier's loop then checks and charges
    # ------------------------------------------------------------------
    def _tally_quorum(
        self, tally: VoteTally, expected: Vote, quorum: int
    ) -> list[Attestation] | None:
        """One attestation per distinct member voting ``expected``, or None
        if any vote is malformed or fewer than ``quorum`` members voted.
        Nothing is charged: only a well-formed quorum reaches the CPU."""
        members = self.sharder.member_set(tally.shard)
        chosen: dict[str, Attestation] = {}
        for att in tally.votes:
            vote: PrepareVote = attestation_payload(att)
            if not isinstance(vote, PrepareVote):
                return None
            if vote.txid != tally.txid or vote.vote is not expected:
                return None
            if vote.replica != att.signer or vote.replica not in members:
                return None
            chosen.setdefault(vote.replica, att)
        if len(chosen) < quorum:
            return None
        return list(chosen.values())

    def _log_quorum(
        self, log: ShardLogCert | None, tx: TxRecord, expected: Decision
    ) -> list[Attestation] | None:
        """The S_log V-CERT's counterpart of :meth:`_tally_quorum`."""
        if log is None or log.txid != tx.txid or log.decision is not expected:
            return None
        if log.shard != self.sharder.s_log(tx):
            return None
        members = self.sharder.member_set(log.shard)
        chosen: dict[str, Attestation] = {}
        for att in log.st2rs:
            result: DecisionLogResult = attestation_payload(att)
            if not isinstance(result, DecisionLogResult):
                return None
            if result.txid != tx.txid or result.decision is not expected:
                return None
            if result.view_decision != log.view:
                return None
            if result.replica != att.signer or result.replica not in members:
                return None
            chosen.setdefault(result.replica, att)
        if len(chosen) < self.config.st2_quorum:
            return None
        return list(chosen.values())
