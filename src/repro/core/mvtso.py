"""MVTSO-Check (Algorithm 1) and per-transaction replica state.

The check is the synchronous core of a replica's Prepare-phase vote:
timestamp-bound admission, dependency validation, read/write conflict
windows against committed *and* prepared transactions, and RTS fencing.
Step 7 of the algorithm (waiting for dependency decisions) is
asynchronous and lives in :mod:`repro.core.replica`; this module reports
which dependencies must be awaited.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.certificates import CommitCert, ConflictProof, DecisionCert
from repro.core.messages import Decision, Vote
from repro.core.transaction import ShardPart, TxRecord
from repro.crypto.digest import Digest
from repro.sim.events import Signal
from repro.sim.loop import Future


class TxPhase(enum.Enum):
    """Lifecycle of a transaction at one replica."""

    UNKNOWN = "unknown"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class TxState:
    """Everything one replica knows about one transaction.

    The three fallback containers stay None until the path that fills
    them first runs (a recovery prepare or an ST2 for ``interested``,
    the first ELECTFB for the other two), and so does the decision
    signal (a dependent prepare's :meth:`wait_decision`): a transaction
    the fast path decides never allocates them.
    """

    tx: Optional[TxRecord] = None
    phase: TxPhase = TxPhase.UNKNOWN
    #: The replica's ST1R vote; computed at most once and then stored.
    vote: Optional[Vote] = None
    conflict: Optional[ConflictProof] = None
    conflict_txid: Optional[Digest] = None
    conflict_key: object = None
    #: Fires with the Decision once this transaction commits or aborts
    #: here; made by the first wait on an undecided transaction.
    decision_signal: Optional[Signal] = None
    cert: Optional[DecisionCert] = None
    #: Slow-path log state (only meaningful on S_log members).
    logged_decision: Optional[Decision] = None
    view_decision: int = 0
    view_current: int = 0
    view_adopted_at: float = 0.0
    #: Names of clients to push ST2R results to after fallback decisions,
    #: each once, in arrival order.
    interested: Optional[tuple[str, ...]] = None
    #: ELECTFB attestations gathered while acting as fallback leader,
    #: keyed by view then by sender replica.
    elect_msgs: Optional[dict[int, dict[str, object]]] = None
    #: Views for which this replica (as leader) already proposed a DECFB.
    proposed_views: Optional[set[int]] = None

    def add_interested(self, client: str) -> None:
        interested = self.interested
        if interested is None:
            self.interested = (client,)
        elif client not in interested:
            self.interested = interested + (client,)

    @property
    def decided(self) -> bool:
        return self.phase in (TxPhase.COMMITTED, TxPhase.ABORTED)

    def wait_decision(self) -> Future:
        """A future resolved with this transaction's Decision here: at
        once if it is decided, else when the decision signal fires."""
        if self.decided:
            fut = Future()
            fut.set_result(
                Decision.COMMIT if self.phase is TxPhase.COMMITTED else Decision.ABORT
            )
            return fut
        signal = self.decision_signal
        if signal is None:
            signal = self.decision_signal = Signal()
        return signal.wait()


class CheckStatus(enum.Enum):
    ABORT = "abort"
    MISBEHAVIOR = "misbehavior"
    PREPARED = "prepared"


#: Coarse abort-reason taxonomy over :attr:`CheckResult.reason`, the
#: buckets observability reports use (see docs/observability.md):
#: ``stale-read`` — the transaction read a snapshot a concurrent writer
#: already superseded; ``prepare-conflict`` — its own writes lost an
#: MVTSO race (invalidating a read, fenced by an RTS, or outside the
#: time bound); ``dep-abort`` — a dependency it read from aborted or was
#: invalid; ``misbehavior`` — the client broke protocol rules.  Two more
#: buckets are produced outside MVTSO-Check: ``fallback-abort`` (decided
#: ABORT via the fallback path) and ``shed`` (admission control).
ABORT_TAXONOMY = {
    "missed-write": "stale-read",
    "invalidates-read": "prepare-conflict",
    "rts-fence": "prepare-conflict",
    "timestamp-bound": "prepare-conflict",
    "invalid-dep": "dep-abort",
    "dep-aborted": "dep-abort",
    "read-from-future": "misbehavior",
}


def classify_abort(reason: str) -> str:
    """Map a fine-grained MVTSO-Check reason onto the coarse taxonomy."""
    return ABORT_TAXONOMY.get(reason, "other")


@dataclass(frozen=True)
class CheckResult:
    status: CheckStatus
    reason: str = ""
    conflict: Optional[ConflictProof] = None
    #: Dependencies that were still undecided when T prepared; the replica
    #: must await their decisions before casting its vote (step 7).
    pending_deps: tuple[Digest, ...] = ()
    #: The (possibly uncommitted) transaction responsible for the abort
    #: and a key it touches: lets the aborted client *finish* it (Sec 5:
    #: clients blocked or aborted by a stalled transaction finish it).
    conflict_txid: Optional[Digest] = None
    conflict_key: object = None


def mvtso_check(
    store,
    tx_states: dict[Digest, TxState],
    tx: TxRecord | ShardPart,
    local_time: float,
    delta: float,
) -> CheckResult:
    """Run Algorithm 1 for ``tx`` against one replica's state.

    Here and in ``undo_prepare`` / ``apply_commit``, ``tx`` is the part
    of T on the replica's shard (``Sharder.part_of``); the check never
    replaces a record the caller already keeps for T in ``tx_states``.

    On PREPARED, the transaction's writes have been made visible as
    prepared versions and its reads indexed; the caller must roll these
    back (``undo_prepare``) if a dependency later aborts.
    """
    from repro.core.timestamps import Timestamp

    ts = tx.timestamp
    # (1) timestamp within the replica's clock bound (lines 1-2)
    if ts > Timestamp.from_clock(local_time + delta, client_id=1 << 62):
        return CheckResult(CheckStatus.ABORT, reason="timestamp-bound")

    # (2) dependencies are valid (lines 3-4)
    for dep in tx.deps:
        dep_state = tx_states.get(dep.txid)
        if dep_state is None or dep_state.tx is None or dep_state.phase is TxPhase.UNKNOWN:
            return CheckResult(
                CheckStatus.ABORT, reason="invalid-dep",
                conflict_txid=dep.txid, conflict_key=dep.key,
            )
        dep_tx = dep_state.tx
        if not dep_tx.writes_key(dep.key) or dep_tx.timestamp != dep.version:
            return CheckResult(CheckStatus.ABORT, reason="invalid-dep")
        if dep_state.phase is TxPhase.ABORTED:
            return CheckResult(CheckStatus.ABORT, reason="dep-aborted")

    # (3) reads did not miss a write (lines 5-8)
    for key, version in tx.read_set:
        if version > ts:
            return CheckResult(CheckStatus.MISBEHAVIOR, reason="read-from-future")
        committed, prepared = store.writes_between(key, version, ts)
        if committed or prepared:
            missed = committed + prepared
            return CheckResult(
                CheckStatus.ABORT,
                reason="missed-write",
                conflict=_conflict_proof(tx_states, missed),
                conflict_txid=missed[0].writer,
                conflict_key=key,
            )

    for key, _value in tx.write_set:
        # (4) our write does not invalidate reads of prepared/committed txns
        spanning = store.reads_spanning(key, ts)
        if spanning:
            readers = [tx_states.get(reader) for _, _, reader in spanning]
            return CheckResult(
                CheckStatus.ABORT,
                reason="invalidates-read",
                conflict=_conflict_proof_states(readers),
                conflict_txid=spanning[0][2],
                conflict_key=key,
            )
        # (5) our write does not invalidate ongoing reads (RTS fence)
        if store.has_rts_above(key, ts):
            return CheckResult(CheckStatus.ABORT, reason="rts-fence")

    # (6) prepare T and make its writes visible (line 14)
    state = tx_states.get(tx.txid)
    if state is None:
        state = tx_states[tx.txid] = TxState(tx)
    elif state.tx is None:
        state.tx = tx
    state.phase = TxPhase.PREPARED
    for key, value in tx.write_set:
        store.add_prepared_write(key, ts, value, tx.txid)
    for key, version in tx.read_set:
        store.add_read(key, ts, version, tx.txid)

    # (7) report still-pending dependencies; caller awaits them
    pending = tuple(
        dep.txid
        for dep in tx.deps
        if not tx_states[dep.txid].decided
    )
    return CheckResult(CheckStatus.PREPARED, pending_deps=pending)


def undo_prepare(store, tx: TxRecord | ShardPart) -> None:
    """Remove T's prepared writes and indexed reads (abort path)."""
    for key, _value in tx.write_set:
        store.remove_prepared_write(key, tx.timestamp)
    for key, version in tx.read_set:
        store.remove_read(key, tx.timestamp, version, tx.txid)


def apply_commit(store, tx: TxRecord | ShardPart) -> None:
    """Apply T's writes as committed versions (promoting if prepared).

    A write T itself prepared is committed by its promotion; any other
    write goes through ``apply_committed_write``, which inserts it, or
    raises StorageError if another writer holds its timestamp.
    """
    for key, value in tx.write_set:
        if store.promote_prepared_write(key, tx.timestamp) != tx.txid:
            store.apply_committed_write(key, tx.timestamp, value, tx.txid)
    for key, version in tx.read_set:
        store.add_read(key, tx.timestamp, version, tx.txid)


def _conflict_proof(tx_states, versions) -> ConflictProof | None:
    """Build a conflict proof from the first *committed* conflicting writer."""
    for version in versions:
        state = tx_states.get(version.writer)
        if state is not None and state.tx is not None and isinstance(state.cert, CommitCert):
            return ConflictProof(tx=state.tx, cert=state.cert)
    return None


def _conflict_proof_states(states) -> ConflictProof | None:
    for state in states:
        if state is not None and state.tx is not None and isinstance(state.cert, CommitCert):
            return ConflictProof(tx=state.tx, cert=state.cert)
    return None
