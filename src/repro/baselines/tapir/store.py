"""TAPIR's replica-local OCC validation over the multiversion store.

TAPIR validates at prepare time with timestamp-ordering checks very
close to MVTSO's, but prepared writes are *not* visible to reads (no
dependencies), so there is no dependency-wait step.  Like Basil's
MVTSO-Check, every method takes the part of a transaction on the
replica's shard (``Sharder.part_of``; the record itself at one shard).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.core.mvtso import apply_commit
from repro.core.timestamps import Timestamp
from repro.core.transaction import ShardPart, TxRecord
from repro.crypto.digest import Digest
from repro.storage.versionstore import VersionStore


class TapirVote(enum.Enum):
    OK = "ok"
    ABORT = "abort"
    #: TAPIR's ABSTAIN (conflict with a *prepared* but uncommitted txn):
    #: not a definitive abort; the client may retry.
    ABSTAIN = "abstain"


class TapirStore:
    """One TAPIR replica's state: versions + prepared transactions."""

    def __init__(self, sim: Any = None) -> None:
        self.versions: VersionStore = VersionStore(sim)
        #: Ids of the transactions prepared here and not yet decided.
        self.prepared: set[Digest] = set()

    def read(self, key, ts: Timestamp):
        """Latest committed version below ``ts`` (prepared are invisible)."""
        return self.versions.latest_committed(key, ts)

    # ------------------------------------------------------------------
    def occ_check(self, tx: TxRecord | ShardPart) -> TapirVote:
        """TAPIR's prepare-time validation (simplified, same structure)."""
        if tx.txid in self.prepared:
            return TapirVote.OK  # retransmission
        ts = tx.timestamp
        for key, version in tx.read_set:
            if version > ts:
                return TapirVote.ABORT
            committed, prepared = self.versions.writes_between(key, version, ts)
            # conflict with a committed write: permanent abort;
            # with a merely prepared write: abstain (retryable)
            if committed:
                return TapirVote.ABORT
            if prepared:
                return TapirVote.ABSTAIN
        for key, _value in tx.write_set:
            if self.versions.reads_spanning(key, ts):
                return TapirVote.ABORT
            if self.versions.has_rts_above(key, ts):
                return TapirVote.ABSTAIN
        self._prepare(tx)
        return TapirVote.OK

    def _prepare(self, tx: TxRecord | ShardPart) -> None:
        self.prepared.add(tx.txid)
        for key, value in tx.write_set:
            self.versions.add_prepared_write(key, tx.timestamp, value, tx.txid)
        for key, version in tx.read_set:
            self.versions.add_read(key, tx.timestamp, version, tx.txid)
            self.versions.update_rts(key, tx.timestamp)

    def commit(self, tx: TxRecord | ShardPart) -> None:
        apply_commit(self.versions, tx)
        self.prepared.discard(tx.txid)

    def abort(self, tx: TxRecord | ShardPart) -> None:
        if tx.txid not in self.prepared:
            return
        self.prepared.remove(tx.txid)
        for key, _value in tx.write_set:
            self.versions.remove_prepared_write(key, tx.timestamp)
        for key, version in tx.read_set:
            self.versions.remove_read(key, tx.timestamp, version, tx.txid)
            self.versions.remove_rts(key, tx.timestamp)
