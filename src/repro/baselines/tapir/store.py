"""TAPIR's replica-local OCC validation over the multiversion store.

TAPIR validates at prepare time with timestamp-ordering checks very
close to MVTSO's, but prepared writes are *not* visible to reads (no
dependencies), so there is no dependency-wait step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.core.mvtso import apply_commit
from repro.core.timestamps import Timestamp
from repro.core.transaction import TxRecord
from repro.crypto.digest import Digest
from repro.storage.versionstore import VersionStore


class TapirVote(enum.Enum):
    OK = "ok"
    ABORT = "abort"
    #: TAPIR's ABSTAIN (conflict with a *prepared* but uncommitted txn):
    #: not a definitive abort; the client may retry.
    ABSTAIN = "abstain"


@dataclass
class TapirTxState:
    tx: TxRecord
    decided: bool = False


class TapirStore:
    """One TAPIR replica's state: versions + prepared transactions."""

    def __init__(self, sim: Any = None) -> None:
        self.versions: VersionStore = VersionStore(sim)
        self.prepared: dict[Digest, TapirTxState] = {}

    def read(self, key, ts: Timestamp):
        """Latest committed version below ``ts`` (prepared are invisible)."""
        return self.versions.latest_committed(key, ts)

    # ------------------------------------------------------------------
    def occ_check(self, tx: TxRecord) -> TapirVote:
        """TAPIR's prepare-time validation (simplified, same structure)."""
        if tx.txid in self.prepared:
            return TapirVote.OK  # retransmission
        ts = tx.timestamp
        for key, version in tx.read_set:
            if version > ts:
                return TapirVote.ABORT
            for hit in self.versions.writes_between(key, version, ts):
                # conflict with a committed write: permanent abort;
                # with a merely prepared write: abstain (retryable)
                if hit.status.value == "committed":
                    return TapirVote.ABORT
                return TapirVote.ABSTAIN
        for key in tx.write_keys:
            if self.versions.reads_spanning(key, ts):
                return TapirVote.ABORT
            if self.versions.has_rts_above(key, ts):
                return TapirVote.ABSTAIN
        self._prepare(tx)
        return TapirVote.OK

    def _prepare(self, tx: TxRecord) -> None:
        self.prepared[tx.txid] = TapirTxState(tx=tx)
        for key, value in tx.write_set:
            self.versions.add_prepared_write(key, tx.timestamp, value, tx.txid)
        for key, version in tx.read_set:
            self.versions.add_read(key, tx.timestamp, version, tx.txid)
            self.versions.update_rts(key, tx.timestamp)

    def commit(self, tx: TxRecord) -> None:
        apply_commit(self.versions, tx)
        self.prepared.pop(tx.txid, None)

    def abort(self, tx: TxRecord) -> None:
        state = self.prepared.pop(tx.txid, None)
        if state is None:
            return
        for key, _value in tx.write_set:
            self.versions.remove_prepared_write(key, tx.timestamp)
        for key, version in tx.read_set:
            self.versions.remove_read(key, tx.timestamp, version, tx.txid)
            self.versions.remove_rts(key, tx.timestamp)
