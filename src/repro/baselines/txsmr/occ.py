"""The per-shard transactional state machine: OCC validation + locks.

Executed as totally ordered operations, so every replica of a shard
reaches identical decisions deterministically.  The validation is the
classic Kung-Robinson style backward check the paper cites [60]:
version-stamped reads must still be current at prepare time, and
prepared (in-doubt) transactions hold read/write locks that conflict
pessimistically until their 2PC outcome arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.digest import Digest
from repro.storage.versionstore import GenesisTable, Version


@dataclass(frozen=True)
class ShardTx:
    """One shard's slice of a transaction (keys on other shards omitted)."""

    txid: Digest
    read_set: tuple[tuple[Any, int], ...]  # (key, version counter read)
    write_set: tuple[tuple[Any, Any], ...]

    def canonical_fields(self) -> tuple:
        return (self.txid, self.read_set, self.write_set)


@dataclass
class _Entry:
    value: Any = None
    version: int = 0


def _genesis_entry(chain: tuple[Version]) -> _Entry:
    return _Entry(value=chain[0].value, version=1)


@dataclass
class OCCStore:
    """Versioned KV state plus in-doubt (prepared) lock tables.

    ``data`` holds an entry only for keys something has read or written;
    once seeded (``data.seed(genesis, shard)``) an untouched population
    key materialises at version 1 on first touch.
    """

    data: GenesisTable = field(default_factory=lambda: GenesisTable(_genesis_entry))
    prepared: dict[Digest, ShardTx] = field(default_factory=dict)
    write_locks: dict[Any, Digest] = field(default_factory=dict)
    read_locks: dict[Any, set[Digest]] = field(default_factory=dict)

    def read(self, key: Any) -> tuple[Any, int]:
        entry = self.data[key]
        if entry is None:
            return None, 0
        return entry.value, entry.version

    # ------------------------------------------------------------------
    def prepare(self, tx: ShardTx) -> str:
        """Validate and lock; returns "ok" or "abort". Deterministic."""
        if tx.txid in self.prepared:
            return "ok"  # duplicate prepare (client retry): same answer
        for key, version in tx.read_set:
            entry = self.data[key]
            current = entry.version if entry is not None else 0
            if current != version:
                return "abort"  # read is stale
            if key in self.write_locks:
                return "abort"  # read-write conflict with in-doubt txn
        for key, _value in tx.write_set:
            if key in self.write_locks:
                return "abort"  # write-write conflict with in-doubt txn
            readers = self.read_locks.get(key)
            if readers:
                return "abort"  # write-read conflict with in-doubt txn
        self.prepared[tx.txid] = tx
        for key, _value in tx.write_set:
            self.write_locks[key] = tx.txid
        for key, _version in tx.read_set:
            self.read_locks.setdefault(key, set()).add(tx.txid)
        return "ok"

    def commit(self, txid: Digest) -> bool:
        tx = self.prepared.pop(txid, None)
        if tx is None:
            return False  # already finished (duplicate commit)
        for key, value in tx.write_set:
            entry = self.data[key]
            if entry is None:
                entry = self.data[key] = _Entry()
            entry.value = value
            entry.version += 1
        self._release(tx)
        return True

    def abort(self, txid: Digest) -> bool:
        tx = self.prepared.pop(txid, None)
        if tx is None:
            return False
        self._release(tx)
        return True

    def _release(self, tx: ShardTx) -> None:
        for key, _value in tx.write_set:
            if self.write_locks.get(key) == tx.txid:
                del self.write_locks[key]
        for key, _version in tx.read_set:
            readers = self.read_locks.get(key)
            if readers is not None:
                readers.discard(tx.txid)
                if not readers:
                    del self.read_locks[key]
