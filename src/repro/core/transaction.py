"""Transaction records — the ``T`` carried in ST1 messages.

A record contains the transaction's metadata (timestamp, read set, write
set, dependency set); its identifier ``id_T`` is the digest of that
metadata (Sec 4.2 step 1), which prevents a Byzantine client from
equivocating a transaction's contents or spoofing its shard list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Hashable, NamedTuple

from repro.crypto.digest import Digest, digest_of, short_hex
from repro.core.timestamps import Timestamp

Key = Hashable


@dataclass(frozen=True)
class Dep:
    """A write-read dependency: T read ``version`` of ``key``, written by
    the not-yet-committed transaction ``txid``.

    T cannot commit unless ``txid`` commits first (Sec 4.1 Read).
    """

    txid: Digest
    key: Any
    version: Timestamp

    def canonical_fields(self) -> tuple:
        return (self.txid, self.key, self.version)


@dataclass(frozen=True)
class TxRecord:
    """An executed transaction, ready for the Prepare phase.

    ``read_set`` maps each key read to the version (writer timestamp)
    observed; ``write_set`` maps keys to the values this transaction
    writes at its own timestamp; ``deps`` lists dependencies on prepared
    (uncommitted) versions read.
    """

    timestamp: Timestamp
    read_set: tuple[tuple[Key, Timestamp], ...]
    write_set: tuple[tuple[Key, Any], ...]
    deps: tuple[Dep, ...] = ()

    def canonical_fields(self) -> tuple:
        return (self.timestamp, self.read_set, self.write_set, self.deps)

    @cached_property
    def txid(self) -> Digest:
        """``id_T``: a cryptographic hash of the transaction's metadata."""
        return digest_of(self.canonical_fields())

    # -- convenience views -------------------------------------------------
    @cached_property
    def keys(self) -> frozenset[Key]:
        return frozenset(k for k, _ in (*self.read_set, *self.write_set))

    def read_version(self, key: Key) -> Timestamp | None:
        for k, v in self.read_set:
            if k == key:
                return v
        return None

    def written_value(self, key: Key) -> Any:
        for k, v in self.write_set:
            if k == key:
                return v
        raise KeyError(key)

    def writes_key(self, key: Key) -> bool:
        return any(k == key for k, _ in self.write_set)

    def dep_ids(self) -> frozenset[Digest]:
        return frozenset(d.txid for d in self.deps)

    def size_estimate(self) -> int:
        """Rough wire size in bytes, used for hash-cost charging."""
        return 64 + 48 * (len(self.read_set) + len(self.deps)) + sum(
            32 + _value_size(v) for _, v in self.write_set
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tx {short_hex(self.txid)} {self.timestamp} "
            f"r={len(self.read_set)} w={len(self.write_set)} d={len(self.deps)}>"
        )


class ShardPart(NamedTuple):
    """What of a :class:`TxRecord` lies on one shard (``Sharder.part_of``)."""

    txid: Digest
    timestamp: Timestamp
    read_set: tuple[tuple[Key, Timestamp], ...]
    write_set: tuple[tuple[Key, Any], ...]
    deps: tuple[Dep, ...]


def _value_size(value: Any) -> int:
    if isinstance(value, (bytes, str)):
        return len(value)
    return 8


@dataclass
class TxBuilder:
    """Mutable accumulator used by clients during the Execution phase."""

    timestamp: Timestamp
    reads: dict[Key, Timestamp] = field(default_factory=dict)
    writes: dict[Key, Any] = field(default_factory=dict)
    deps: dict[Digest, Dep] = field(default_factory=dict)

    def record_read(self, key: Key, version: Timestamp) -> None:
        self.reads[key] = version

    def record_write(self, key: Key, value: Any) -> None:
        self.writes[key] = value

    def record_dep(self, dep: Dep) -> None:
        self.deps[dep.txid] = dep

    def freeze(self) -> TxRecord:
        """Produce the immutable record sent in ST1."""
        return TxRecord(
            timestamp=self.timestamp,
            read_set=tuple(sorted(self.reads.items(), key=lambda e: repr(e[0]))),
            write_set=tuple(sorted(self.writes.items(), key=lambda e: repr(e[0]))),
            deps=tuple(sorted(self.deps.values(), key=lambda d: d.txid)),
        )
