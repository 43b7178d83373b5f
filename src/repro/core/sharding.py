"""Shard topology: key placement, replica membership, S_log, leaders.

Basil partitions keys across shards of n = 5f + 1 replicas each.  All
placement decisions are deterministic functions of stable digests so
every correct participant derives the same answers:

* ``shard_of(key)`` — stable hash placement;
* ``s_log(tx)`` — the single logging shard for a transaction, chosen
  deterministically from ``id_T`` (Sec 4.2 stage 2);
* ``leader_of(shard, txid, view)`` — the fallback leader for a view,
  ``view + (id_T mod n)`` (Sec 5 step 2).
"""

from __future__ import annotations

import zlib
from typing import Any, Collection, Iterable

from repro.config import SystemConfig
from repro.core.transaction import ShardPart, TxRecord
from repro.crypto.digest import canonical_encode


def replica_name(shard: int, index: int) -> str:
    return f"s{shard}/r{index}"


class Sharder:
    """Deterministic shard topology shared by clients and replicas."""

    def __init__(self, config: SystemConfig, replicas_per_shard: int | None = None) -> None:
        self.config = config
        self.num_shards = config.num_shards
        #: Basil uses n = 5f+1; baselines reuse this topology with their
        #: own replication factors (TAPIR 2f+1, PBFT/HotStuff 3f+1).
        self.n = replicas_per_shard if replicas_per_shard is not None else config.n
        self._members = tuple(
            tuple(replica_name(s, i) for i in range(self.n)) for s in range(self.num_shards)
        )
        #: The same memberships as sets, for the membership tests certificate
        #: validation runs on every tally it checks.
        self._member_sets = tuple(frozenset(m) for m in self._members)
        #: key -> shard placement memo; placement is a pure function of the
        #: key and ``num_shards``, and workloads draw from a bounded key
        #: space, so this stays small and saves re-encoding hot keys.
        self._placement: dict[Any, int] = {}

    # -- key placement -----------------------------------------------------
    def shard_of(self, key: Any) -> int:
        if self.num_shards == 1:
            return 0
        shard = self._placement.get(key)
        if shard is None:
            shard = self._placement[key] = self._place(key)
        return shard

    def _place(self, key: Any) -> int:
        return zlib.crc32(canonical_encode(key)) % self.num_shards

    def census(self, keys: Collection[Any]) -> list[int]:
        """Keys per shard, bypassing the placement memo: a population can
        be far larger than the working set the memo is sized for."""
        if self.num_shards == 1:
            return [len(keys)]
        counts = [0] * self.num_shards
        for key in keys:
            counts[self._place(key)] += 1
        return counts

    # -- membership ----------------------------------------------------------
    def members(self, shard: int) -> tuple[str, ...]:
        return self._members[shard]

    def member_set(self, shard: int) -> frozenset[str]:
        return self._member_sets[shard]

    def all_replicas(self) -> Iterable[str]:
        for shard_members in self._members:
            yield from shard_members

    def shard_of_replica(self, name: str) -> int:
        return int(name.split("/")[0][1:])

    def is_replica(self, name: str) -> bool:
        """True iff ``name`` is a replica of this topology.

        Validation paths must call this before ``shard_of_replica``:
        senders are authenticated but not necessarily replicas (a
        Byzantine *client* may send protocol replies).
        """
        try:
            shard = self.shard_of_replica(name)
        except (ValueError, IndexError):
            return False
        return 0 <= shard < self.num_shards and name in self._members[shard]

    # -- per-transaction decisions -------------------------------------------
    def shards_of_tx(self, tx: TxRecord) -> tuple[int, ...]:
        return self._split(tx)[1]

    def part_of(self, tx: TxRecord, shard: int) -> TxRecord | ShardPart:
        """The part of ``tx`` that ``shard`` validates, prepares and
        applies: the reads and writes of keys it owns and the deps on
        them, under ``tx``'s id; ``tx`` itself when nothing of it lies
        elsewhere (always at one shard)."""
        parts = self._split(tx)[2]
        part = parts[shard] if parts is not None else None
        return tx if part is None else part

    def _split(self, tx: TxRecord) -> tuple:
        """``(num_shards, involved shards, parts)``, memoized on the record
        and tagged with num_shards so a record shared across topologies
        cannot observe a stale answer; ``parts[s]`` is None where the part
        is the record (holding the record would make it a reference cycle),
        and ``parts`` None at one shard."""
        memo = getattr(tx, "_split_memo", None)
        if memo is not None and memo[0] == self.num_shards:
            return memo
        if self.num_shards == 1:
            memo = (1, (0,) if tx.read_set or tx.write_set else (), None)
        else:
            split: list[tuple[list, list, list]] = [([], [], []) for _ in range(self.num_shards)]
            for entry in tx.read_set:
                split[self.shard_of(entry[0])][0].append(entry)
            for entry in tx.write_set:
                split[self.shard_of(entry[0])][1].append(entry)
            for dep in tx.deps:
                split[self.shard_of(dep.key)][2].append(dep)
            size = len(tx.read_set) + len(tx.write_set) + len(tx.deps)
            involved = tuple(s for s, (r, w, _) in enumerate(split) if r or w)
            parts = tuple(
                None if len(r) + len(w) + len(d) == size
                else ShardPart(tx.txid, tx.timestamp, tuple(r), tuple(w), tuple(d))
                for r, w, d in split
            )
            memo = (self.num_shards, involved, parts)
        object.__setattr__(tx, "_split_memo", memo)
        return memo

    def s_log(self, tx: TxRecord) -> int:
        """The logging shard: deterministic in id_T among involved shards."""
        involved = self.shards_of_tx(tx)
        return involved[int.from_bytes(tx.txid[:8], "big") % len(involved)]

    def leader_of(self, shard: int, txid: bytes, view: int) -> str:
        """Fallback leader for ``view``: replica ``view + (id_T mod n)``."""
        index = (view + int.from_bytes(txid[:8], "big")) % self.n
        return self._members[shard][index]
