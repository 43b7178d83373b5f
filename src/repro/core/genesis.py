"""Implicit genesis: a deployment's initial state, shared and never copied.

Every replica of every shard starts from the same population, so the
population is held once — as the immutable mapping ``Workload.genesis()``
returns — and a :class:`Genesis` wraps it with the two things a store
needs: the committed chain ``(version,)`` holding a key's GENESIS
:class:`~repro.storage.versionstore.Version` (memoised, so a key touched
on all 5f+1 replicas of its shard still has one version and one chain,
which every store keeps until its first committed write of the key
replaces it) and the number of population keys the sharder places on a
shard (so ``store.stats()`` can count keys no store has
materialised).  A store creates a key's state from it on first touch
(:class:`~repro.storage.versionstore.GenesisTable`); nothing here or there
schedules an event or draws from an RNG stream.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.certificates import GENESIS_TXID
from repro.core.sharding import Sharder
from repro.core.timestamps import GENESIS
from repro.storage.versionstore import Version

_ABSENT = object()


class Genesis:
    """One population for the whole deployment (all shards, all replicas)."""

    def __init__(
        self, values: Mapping[Any, Any] | Iterable[tuple[Any, Any]], sharder: Sharder
    ) -> None:
        #: Treated as immutable from here on: stores read it on first touch.
        self.values: Mapping[Any, Any] = (
            values if isinstance(values, Mapping) else dict(values)
        )
        self.sharder = sharder
        #: Per shard, the genesis chains handed out so far: the second
        #: to (5f+1)-th replica to touch a key pay two lookups for it.
        self._chains: list[dict[Any, tuple[Version]]] = [
            {} for _ in range(sharder.num_shards)
        ]
        self._census: list[int] | None = None

    def chain(self, key: Any, shard: int) -> tuple[Version] | None:
        """The committed chain ``(version,)`` of ``key``'s GENESIS
        version as seen by a store of ``shard``.

        None when the key is outside the population or the sharder places
        it on another shard — both read as absent, as if never loaded.
        """
        memo = self._chains[shard]
        chain = memo.get(key)
        if chain is None:
            if self.sharder.shard_of(key) != shard:
                return None
            value = self.values.get(key, _ABSENT)
            if value is _ABSENT:
                return None
            chain = memo[key] = (Version(GENESIS, value, GENESIS_TXID),)
        return chain

    def population(self, shard: int) -> int:
        """How many population keys live on ``shard``.

        Counted on first use (one O(population) pass for a multi-shard
        deployment) and cached; only observability asks.
        """
        if self._census is None:
            self._census = self.sharder.census(self.values)
        return self._census[shard]
