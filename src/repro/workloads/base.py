"""Workload interface shared by all benchmarks.

A workload provides (a) the genesis state to load, and (b) a stream of
transaction *bodies*: async callables that drive one transaction against
a session exposing ``read``/``write``/``commit``.  Bodies are system
agnostic — the same TPC-C code runs over Basil, TAPIR, and TxSMR.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Iterator

#: A transaction body: drives reads/writes on a session.  The harness
#: calls ``commit()`` afterwards and handles retries.
TxBody = Callable[[Any], Awaitable[Any]]


@dataclass
class TxOutcome:
    """What a transaction body asks the harness to do next."""

    #: Bodies normally return None; USER_ABORT asks for session.abort().
    USER_ABORT = "user-abort"


@dataclass(frozen=True)
class TxTask:
    """One generated transaction: a tagged body."""

    name: str
    body: TxBody


class IndexedGenesis(Mapping):
    """A population computed from the key instead of stored.

    The mapping ``{key_of(i): value for i in range(count) for key_of in
    families}`` — every key is ``prefix + digits`` of a small index and
    every value is the same — answered arithmetically: O(1) to build and
    O(1) memory at any ``count``, iterated in index order.  ``families``
    pairs each key function with the literal prefix it emits.
    """

    def __init__(
        self,
        count: int,
        families: tuple[tuple[str, Callable[[int], str]], ...],
        value: Any,
    ) -> None:
        self.count = count
        self.families = families
        self.value = value

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, str):
            for prefix, key_of in self.families:
                if not key.startswith(prefix):
                    continue
                try:
                    index = int(key[len(prefix):])
                except ValueError:
                    continue
                # Re-deriving the key rejects non-canonical spellings
                # ("ycsb:7", "ycsb:+0000007") of a population member.
                if 0 <= index < self.count and key_of(index) == key:
                    return self.value
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        families = self.families
        for index in range(self.count):
            for _prefix, key_of in families:
                yield key_of(index)

    def __len__(self) -> int:
        return self.count * len(self.families)


class Workload:
    """Base class: subclasses generate data and transactions."""

    name = "base"

    def genesis(self) -> Mapping[Any, Any]:
        """The deployment's initial ``key -> value`` state, for ``system.load``.

        One immutable mapping for all shards and replicas: the system
        shares it rather than copying it, and a store reads a key's value
        out of it when the key is first touched.  Workloads whose values
        are a function of the key return a computed mapping
        (:class:`IndexedGenesis`) so the paper's populations (10 M YCSB
        keys, 1 M Smallbank accounts) cost nothing to set up; table-driven
        ones (TPC-C, Retwis) build a dict.
        """
        raise NotImplementedError

    def next_transaction(self, rng: random.Random) -> TxTask:
        """Generate the next transaction for one closed-loop client."""
        raise NotImplementedError


def pick_mix(rng: random.Random, mix: list[tuple[str, float]]) -> str:
    """Sample a transaction type from a (name, weight) mix."""
    total = sum(w for _, w in mix)
    roll = rng.random() * total
    acc = 0.0
    for name, weight in mix:
        acc += weight
        if roll < acc:
            return name
    return mix[-1][0]
