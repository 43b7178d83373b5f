"""A multiversioned key-value store with prepared/committed visibility.

This is the storage substrate under one replica.  It tracks, per key:

* **committed versions** — ordered by writer timestamp, visible to reads;
* **prepared versions** — writes of transactions that passed MVTSO-Check
  but have not yet committed (Basil makes these visible so other clients
  can pick up dependencies, Sec 4.1);
* **read timestamps (RTS)** — reservations left by reads, which cause
  lower-timestamped writers to abort (MVTSO-Check step 5);
* **read index** — which (prepared|committed) transaction read which
  version, needed by MVTSO-Check step 4.

Timestamps are opaque, totally ordered values (Basil uses
``(time, client_id)`` tuples via :class:`repro.core.timestamps.Timestamp`).

Genesis is implicit: a store seeded with the deployment's shared
:class:`repro.core.genesis.Genesis` holds state only for keys something
has touched (see :class:`GenesisTable`), yet answers every query as if
the whole population had been written at the genesis timestamp.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Callable, Generic, Hashable, Iterable, NamedTuple, TypeVar

from repro.errors import StorageError

TS = TypeVar("TS")
Key = Hashable


class Version(NamedTuple):
    """One version of one key, created by the write of one transaction.

    It is its own chain entry: ordered by timestamp first, so a chain
    bisects on the 1-tuple ``(timestamp,)`` (a shorter tuple sorts
    before any equal-prefix longer one) without a per-probe ``key=``
    callable.  The key and whether it is prepared or committed are
    known from the chain that holds it.
    """

    timestamp: Any
    value: Any
    writer: bytes  # transaction id (digest) that wrote this version


#: The empty chain.  Every chain is a tuple that an insert or removal
#: replaces (``c[:i] + (e,) + c[i:]``), so each one is exactly as long
#: as its contents, and a chain is never changed in place: stores may
#: share one (every replica of a shard holds the same genesis chain of
#: a key until its first committed write there).
_EMPTY: tuple = ()


@dataclass(slots=True)
class _KeyState:
    """Per-key bookkeeping. Every chain is a tuple sorted by timestamp."""

    committed: tuple[Version, ...] = _EMPTY
    prepared: tuple[Version, ...] = _EMPTY
    #: Read-timestamp reservations: sorted timestamps.
    rts: tuple[Any, ...] = _EMPTY
    #: Reads by prepared/committed transactions: sorted by reader timestamp,
    #: entries are (reader_ts, version_ts_read, reader_txid).
    reads: tuple[tuple[Any, Any, bytes], ...] = _EMPTY


class GenesisTable(dict):
    """``key -> per-key state`` of one store, with an implicit genesis.

    ``table[key]`` is the touching lookup: a miss on a population key
    that the sharder places on this store's shard builds the key's state
    from its shared genesis chain ``(version,)`` (``make(chain)``) and
    keeps it; a miss on any other key returns None and stores nothing,
    so such keys read as absent exactly as in a store nobody loaded.
    ``table.get(key)`` never materialises; hits cost one subscript.
    """

    __slots__ = ("genesis", "shard", "materialised", "_make")

    def __init__(self, make: Callable[[tuple[Version]], Any]) -> None:
        super().__init__()
        #: The deployment's shared repro.core.genesis.Genesis (None until
        #: the system loads one: every key is then absent).
        self.genesis: Any = None
        self.shard = 0
        #: Population keys whose state lives in this table.
        self.materialised = 0
        self._make = make

    def seed(self, genesis: Any, shard: int) -> None:
        self.genesis = genesis
        self.shard = shard

    def genesis_chain(self, key: Key) -> tuple[Version] | None:
        """``key``'s shared genesis chain here, or None; never materialises."""
        genesis = self.genesis
        return genesis.chain(key, self.shard) if genesis is not None else None

    def untouched(self) -> int:
        """Population keys of this shard with no state in this table."""
        genesis = self.genesis
        if genesis is None:
            return 0
        return genesis.population(self.shard) - self.materialised

    def __missing__(self, key: Key) -> Any:
        genesis = self.genesis
        if genesis is None:
            return None
        chain = genesis.chain(key, self.shard)
        if chain is None:
            return None
        self.materialised += 1
        state = self[key] = self._make(chain)
        return state


def _genesis_state(chain: tuple[Version]) -> _KeyState:
    return _KeyState(committed=chain)


class VersionStore(Generic[TS]):
    """Multiversion store for one replica (or one baseline shard server).

    ``sim`` is the simulator of the node that owns the store: with
    instruments attached, every probe is a ``store.probe`` profiler frame
    (a store built without one, as in unit tests, is never instrumented).
    """

    def __init__(self, sim: Any = None) -> None:
        self._sim = sim
        self._keys: GenesisTable = GenesisTable(_genesis_state)

    def seed(self, genesis: Any, shard: int) -> None:
        """Adopt the deployment's shared genesis as this store's initial
        state (before traffic; see :class:`GenesisTable`)."""
        self._keys.seed(genesis, shard)

    def _state(self, key: Key) -> _KeyState:
        state = self._keys[key]
        if state is None:
            state = self._keys[key] = _KeyState()
        return state

    def __contains__(self, key: Key) -> bool:
        state = self._keys.get(key)
        if state is None:
            return self._keys.genesis_chain(key) is not None
        return bool(state.committed)

    def keys(self) -> Iterable[Key]:
        """The *touched* keys: those with state here.  Population keys
        nothing has read or written yet are not listed (ask
        ``key in store`` / ``committed_versions(key)`` about those)."""
        return self._keys.keys()

    def stats(self) -> dict[str, int]:
        """Size counters for observability probes (pure observation).

        Walks the per-key state; intended for periodic sampling (the
        obs ticker), not per-operation paths.  Untouched population keys
        count as one key holding one committed version each, so the
        numbers are those of a store that had loaded every key
        (:meth:`footprint` counts what this store holds itself).
        """
        untouched = self._keys.untouched()
        committed = prepared = rts = reads = 0
        for state in self._keys.values():
            committed += len(state.committed)
            prepared += len(state.prepared)
            rts += len(state.rts)
            reads += len(state.reads)
        return {
            "keys": len(self._keys) + untouched,
            "committed_versions": committed + untouched,
            "prepared_versions": prepared,
            "rts_reservations": rts,
            "read_index_entries": reads,
        }

    def footprint(self) -> dict[str, int]:
        """What this store holds itself (pure observation, walks state).

        ``touched_keys``: keys with state here.  ``stored_versions``:
        committed and prepared versions, less the deployment's shared
        genesis versions.
        """
        stored = 0
        for key, state in self._keys.items():
            committed = state.committed
            stored += len(committed) + len(state.prepared)
            genesis = self._keys.genesis_chain(key)
            if genesis is not None and committed and committed[0] is genesis[0]:
                stored -= 1
        return {"touched_keys": len(self._keys), "stored_versions": stored}

    # ------------------------------------------------------------------
    # Loading / committed writes
    # ------------------------------------------------------------------
    def apply_committed_write(self, key: Key, timestamp: TS, value: Any, writer: bytes) -> None:
        """Insert a committed version at its timestamp position.

        Versions may arrive out of timestamp order (replicas process
        transactions independently); insertion keeps the chain sorted, as
        the paper's proof of Lemma 1 requires.
        """
        state = self._state(key)
        idx = self._commit_slot(state, key, timestamp, writer)
        if idx is not None:
            chain = state.committed
            state.committed = chain[:idx] + (Version(timestamp, value, writer),) + chain[idx:]

    def _commit_slot(self, state: _KeyState, key: Key, timestamp: TS, writer: bytes) -> int | None:
        """Chain position for ``writer``'s committed version, or None if there."""
        chain = state.committed
        idx = bisect.bisect_left(chain, (timestamp,))
        if idx < len(chain) and chain[idx].timestamp == timestamp:
            if chain[idx].writer != writer:
                raise StorageError(
                    f"two committed writers at the same timestamp on {key!r}"
                )
            return None  # duplicate writeback delivery: idempotent
        return idx

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def latest_committed(self, key: Key, before: TS) -> Version | None:
        """Highest-timestamped committed version with ts < ``before``."""
        sim = self._sim
        if sim is None or sim.instruments is None:
            return self._latest_committed(key, before)
        return sim.instruments.frame("store.probe", self._latest_committed, key, before)

    def _latest_committed(self, key: Key, before: TS) -> Version | None:
        state = self._keys[key]
        if not state or not state.committed:
            return None
        idx = bisect.bisect_left(state.committed, (before,))
        if idx == 0:
            return None
        return state.committed[idx - 1]

    def latest_prepared(self, key: Key, before: TS) -> Version | None:
        """Highest-timestamped prepared version with ts < ``before``."""
        sim = self._sim
        if sim is None or sim.instruments is None:
            return self._latest_prepared(key, before)
        return sim.instruments.frame("store.probe", self._latest_prepared, key, before)

    def _latest_prepared(self, key: Key, before: TS) -> Version | None:
        # ``.get``, here and in every query below that only concerns
        # prepared versions, RTS or the read index: an untouched key has
        # none of those, so there is nothing to materialise it for.
        state = self._keys.get(key)
        if not state or not state.prepared:
            return None
        idx = bisect.bisect_left(state.prepared, (before,))
        if idx == 0:
            return None
        return state.prepared[idx - 1]

    def update_rts(self, key: Key, timestamp: TS) -> None:
        """Record a read reservation at ``timestamp`` (idempotent)."""
        sim = self._sim
        if sim is None or sim.instruments is None:
            self._update_rts(key, timestamp)
        else:
            sim.instruments.frame("store.probe", self._update_rts, key, timestamp)

    def _update_rts(self, key: Key, timestamp: TS) -> None:
        state = self._state(key)
        rts = state.rts
        idx = bisect.bisect_left(rts, timestamp)
        if idx < len(rts) and rts[idx] == timestamp:
            return
        state.rts = rts[:idx] + (timestamp,) + rts[idx:]

    def remove_rts(self, key: Key, timestamp: TS) -> None:
        """Drop a read reservation (client-initiated abort, Sec 4.1)."""
        state = self._keys.get(key)
        if not state:
            return
        rts = state.rts
        idx = bisect.bisect_left(rts, timestamp)
        if idx < len(rts) and rts[idx] == timestamp:
            state.rts = rts[:idx] + rts[idx + 1:]

    def max_rts(self, key: Key) -> TS | None:
        state = self._keys.get(key)
        if not state or not state.rts:
            return None
        return state.rts[-1]

    # ------------------------------------------------------------------
    # Prepare / commit / abort lifecycle
    # ------------------------------------------------------------------
    def add_prepared_write(self, key: Key, timestamp: TS, value: Any, writer: bytes) -> None:
        state = self._state(key)
        chain = state.prepared
        idx = bisect.bisect_left(chain, (timestamp,))
        if idx < len(chain) and chain[idx].timestamp == timestamp:
            return  # duplicate prepare: idempotent
        state.prepared = chain[:idx] + (Version(timestamp, value, writer),) + chain[idx:]

    def add_read(self, key: Key, reader_ts: TS, version_read: TS, reader: bytes) -> None:
        """Index a read performed by a now-prepared transaction."""
        state = self._state(key)
        reads = state.reads
        entry = (reader_ts, version_read, reader)
        idx = bisect.bisect_left(reads, entry)
        if idx < len(reads) and reads[idx] == entry:
            return
        state.reads = reads[:idx] + (entry,) + reads[idx:]

    def remove_prepared_write(self, key: Key, timestamp: TS) -> None:
        state = self._keys.get(key)
        if not state:
            return
        chain = state.prepared
        idx = bisect.bisect_left(chain, (timestamp,))
        if idx < len(chain) and chain[idx].timestamp == timestamp:
            state.prepared = chain[:idx] + chain[idx + 1:]

    def remove_read(self, key: Key, reader_ts: TS, version_read: TS, reader: bytes) -> None:
        state = self._keys.get(key)
        if not state:
            return
        reads = state.reads
        entry = (reader_ts, version_read, reader)
        idx = bisect.bisect_left(reads, entry)
        if idx < len(reads) and reads[idx] == entry:
            state.reads = reads[:idx] + reads[idx + 1:]

    def promote_prepared_write(self, key: Key, timestamp: TS) -> bytes | None:
        """Move a prepared version into the committed chain; return its
        writer, or None if nothing was prepared at ``timestamp``."""
        state = self._state(key)
        chain = state.prepared
        idx = bisect.bisect_left(chain, (timestamp,))
        if idx >= len(chain) or chain[idx].timestamp != timestamp:
            return None  # already promoted (duplicate writeback) or never prepared here
        version = chain[idx]
        state.prepared = chain[:idx] + chain[idx + 1:]
        slot = self._commit_slot(state, key, timestamp, version.writer)
        if slot is not None:  # the same record moves; no copy is built
            chain = state.committed
            state.committed = chain[:slot] + (version,) + chain[slot:]
        return version.writer

    # ------------------------------------------------------------------
    # Conflict queries used by MVTSO-Check
    # ------------------------------------------------------------------
    def writes_between(
        self, key: Key, low: TS, high: TS
    ) -> tuple[tuple[Version, ...], tuple[Version, ...]]:
        """Versions with low < ts < high: the committed ones, then the
        prepared ones.

        MVTSO-Check step 3: a write in this window means transaction with
        read (key, version=low) and timestamp high missed it.
        """
        sim = self._sim
        if sim is None or sim.instruments is None:
            return self._writes_between(key, low, high)
        return sim.instruments.frame("store.probe", self._writes_between, key, low, high)

    def _writes_between(
        self, key: Key, low: TS, high: TS
    ) -> tuple[tuple[Version, ...], tuple[Version, ...]]:
        state = self._keys[key]
        if not state:
            return _EMPTY, _EMPTY
        return _between(state.committed, low, high), _between(state.prepared, low, high)

    def reads_spanning(self, key: Key, write_ts: TS) -> list[tuple[Any, Any, bytes]]:
        """Reads by prepared/committed txns with version_read < write_ts < reader_ts.

        MVTSO-Check step 4: such a reader should have observed our write
        but could not have.
        """
        sim = self._sim
        if sim is None or sim.instruments is None:
            return self._reads_spanning(key, write_ts)
        return sim.instruments.frame("store.probe", self._reads_spanning, key, write_ts)

    def _reads_spanning(self, key: Key, write_ts: TS) -> list[tuple[Any, Any, bytes]]:
        state = self._keys.get(key)
        if not state:
            return []
        reads = state.reads
        lo = bisect.bisect_left(reads, (write_ts,))
        while lo < len(reads) and reads[lo][0] == write_ts:
            lo += 1
        return [e for e in reads[lo:] if e[1] < write_ts]

    def has_rts_above(self, key: Key, timestamp: TS) -> bool:
        """MVTSO-Check step 5: an RTS above our write timestamp exists."""
        top = self.max_rts(key)
        return top is not None and top > timestamp

    # ------------------------------------------------------------------
    # Introspection (tests, invariant checks)
    # ------------------------------------------------------------------
    def committed_versions(self, key: Key) -> list[Version]:
        state = self._keys.get(key)
        if state is None:
            chain = self._keys.genesis_chain(key)
            return list(chain) if chain is not None else []
        return list(state.committed)

    def prepared_versions(self, key: Key) -> list[Version]:
        state = self._keys.get(key)
        return list(state.prepared) if state else []

    def check_invariants(self) -> None:
        """Raise StorageError if any per-key ordering invariant is broken."""
        for key, state in self._keys.items():
            for chain in (state.committed, state.prepared):
                stamps = [v.timestamp for v in chain]
                if stamps != sorted(stamps):
                    raise StorageError(f"unsorted version chain for {key!r}")
                if len(set(stamps)) != len(stamps):
                    raise StorageError(f"duplicate version timestamp for {key!r}")
            if list(state.rts) != sorted(state.rts):
                raise StorageError(f"unsorted RTS list for {key!r}")


def _between(chain: tuple[Version, ...], low: Any, high: Any) -> tuple[Version, ...]:
    """The entries of ``chain`` with low < ts < high."""
    # At most one entry per timestamp, so "first ts > low" is "first
    # ts >= low, plus one on an exact hit".
    lo = bisect.bisect_left(chain, (low,))
    if lo < len(chain) and chain[lo].timestamp == low:
        lo += 1
    return chain[lo:bisect.bisect_left(chain, (high,))]
