"""Public transaction API.

A :class:`TransactionSession` is the application-facing handle for one
interactive transaction: reads go to the replicas (with read-your-writes
and repeatable-read caching on top), writes are buffered locally, and
``commit()`` drives Basil's Prepare/Writeback pipeline.

Example::

    session = TransactionSession(client)
    balance = await session.read("alice")
    session.write("alice", balance - 10)
    session.write("bob", (await session.read("bob")) + 10)
    result = await session.commit()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.client import BasilClient
from repro.core.messages import Decision
from repro.core.timestamps import Timestamp
from repro.core.transaction import TxRecord
from repro.crypto.digest import Digest
from repro.errors import TransactionAborted


@dataclass
class TransactionResult:
    """The outcome of one transaction attempt."""

    committed: bool
    fast_path: bool
    timestamp: Timestamp
    txid: Digest | None = None
    #: Set by ``BasilSystem.run_transaction`` to the body's return value.
    value: Any = None

    @property
    def aborted(self) -> bool:
        return not self.committed


class TransactionSession:
    """One interactive transaction on one client."""

    def __init__(self, client: BasilClient) -> None:
        self.client = client
        self.builder = client.begin()
        self._value_cache: dict[Any, Any] = {}
        self.dep_records: dict[Digest, TxRecord] = {}
        self._finished = False
        #: Start of the execute phase (trace span closes at commit()).
        self._began_at = client.sim.now

    @property
    def timestamp(self) -> Timestamp:
        return self.builder.timestamp

    # ------------------------------------------------------------------
    async def read(self, key: Any) -> Any:
        """Read ``key``: own writes first, then cached, then remote."""
        self._check_open()
        if key in self.builder.writes:
            return self.builder.writes[key]
        if key in self._value_cache:
            return self._value_cache[key]
        result = await self.client.read(self.builder, key)
        self._value_cache[key] = result.value
        if result.dep_record is not None:
            self.dep_records[result.dep_record.txid] = result.dep_record
        return result.value

    def write(self, key: Any, value: Any) -> None:
        """Buffer a write; it becomes visible at Prepare (Sec 4.1)."""
        self._check_open()
        self.builder.record_write(key, value)

    # ------------------------------------------------------------------
    async def commit(self) -> TransactionResult:
        """Run Prepare + Writeback; returns rather than raising on abort."""
        self._check_open()
        self._finished = True
        if not self.builder.reads and not self.builder.writes:
            return TransactionResult(
                committed=True, fast_path=True, timestamp=self.builder.timestamp
            )
        tx = self.builder.freeze()
        sim = self.client.sim
        if sim.instruments is not None:
            sim.instruments.txn_phase(
                self.client.name, "execute", self._began_at,
                txid=tx.txid.hex(),
                reads=len(self.builder.reads), writes=len(self.builder.writes),
            )
        outcome = await self.client.commit(tx, self.dep_records)
        if sim.instruments is not None:
            sim.instruments.txn_decided(
                outcome.decision is Decision.COMMIT, outcome.fast_path
            )
        return TransactionResult(
            committed=outcome.decision is Decision.COMMIT,
            fast_path=outcome.fast_path,
            timestamp=tx.timestamp,
            txid=tx.txid,
        )

    async def commit_or_raise(self) -> TransactionResult:
        """Like :meth:`commit` but raises :class:`TransactionAborted`."""
        result = await self.commit()
        if not result.committed:
            raise TransactionAborted("transaction aborted during prepare")
        return result

    def abort(self) -> None:
        """Abandon the transaction, releasing read reservations."""
        self._check_open()
        self._finished = True
        self.client.abort_execution(self.builder)

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._finished:
            raise TransactionAborted("session already finished")
