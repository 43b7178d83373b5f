"""The replicated application each SMR shard runs for TxSMR.

Ordered operations:

* ``("prepare", ShardTx)`` — OCC validation + locking; replies
  ``("prepare-result", txid, vote)``.
* ``("commit", ShardTx, proofs)`` — verifies the cross-shard vote
  proofs (f+1 attested prepare replies per *other* shard — the
  per-shard signature cost of Figure 5c), then applies the writes.
* ``("abort", ShardTx)`` — releases locks.

Unordered (direct) messages serve the execution-phase read path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.baselines.smr.log import SMRReply, StateMachine
from repro.baselines.txsmr.occ import OCCStore, ShardTx
from repro.config import SystemConfig
from repro.core.attestation import Attestation, AttestationVerifier, attestation_payload
from repro.core.sharding import Sharder
from repro.sim.node import Node


@dataclass(frozen=True)
class ShardReadRequest:
    req_id: int
    key: Any


@dataclass(frozen=True)
class ShardReadReply:
    req_id: int
    key: Any
    value: Any
    version: int


class TxShardApp(StateMachine):
    """One replica's instance of the shard transaction state machine."""

    def __init__(
        self,
        shard: int,
        config: SystemConfig,
        sharder: Sharder,
        verifier: AttestationVerifier,
    ) -> None:
        self.shard = shard
        self.config = config
        self.sharder = sharder
        self.verifier = verifier
        self.store = OCCStore()
        self.prepares = 0
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    async def apply(self, op: Any, index: int) -> Any:
        kind = op[0]
        if kind in ("prepare", "commit", "abort"):
            # execution work scales with the transaction's footprint and
            # runs serially in log order (the replica's executor loop)
            tx = op[1]
            items = len(tx.read_set) + len(tx.write_set)
            await self.verifier.ctx.cpu.spend(
                items * self.config.smr_exec_cost_per_item
            )
        if kind == "prepare":
            tx: ShardTx = op[1]
            self.prepares += 1
            vote = self.store.prepare(tx)
            return ("prepare-result", tx.txid, vote)
        if kind == "commit":
            tx, proofs = op[1], op[2]
            if await self._proofs_valid(tx.txid, proofs):
                if self.store.commit(tx.txid):
                    self.commits += 1
                return ("committed", tx.txid)
            return ("commit-rejected", tx.txid)
        if kind == "abort":
            tx = op[1]
            if self.store.abort(tx.txid):
                self.aborts += 1
            return ("aborted", tx.txid)
        return ("unknown-op",)

    async def _proofs_valid(
        self, txid: bytes, proofs: tuple[tuple[int, tuple[Attestation, ...]], ...]
    ) -> bool:
        """Every *other* involved shard must prove an "ok" prepare vote.

        This is where the sharded-SMR architecture pays a signature per
        shard per transaction (paper Sec 6.2 / Figure 5c).
        """
        for shard, atts in proofs:
            if shard == self.shard:
                continue
            members = self.sharder.member_set(shard)
            valid: set[str] = set()
            for att in atts:
                payload = attestation_payload(att)
                if not isinstance(payload, SMRReply):
                    return False
                if payload.result != ("prepare-result", txid, "ok"):
                    return False
                if payload.replica != att.signer or payload.replica not in members:
                    return False
                if not await self.verifier.verify(att):
                    return False
                valid.add(payload.replica)
            if len(valid) < self.config.f + 1:
                return False
        return True

    # ------------------------------------------------------------------
    async def handle_direct(self, replica: Node, sender: str, message: Any) -> bool:
        if isinstance(message, ShardReadRequest):
            value, version = self.store.read(message.key)
            replica.network.send(
                replica,
                sender,
                ShardReadReply(
                    req_id=message.req_id, key=message.key, value=value, version=version
                ),
            )
            return True
        return False
