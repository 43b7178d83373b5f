"""Replica-side reply batching (Sec 4.4, Figure 2).

Replicas amortize signature generation by signing one Merkle root per
batch of ``b`` reply payloads.  ``attest(payload)`` enqueues a payload
and resolves with its attestation once the batch flushes (when full, or
when the batch timeout fires).  With ``b = 1`` batching degenerates to a
plain signature per payload and no Merkle overhead.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.attestation import Attestation, BatchAttestation
from repro.crypto.cost_model import CryptoContext
from repro.crypto.digest import digest_of
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import SignedMessage
from repro.sim.loop import Future, Simulator


class ReplyBatcher:
    """Accumulates reply payloads and signs them per batch."""

    def __init__(
        self,
        sim: Simulator,
        ctx: CryptoContext,
        batch_size: int,
        batch_timeout: float,
        spawn: Callable[..., Any] | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.sim = sim
        self.ctx = ctx
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        #: How to start the batch-signing coroutine.  Replicas pass their
        #: ``Node.spawn`` so the signing task is owned by the node and
        #: dies with it on a crash; the default runs unowned.
        self._spawn = spawn or (lambda coro, name="": sim.create_task(coro, name=name))
        self._pending: list[tuple[Any, Future]] = []
        self._timer = None
        self._closed = False
        self.batches_flushed = 0
        self.payloads_attested = 0

    def attest(self, payload: Any) -> Future:
        """Enqueue ``payload``; resolves with its :class:`Attestation`."""
        fut = Future()
        if self._closed:
            fut.cancel()
            return fut
        self._pending.append((payload, fut))
        self.payloads_attested += 1
        if len(self._pending) >= self.batch_size:
            self._flush_now()
        elif self._timer is None:
            self._timer = self.sim.call_later(self.batch_timeout, self._on_timeout)
        return fut

    def close(self) -> None:
        """Tear the batcher down (owner crashed).

        Cancels the pending flush timer — so no stale callback fires into
        the event loop after the owner is gone — and cancels the futures
        of any payloads still waiting in the partial batch.
        """
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        for _payload, fut in pending:
            if not fut.done():
                fut.cancel()

    def _on_timeout(self) -> None:
        self._timer = None
        if self._pending:
            self._flush_now()

    def _flush_now(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch, self._pending = self._pending, []
        self.batches_flushed += 1
        signing = self._sign_batch(batch)
        instruments = self.sim.instruments
        if instruments is not None:
            instruments.batch_flushed(len(batch))
            signing = instruments.batch_signing(self.ctx.cpu.owner, len(batch), signing)
        self._spawn(signing, name="batch-sign")

    async def _sign_batch(self, batch: list[tuple[Any, Future]]) -> None:
        if len(batch) == 1:
            payload, fut = batch[0]
            signed = await self.ctx.sign(payload)
            if not fut.done():
                fut.set_result(signed)
            return
        # Hash each payload (leaf) plus the interior nodes of the tree.
        leaves = [digest_of(payload) for payload, _ in batch]
        await self.ctx.charge_hash(64, count=2 * len(batch) - 1)
        tree = MerkleTree(leaves)
        root_sig = await self.ctx.sign_digest(tree.root)
        for index, (payload, fut) in enumerate(batch):
            att = BatchAttestation(
                payload=payload,
                root=tree.root,
                proof=tree.proof(index),
                root_signature=root_sig,
            )
            if not fut.done():
                fut.set_result(att)


async def attest_single(ctx: CryptoContext, payload: Any) -> Attestation:
    """Sign one payload outside any batch (fallback-path messages)."""
    signed: SignedMessage = await ctx.sign(payload)
    return signed
