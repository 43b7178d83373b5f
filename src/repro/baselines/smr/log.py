"""Shared contract for SMR substrates.

A *state machine* consumes totally ordered operations and returns
results.  Replicas of one SMR group each hold their own state machine
instance; the protocol guarantees all correct replicas apply the same
operations in the same order.

Replies are **attested** (signed, possibly through the Merkle reply
batcher): the transaction layer above needs transferable proofs of a
shard's vote so that other shards can verify the 2PC outcome — the
per-shard signature cost the paper measures in Figure 5c.
Clients wait for f+1 matching attested replies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.config import SystemConfig
from repro.core.attestation import (
    Attestation,
    AttestationVerifier,
    BatchAttestation,
    attestation_payload,
)
from repro.crypto.cost_model import CryptoContext
from repro.crypto.digest import digest_of
from repro.crypto.signatures import KeyRegistry, SignedMessage
from repro.errors import ProtocolError, SimTimeoutError
from repro.sim.events import Queue
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.node import Node


class StateMachine:
    """Application logic replicated by the SMR group.

    ``apply`` is async so applications can charge CPU time (e.g. for
    verifying cross-shard vote proofs) against the hosting replica.
    """

    async def apply(self, op: Any, index: int) -> Any:  # pragma: no cover
        """Apply one ordered operation; returns the reply payload."""
        raise NotImplementedError

    async def handle_direct(self, replica: "Node", sender: str, message: Any) -> bool:
        """Serve an unordered (read-path) message; True if consumed."""
        return False


@dataclass(frozen=True)
class SMRRequest:
    """Client -> leader: please order and execute ``op``."""

    op_id: int
    client: str
    op: Any

    def canonical_fields(self) -> tuple:
        return (self.op_id, self.client, self.op)


@dataclass(frozen=True)
class SMRReply:
    """Replica -> client: result of an executed operation (attested)."""

    op_id: int
    replica: str
    result: Any

    def canonical_fields(self) -> tuple:
        return (self.op_id, self.replica, self.result)


@dataclass
class SMRResult:
    """An agreed result plus the f+1 attestations proving it."""

    result: Any
    proof: tuple[Attestation, ...]


class SMRClient(Node):
    """Submits ops to SMR groups; awaits f+1 matching attested replies.

    One client node may talk to many groups (one per shard), so the
    group is a per-submit argument.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        config: SystemConfig,
        registry: KeyRegistry,
        broadcast_requests: bool = False,
    ) -> None:
        super().__init__(sim, name, config=config.client_node)
        self.network = network
        self.config = config
        #: HotStuff rotates proposers, so requests go to every replica.
        self.broadcast_requests = broadcast_requests
        self.crypto = CryptoContext(registry, registry.issue(name), config.crypto, self.cpu)
        self.verifier = AttestationVerifier(self.crypto)
        self._op_seq = 0
        self._pending: dict[int, Queue] = {}

    async def handle_message(self, sender: str, message: Any) -> None:
        if isinstance(message, (SignedMessage, BatchAttestation)):
            payload = attestation_payload(message)
            if isinstance(payload, SMRReply):
                queue = self._pending.get(payload.op_id)
                if queue is not None:
                    queue.put((sender, message))

    async def submit(
        self, group: tuple[str, ...], leader_hint: str, op: Any
    ) -> SMRResult:
        """Order + execute ``op`` on ``group``; return result with proof."""
        self._op_seq += 1
        op_id = self._op_seq
        queue = self._pending[op_id] = Queue(self.sim)
        request = SMRRequest(op_id=op_id, client=self.name, op=op)
        try:
            await self.crypto.charge_sign()
            if self.broadcast_requests:
                self.network.broadcast(self, group, request)
            else:
                self.network.send(self, leader_hint, request)
            by_result: dict[Any, dict[str, Attestation]] = {}
            values: dict[Any, Any] = {}
            attempts = 0
            while True:
                try:
                    sender, att = await self.sim.wait_for(
                        queue.get(), self.config.request_timeout * 4
                    )
                except SimTimeoutError:
                    attempts += 1
                    if attempts > 8:
                        raise ProtocolError(f"SMR op {op_id} starved")
                    self.network.broadcast(self, group, request)
                    continue
                payload: SMRReply = attestation_payload(att)
                if payload.replica != sender or att.signer != sender:
                    continue
                if sender not in group:
                    continue
                if not await self.verifier.verify(att):
                    continue
                key = _result_key(payload.result)
                bucket = by_result.setdefault(key, {})
                bucket[sender] = att
                values[key] = payload.result
                if len(bucket) >= self.config.f + 1:
                    return SMRResult(result=values[key], proof=tuple(bucket.values()))
        finally:
            self._pending.pop(op_id, None)


def _result_key(result: Any) -> Any:
    """Hashable identity for matching replies."""
    try:
        hash(result)
        return result
    except TypeError:
        return digest_of(result)
