"""Attestations: transferable proofs that a replica vouched for a payload.

Basil replies come in two signed forms:

* a plain :class:`~repro.crypto.signatures.SignedMessage` — one signature
  per payload; and
* a :class:`BatchAttestation` — the reply-batching format of Sec 4.4: the
  payload, the Merkle root of its batch, an inclusion proof, and the
  replica's signature over the root.

Both are *transferable*: a client can embed them in vote tallies and
certificates, and any third party (replica or client) can re-verify them.
:class:`AttestationVerifier` performs verification against its node's
one table of verified signatures (``CryptoContext.verified``): a
(signer, root) pair whose signature verified once is not re-verified —
the paper's signature cache — and, with the verification memo on, a
signature verdict the node already holds is not re-charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Awaitable, Sequence, Union

from repro.crypto.cost_model import CryptoContext
from repro.crypto.digest import Digest, digest_of
from repro.crypto.merkle import InclusionProof, verify_inclusion
from repro.crypto.signatures import Signature, SignedMessage, payload_digest_of


@dataclass(frozen=True)
class BatchAttestation:
    """A payload attested via a signed Merkle batch root (Figure 2)."""

    payload: Any
    root: Digest
    proof: InclusionProof
    root_signature: Signature

    @property
    def signer(self) -> str:
        return self.root_signature.signer

    def canonical_fields(self) -> tuple:
        return (self.payload, self.root, self.proof, self.root_signature)


Attestation = Union[SignedMessage, BatchAttestation]


def _inclusion_ok(att: BatchAttestation) -> bool:
    """Structural Merkle-inclusion check, memoized on the attestation.

    The verdict is a pure function of the (frozen) attestation's contents,
    so it is node-independent: once any node has walked the proof, every
    later verification of the same object is one attribute read.  CPU
    *charges* are the caller's business and are unaffected — this caches
    only the structural computation, never the modeled cost.
    """
    ok = getattr(att, "_incl_memo", None)
    if ok is None:
        ok = verify_inclusion(digest_of(att.payload), att.proof, att.root)
        object.__setattr__(att, "_incl_memo", ok)
    return ok


def attestation_payload(att: Attestation) -> Any:
    return att.payload


def attestation_signer(att: Attestation) -> str:
    return att.signer


class AttestationVerifier:
    """Verifies attestations on behalf of one node, with root caching.

    The cache models Basil's verification-amortization: once a node has
    verified a replica's signature over a batch root, further replies
    from the same batch cost only hashing (Sec 4.4).  The verifier keeps
    no table of its own: roots and memoized verdicts live once, in the
    context's :attr:`~repro.crypto.cost_model.CryptoContext.verified`,
    which the context's own :meth:`~repro.crypto.cost_model.CryptoContext.verify`
    reads too.  A root is looked up by digest alone; any other signature
    by its token (:meth:`~repro.crypto.cost_model.CryptoContext.recall`).
    """

    def __init__(self, ctx: CryptoContext, aggregate: bool = False) -> None:
        self.ctx = ctx
        #: Model BLS-style aggregation (Sec 4.4): quorum verification via
        #: :meth:`verify_quorum` costs one pairing check plus hashing.
        self.aggregate = aggregate
        self.cache_hits = 0

    def verify(self, att: Attestation) -> Awaitable[bool]:
        """Awaitable: verify one attestation (a quorum of one)."""
        return self._verify_each((att,))

    def verify_quorum(self, atts: Sequence[Attestation]) -> Awaitable[bool]:
        """Awaitable: verify a set of matching votes, aggregated if enabled.

        Without aggregation every member is verified in turn
        (:meth:`_verify_each`).  With aggregation, the structural checks still
        run individually (they are what guarantees soundness in the
        simulation) but the *charged* cost is one signature verification
        plus one hash per member — the cost profile of an aggregate
        signature.  An empty set never verifies.

        Both entry points hand back the coroutine of the loop instead of
        awaiting it, so no frame of theirs sits between a charge and the
        task that awaits it.
        """
        if self.aggregate:
            return self._verify_aggregate(atts)
        return self._verify_each(atts)

    async def _verify_each(self, atts: Sequence[Attestation]) -> bool:
        """The one verification loop: each member's charges, in order.

        A :class:`SignedMessage` costs one signature verification.  A
        :class:`BatchAttestation` costs one hash for its payload plus one
        per Merkle level, then its root signature's verification unless
        this node already verified that (signer, root) (a ``cache_hits``).
        A verdict the node's memo already holds is counted in
        ``verify_memo_hits`` and not charged.  Charges
        go straight to the CPU unless instruments are attached, which then
        make each one a span or a frame.  The first member that fails ends
        the loop.
        """
        if not atts:
            return False
        ctx = self.ctx
        cpu = ctx.cpu
        instruments = cpu.sim.instruments
        charged = ctx.config.enabled
        verified = ctx.verified
        memo = ctx.invalid is not None
        for att in atts:
            if isinstance(att, SignedMessage):
                signature = att.signature
                digest = payload_digest_of(att)
                root = False
            else:
                hashes = 1 + len(att.proof.path)
                ctx.hashes_computed += hashes
                if charged:
                    cost = ctx._hash64_cost * hashes
                    await (
                        cpu.spend(cost) if instruments is None
                        else instruments.charge(cpu, "hash", cost)
                    )
                # The Merkle walk itself is memoised on the attestation.
                if not _inclusion_ok(att):
                    return False
                signature = att.root_signature
                digest = att.root
                known = verified.get(signature.signer)
                if known is not None and digest in known:
                    self.cache_hits += 1
                    continue
                root = True
            ctx.signatures_verified += 1
            verdict = ctx.recall(signature, digest) if memo else None
            if verdict is not None:
                ctx.verify_memo_hits += 1
            else:
                if charged:
                    cost = ctx.config.verify_cost
                    await (
                        cpu.spend(cost) if instruments is None
                        else instruments.charge(cpu, "verify", cost)
                    )
                verdict = ctx._check_digest(signature, digest)
                ctx.record(signature, digest, verdict, root)
            if not verdict:
                return False
        return True

    async def _verify_aggregate(self, atts: Sequence[Attestation]) -> bool:
        if not atts:
            return False
        ok = True
        for att in atts:
            if isinstance(att, SignedMessage):
                if not self.ctx.registry.is_valid(att):
                    ok = False
            else:
                if not _inclusion_ok(att):
                    ok = False
                try:
                    self.ctx.registry.verify_digest(att.root_signature, att.root)
                except Exception:
                    ok = False
        await self.ctx.charge_hash(64, count=len(atts))
        await self.ctx.charge_verify()
        return ok
