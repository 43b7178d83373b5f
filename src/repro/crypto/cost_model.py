"""Charging simulated CPU time for cryptographic operations.

A :class:`CryptoContext` binds one node's identity (its signing key), the
system key registry, the crypto cost configuration, and the node's CPU.
Protocol code awaits ``ctx.sign(...)`` / ``ctx.verify(...)``; the context
performs the structural operation *and* occupies a CPU core for the
modeled duration, which is how signature cost turns into the throughput
effects of Figures 5a and 6b.

With ``CryptoConfig.enabled = False`` (the paper's "Basil without
signatures" variant) the structural checks still run — bugs should not
hide behind the no-crypto mode — but no CPU time is charged.
"""

from __future__ import annotations

from typing import Any, Awaitable

from repro.config import CryptoConfig
from repro.crypto.digest import Digest, digest_of
from repro.crypto.signatures import (
    KeyRegistry,
    Signature,
    SignedMessage,
    SigningKey,
    payload_digest_of,
)
from repro.sim.loop import DONE
from repro.sim.node import Cpu


class CryptoContext:
    """One node's view of the crypto layer, with costs charged to its CPU."""

    def __init__(
        self,
        registry: KeyRegistry,
        key: SigningKey,
        config: CryptoConfig,
        cpu: Cpu,
    ) -> None:
        self.registry = registry
        self.key = key
        self.config = config
        self.cpu = cpu
        self.signatures_generated = 0
        self.signatures_verified = 0
        self.hashes_computed = 0
        self.verify_memo_hits = 0
        #: The node's one table of verified signatures: signer ->
        #: {digest: token} for every signature it found valid.  A valid
        #: signature has exactly one token per (signer, digest), so the
        #: token is the whole verdict.  Batch roots are recorded always
        #: (Basil's verification cache, Sec 4.4); any other signature only
        #: with the memo on (:attr:`CryptoConfig.verify_memo`).
        self.verified: dict[str, dict[Digest, int]] = {}
        #: (signer, digest, token) of signatures found invalid, so a
        #: forgery never aliases a real signature's entry.  None when the
        #: memo is off.
        self.invalid: set[tuple[str, Digest, int]] | None = (
            set() if (config.enabled and config.verify_memo) else None
        )
        #: Pre-resolved cost of the overwhelmingly common 64-byte hash
        #: charge (cost config is frozen, so this can never go stale).
        self._hash64_cost = config.hash_cost(64)

    @property
    def name(self) -> str:
        return self.key.signer

    # -- signing ----------------------------------------------------------
    async def sign(self, payload: Any) -> SignedMessage:
        """Sign a payload, charging one signature generation."""
        await self.charge_sign()
        instruments = self.cpu.sim.instruments
        if instruments is None:
            signature = self.key.sign(payload)
        else:
            signature = instruments.frame("crypto.sign", self.key.sign, payload)
        return SignedMessage(payload=payload, signature=signature)

    async def sign_digest(self, digest: Digest) -> Signature:
        """Sign a precomputed digest (used for Merkle batch roots)."""
        await self.charge_sign()
        instruments = self.cpu.sim.instruments
        if instruments is None:
            return self.key.sign_digest(digest)
        return instruments.frame("crypto.sign", self.key.sign_digest, digest)

    def charge_sign(self) -> Awaitable[None]:
        self.signatures_generated += 1
        if self.config.enabled:
            return self._spend("sign", self.config.sign_cost)
        return DONE

    # -- verification -------------------------------------------------------
    async def verify(self, signed: SignedMessage) -> bool:
        """Verify a signed message, charging one signature verification."""
        return await self.verify_digest(signed.signature, payload_digest_of(signed))

    async def verify_digest(self, signature: Signature, digest: Digest) -> bool:
        if self.invalid is not None:
            verdict = self.recall(signature, digest)
            if verdict is not None:
                self.signatures_verified += 1
                self.verify_memo_hits += 1
                return verdict
        await self.charge_verify()
        verdict = self._check_digest(signature, digest)
        self.record(signature, digest, verdict)
        return verdict

    def recall(self, signature: Signature, digest: Digest) -> bool | None:
        """The memo's verdict on a signature, or None if it holds none.

        Valid if its token is the one recorded for (signer, digest),
        invalid if the invalid set holds it.  Only meaningful with the
        memo on; batch roots are looked up by digest alone
        (:meth:`AttestationVerifier._verify_each`).
        """
        known = self.verified.get(signature.signer)
        if known is not None and known.get(digest) == signature.token:
            return True
        invalid = self.invalid
        if invalid and (signature.signer, digest, signature.token) in invalid:
            return False
        return None

    def record(
        self, signature: Signature, digest: Digest, verdict: bool, root: bool = False
    ) -> None:
        """Remember a checked signature: a valid batch root always, any
        other verdict only with the memo on."""
        invalid = self.invalid
        if not verdict:
            if invalid is not None:
                invalid.add((signature.signer, digest, signature.token))
        elif root or invalid is not None:
            known = self.verified.get(signature.signer)
            if known is None:
                self.verified[signature.signer] = {digest: signature.token}
            else:
                known[digest] = signature.token

    def _check_digest(self, signature: Signature, digest: Digest) -> bool:
        """The structural check, in a ``crypto.verify`` frame when profiled."""
        instruments = self.cpu.sim.instruments
        if instruments is None:
            return self._verdict(signature, digest)
        return instruments.frame("crypto.verify", self._verdict, signature, digest)

    def _verdict(self, signature: Signature, digest: Digest) -> bool:
        try:
            self.registry.verify_digest(signature, digest)
            return True
        except Exception:  # CryptoError subclasses
            return False

    def charge_verify(self) -> Awaitable[None]:
        self.signatures_verified += 1
        if self.config.enabled:
            return self._spend("verify", self.config.verify_cost)
        return DONE

    # -- hashing ------------------------------------------------------------
    async def hash(self, payload: Any, size_hint: int | None = None) -> Digest:
        """Digest a payload, charging modeled hash time."""
        instruments = self.cpu.sim.instruments
        if instruments is None:
            digest = digest_of(payload)
        else:
            digest = instruments.frame("crypto.hash", digest_of, payload)
        await self.charge_hash(size_hint if size_hint is not None else 64)
        return digest

    def charge_hash(self, nbytes: int, count: int = 1) -> Awaitable[None]:
        self.hashes_computed += count
        if self.config.enabled:
            cost = (
                self._hash64_cost if nbytes == 64 else self.config.hash_cost(nbytes)
            )
            return self._spend("hash", cost * count)
        return DONE

    def _spend(self, op: str, cost: float) -> Awaitable[None]:
        """Charge ``cost`` to the CPU: the charge itself when nothing is
        attached (no coroutine frame), else what the instruments make of
        it (a ``crypto`` span, or a ``crypto.charge`` frame)."""
        cpu = self.cpu
        instruments = cpu.sim.instruments
        if instruments is None:
            return cpu.spend(cost)
        return instruments.charge(cpu, op, cost)
