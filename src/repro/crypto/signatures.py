"""Structural signatures: unforgeable by construction.

The substitution for ed25519 (see DESIGN.md): a :class:`SigningKey` holds
a secret token drawn from the registry's seeded RNG.  A
:class:`Signature` embeds that token; verification checks the token
against the registry's record for the claimed signer.  Code that does not
hold the :class:`SigningKey` object cannot learn the token, so it cannot
fabricate signatures that verify — exactly the property the paper's
safety proofs rely on.  Byzantine nodes *can* sign arbitrary payloads
with their own key (equivocation), which is also faithful.

Performance costs of signing/verification are charged separately by
:mod:`repro.crypto.cost_model`; this module is pure logic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.crypto.digest import Digest, digest_of
from repro.errors import CryptoError, ForgeryError


@dataclass(frozen=True)
class Signature:
    """A signature over a digest by a named signer.

    Instances should only ever be produced by :meth:`SigningKey.sign`;
    the embedded token is what makes forgery detectable.  The secret
    token is excluded from the canonical encoding (see
    ``canonical_fields``) so digests of signed messages do not leak it.
    """

    signer: str
    digest: Digest
    token: int = field(repr=False)

    def canonical_fields(self) -> tuple:
        return (self.signer, self.digest)  # token is secret material

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signature by {self.signer} over {self.digest.hex()[:8]}>"


class SigningKey:
    """Private signing capability for one identity. Do not share."""

    __slots__ = ("signer", "_token")

    def __init__(self, signer: str, token: int) -> None:
        self.signer = signer
        self._token = token

    def sign(self, payload: Any) -> Signature:
        """Sign arbitrary payload content (digested canonically)."""
        return self.sign_digest(digest_of(payload))

    def sign_digest(self, digest: Digest) -> Signature:
        return Signature(signer=self.signer, digest=digest, token=self._token)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SigningKey {self.signer}>"


@dataclass(frozen=True)
class SignedMessage:
    """A payload together with the signature over its digest."""

    payload: Any
    signature: Signature

    @property
    def signer(self) -> str:
        return self.signature.signer

    def canonical_fields(self) -> tuple:
        return (self.payload, self.signature)


def payload_digest_of(signed: SignedMessage) -> Digest:
    """Digest of a signed message's payload, memoized on the wrapper.

    Payloads are often plain tuples (which cannot carry a digest memo of
    their own), but the immutable ``SignedMessage`` wrapper can: the same
    signed reply is re-verified by every node a certificate crosses, and
    only the first verification pays for the canonical encoding.
    """
    digest = getattr(signed, "_payload_digest", None)
    if digest is None:
        digest = digest_of(signed.payload)
        object.__setattr__(signed, "_payload_digest", digest)
    return digest


class KeyRegistry:
    """The system's PKI: issues keys and verifies signatures.

    Deterministic *and order-independent*: a signer's token is a pure
    function of ``(seed, signer)``, so two registries with the same seed
    agree on every key no matter which identities each has issued, or in
    what order.  Space-parallel runs (:mod:`repro.parallel`) rely on
    this — every partition builds its own registry and pre-issues the
    full topology, and signatures minted in one worker process verify in
    any other.  Token values never enter canonical encodings (they are
    secret material), so the derivation scheme cannot affect schedules
    or run digests.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._tokens: dict[str, int] = {}

    def issue(self, signer: str) -> SigningKey:
        """Create (or re-derive) the signing key for ``signer``."""
        token = self._tokens.get(signer)
        if token is None:
            token = random.Random(f"keys/{self.seed}/{signer}").getrandbits(128)
            self._tokens[signer] = token
        return SigningKey(signer, token)

    def known(self, signer: str) -> bool:
        return signer in self._tokens

    def verify(self, signed: SignedMessage) -> None:
        """Raise :class:`ForgeryError`/:class:`CryptoError` unless valid."""
        self.verify_digest(signed.signature, payload_digest_of(signed))

    def verify_digest(self, signature: Signature, digest: Digest) -> None:
        expected = self._tokens.get(signature.signer)
        if expected is None:
            raise CryptoError(f"unknown signer {signature.signer!r}")
        if signature.token != expected:
            raise ForgeryError(f"signature does not verify for {signature.signer!r}")
        if signature.digest != digest:
            raise CryptoError("signature covers a different payload")

    def is_valid(self, signed: SignedMessage) -> bool:
        """Boolean-returning variant of :meth:`verify`."""
        try:
            self.verify(signed)
        except CryptoError:
            return False
        return True

    def verify_many(self, pairs: Iterable[tuple[Signature, Digest]]) -> list[bool]:
        """Structurally verify a batch of (signature, digest) pairs.

        Mirrors the ed25519 batch-verification API: one call, per-item
        verdicts.  Unlike real batch verification (which only yields a
        single accept/reject and needs a fallback pass to attribute
        failures), the structural scheme identifies the failing member
        directly, so the returned list is exact.  Charges no cost.
        """
        verdicts: list[bool] = []
        for signature, digest in pairs:
            try:
                self.verify_digest(signature, digest)
                verdicts.append(True)
            except CryptoError:
                verdicts.append(False)
        return verdicts
