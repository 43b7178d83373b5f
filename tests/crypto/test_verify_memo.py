"""Tests for the verification memo, the node's one table of verified
signatures, and quorum verification costs."""

import pytest

from repro.config import CryptoConfig
from repro.crypto.cost_model import CryptoContext
from repro.crypto.digest import digest_of
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import KeyRegistry, SignedMessage
from repro.sim.loop import Simulator
from repro.sim.node import Cpu


def make_ctx(sim, **cfg_overrides):
    registry = KeyRegistry(seed=1)
    key = registry.issue("r0")
    cfg = CryptoConfig(**cfg_overrides)
    return CryptoContext(registry, key, cfg, Cpu(sim, cores=1)), cfg, registry


def run(sim, coro):
    return sim.run_until_complete(coro)


# ----------------------------------------------------------------------
# Verification memo
# ----------------------------------------------------------------------
def test_repeat_verification_charges_once():
    sim = Simulator()
    ctx, cfg, _ = make_ctx(sim)

    async def main():
        signed = await ctx.sign("payload")
        assert await ctx.verify(signed)
        first = sim.now
        assert await ctx.verify(signed)  # memo hit: no CPU charge
        return first, sim.now

    first, second = run(sim, main())
    assert first == pytest.approx(cfg.sign_cost + cfg.verify_cost)
    assert second == first
    assert ctx.signatures_verified == 2  # both verifications counted
    assert ctx.verify_memo_hits == 1


def test_memo_disabled_charges_every_time():
    sim = Simulator()
    ctx, cfg, _ = make_ctx(sim, verify_memo=False)

    async def main():
        signed = await ctx.sign("payload")
        assert await ctx.verify(signed)
        assert await ctx.verify(signed)
        return sim.now

    assert run(sim, main()) == pytest.approx(cfg.sign_cost + 2 * cfg.verify_cost)
    assert ctx.verify_memo_hits == 0


def test_forgery_never_aliases_a_memoized_verdict():
    """A forged signature over the same digest must not hit the memo of
    the genuine one (the secret token is part of the memo key)."""
    sim = Simulator()
    ctx, _, registry = make_ctx(sim)
    forged_key = KeyRegistry(seed=99).issue("r0")

    async def main():
        genuine = await ctx.sign("payload")
        # r0's own key: genuine signature verifies and is memoized.
        assert await ctx.verify(
            SignedMessage(payload="payload", signature=registry.issue("r0").sign("payload"))
        )
        forged = SignedMessage(payload="payload", signature=forged_key.sign("payload"))
        assert not await ctx.verify(forged)
        # And the forged verdict must not poison the genuine one.
        assert await ctx.verify(genuine)

    run(sim, main())


def test_memo_also_caches_negative_verdicts():
    sim = Simulator()
    ctx, cfg, _ = make_ctx(sim)
    forged_key = KeyRegistry(seed=99).issue("r0")

    async def main():
        forged = SignedMessage(payload="m", signature=forged_key.sign("m"))
        assert not await ctx.verify(forged)
        after_first = sim.now
        assert not await ctx.verify(forged)
        return after_first, sim.now

    first, second = run(sim, main())
    assert first == pytest.approx(cfg.verify_cost)
    assert second == first
    assert ctx.verify_memo_hits == 1


# ----------------------------------------------------------------------
# Structural verification
# ----------------------------------------------------------------------
def test_verify_many_structural_batch():
    registry = KeyRegistry(seed=1)
    key = registry.issue("r0")
    forged = KeyRegistry(seed=9).issue("r0")
    good_sig = key.sign("a")
    bad_sig = forged.sign("b")
    verdicts = registry.verify_many(
        [(good_sig, digest_of("a")), (bad_sig, digest_of("b")), (good_sig, digest_of("x"))]
    )
    assert verdicts == [True, False, False]


# ----------------------------------------------------------------------
# Quorum verification through the attestation verifier
# ----------------------------------------------------------------------
def _quorum_env(sim, **cfg_overrides):
    from repro.core.attestation import AttestationVerifier

    registry = KeyRegistry(seed=1)
    cfg = CryptoConfig(**cfg_overrides)
    ctx = CryptoContext(registry, registry.issue("me"), cfg, Cpu(sim, cores=1))
    verifier = AttestationVerifier(ctx)
    atts = []
    for i in range(4):
        key = registry.issue(f"r{i}")
        payload = f"vote-{i}"
        atts.append(SignedMessage(payload=payload, signature=key.sign(payload)))
    return verifier, ctx, cfg, registry, atts


def test_quorum_charges_one_verification_per_member():
    sim = Simulator()
    verifier, ctx, cfg, _, atts = _quorum_env(sim, verify_memo=False)
    assert run(sim, verifier.verify_quorum(atts))
    assert sim.now == pytest.approx(4 * cfg.verify_cost)
    assert ctx.signatures_verified == 4


def test_quorum_rejects_forged_member():
    sim = Simulator()
    verifier, _, _, _, atts = _quorum_env(sim)
    evil = KeyRegistry(seed=99).issue("r9")
    atts.append(SignedMessage(payload="vote-9", signature=evil.sign("vote-9")))
    assert run(sim, verifier.verify_quorum(atts)) is False


def test_quorum_memo_skips_known_signatures():
    sim = Simulator()
    verifier, ctx, cfg, _, atts = _quorum_env(sim)

    async def main():
        assert await verifier.verify_quorum(atts)
        first = sim.now
        # Second quorum over the same attestations: everything memoized,
        # nothing charged.
        assert await verifier.verify_quorum(atts)
        return first, sim.now

    first, second = run(sim, main())
    assert first == pytest.approx(4 * cfg.verify_cost)
    assert second == first
    assert ctx.verify_memo_hits == 4


# ----------------------------------------------------------------------
# One table per node: batch roots and memoized verdicts share it
# ----------------------------------------------------------------------
MEMO = pytest.mark.parametrize("memo", [True, False], ids=["memo", "nomemo"])


def _batch_env(sim, memo):
    """A verifier for node "me" and a 4-reply batch signed by "r0"."""
    from repro.core.attestation import AttestationVerifier, BatchAttestation

    registry = KeyRegistry(seed=1)
    cfg = CryptoConfig(verify_memo=memo)
    ctx = CryptoContext(registry, registry.issue("me"), cfg, Cpu(sim, cores=1))
    payloads = [f"reply-{i}" for i in range(4)]
    tree = MerkleTree([digest_of(p) for p in payloads])

    def batch(root_signature):
        return [
            BatchAttestation(payload=p, root=tree.root, proof=tree.proof(i),
                             root_signature=root_signature)
            for i, p in enumerate(payloads)
        ]

    genuine = batch(registry.issue("r0").sign_digest(tree.root))
    forged = batch(KeyRegistry(seed=99).issue("r0").sign_digest(tree.root))
    # one hash for the payload plus one per Merkle level
    hashing = 3 * cfg.hash_cost(64)
    return AttestationVerifier(ctx), ctx, cfg, genuine, forged, hashing


def _entries(ctx):
    return sum(len(digests) for digests in ctx.verified.values())


@MEMO
def test_second_attestation_of_a_verified_batch_costs_only_hashing(memo):
    sim = Simulator()
    verifier, ctx, cfg, genuine, _, hashing = _batch_env(sim, memo)

    async def main():
        assert await verifier.verify(genuine[0])
        first = sim.now
        assert await verifier.verify(genuine[1])
        return first, sim.now

    first, second = run(sim, main())
    assert first == pytest.approx(hashing + cfg.verify_cost)
    assert second - first == pytest.approx(hashing)
    assert (ctx.signatures_verified, verifier.cache_hits, ctx.verify_memo_hits) == (1, 1, 0)
    # the root is stored once, in the node's one table
    assert ctx.verified == {"r0": {genuine[0].root: genuine[0].root_signature.token}}
    assert ctx.invalid == (set() if memo else None)


@MEMO
def test_forged_signature_over_a_verified_root_is_a_cache_hit(memo):
    """The roots cache is keyed by (signer, root) and ignores the token:
    the genuine signature already vouched for that root."""
    sim = Simulator()
    verifier, ctx, cfg, genuine, forged, hashing = _batch_env(sim, memo)

    async def main():
        assert await verifier.verify(genuine[0])
        first = sim.now
        assert await verifier.verify(forged[1])
        return first, sim.now

    first, second = run(sim, main())
    assert second - first == pytest.approx(hashing)
    assert (ctx.signatures_verified, verifier.cache_hits) == (1, 1)
    assert _entries(ctx) == 1


@MEMO
def test_forged_signature_over_an_unverified_root_is_rejected(memo):
    """Rejected with a charge; then, with the memo on, answered from the
    invalid set for hashing alone.  The genuine signature still verifies."""
    sim = Simulator()
    verifier, ctx, cfg, genuine, forged, hashing = _batch_env(sim, memo)

    async def main():
        assert not await verifier.verify(forged[0])
        first = sim.now
        assert not await verifier.verify(forged[1])
        second = sim.now
        assert await verifier.verify(genuine[2])
        return first, second, sim.now

    first, second, third = run(sim, main())
    assert first == pytest.approx(hashing + cfg.verify_cost)
    assert second - first == pytest.approx(hashing if memo else hashing + cfg.verify_cost)
    assert third - second == pytest.approx(hashing + cfg.verify_cost)
    assert ctx.verify_memo_hits == (1 if memo else 0)
    assert verifier.cache_hits == 0
    assert ctx.invalid == ({("r0", forged[0].root, forged[0].root_signature.token)}
                           if memo else None)
    assert _entries(ctx) == 1


@MEMO
def test_signed_message_verdict_is_remembered_only_with_the_memo(memo):
    """Both verification paths (an attestation verifier and the context's
    own ``verify``) read the same table."""
    sim = Simulator()
    verifier, ctx, cfg, _, atts = _quorum_env(sim, verify_memo=memo)
    signed = atts[0]

    async def main():
        assert await verifier.verify(signed)
        first = sim.now
        assert await ctx.verify(signed)
        return first, sim.now

    first, second = run(sim, main())
    assert first == pytest.approx(cfg.verify_cost)
    assert second - first == pytest.approx(0.0 if memo else cfg.verify_cost)
    assert ctx.verify_memo_hits == (1 if memo else 0)
    assert ctx.signatures_verified == 2
    if memo:
        assert ctx.verified == {"r0": {digest_of(signed.payload): signed.signature.token}}
    else:
        assert ctx.verified == {}
