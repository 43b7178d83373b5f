"""Tests for Merkle trees used by reply batching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.digest import canonical_encode, digest_of
from repro.crypto.merkle import InclusionProof, MerkleTree, verify_inclusion
from repro.errors import CryptoError


def leaves(n):
    return [digest_of(("leaf", i)) for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 16, 31])
def test_all_proofs_verify(n):
    tree = MerkleTree(leaves(n))
    for i, leaf in enumerate(tree.leaves):
        assert verify_inclusion(leaf, tree.proof(i), tree.root)


def test_wrong_leaf_fails():
    tree = MerkleTree(leaves(8))
    proof = tree.proof(3)
    assert not verify_inclusion(digest_of("not-a-leaf"), proof, tree.root)


def test_wrong_index_proof_fails():
    tree = MerkleTree(leaves(8))
    assert not verify_inclusion(tree.leaves[2], tree.proof(3), tree.root)


def test_wrong_root_fails():
    tree = MerkleTree(leaves(4))
    other = MerkleTree(leaves(5))
    assert not verify_inclusion(tree.leaves[0], tree.proof(0), other.root)


def test_empty_tree_rejected():
    with pytest.raises(CryptoError):
        MerkleTree([])


def test_out_of_range_proof_rejected():
    tree = MerkleTree(leaves(4))
    with pytest.raises(CryptoError):
        tree.proof(4)


def test_root_depends_on_order():
    a = MerkleTree(leaves(4))
    b = MerkleTree(list(reversed(leaves(4))))
    assert a.root != b.root


def test_single_leaf_tree():
    (leaf,) = leaves(1)
    tree = MerkleTree([leaf])
    proof = tree.proof(0)
    assert proof.path == ()
    assert verify_inclusion(leaf, proof, tree.root)


def test_second_preimage_resistance_leaf_vs_node():
    """A leaf equal to an interior-node encoding must not verify as one."""
    tree = MerkleTree(leaves(2))
    # the root is a node hash; presenting it as a leaf should not verify
    assert not verify_inclusion(tree.root, tree.proof(0), tree.root)


@given(st.integers(min_value=1, max_value=40), st.data())
def test_property_random_trees(n, data):
    tree = MerkleTree(leaves(n))
    idx = data.draw(st.integers(min_value=0, max_value=n - 1))
    proof = tree.proof(idx)
    assert len(proof.path) <= max(1, n).bit_length()
    assert verify_inclusion(tree.leaves[idx], proof, tree.root)
    # a proof for one index never validates a different leaf
    other = data.draw(st.integers(min_value=0, max_value=n - 1))
    if tree.leaves[other] != tree.leaves[idx]:
        assert not verify_inclusion(tree.leaves[other], proof, tree.root)


def _pair_form_proof(tree, index):
    """The proof layout before siblings-only paths: bottom-up
    ``(sibling, sibling_is_left)`` pairs, computed from the tree's
    levels the way ``MerkleTree.proof`` did."""
    path, i = [], index
    for level in tree._levels[:-1]:
        if i % 2 == 0:
            path.append((level[i + 1] if i + 1 < len(level) else level[i], False))
        else:
            path.append((level[i - 1], True))
        i //= 2
    return (index, tuple(path))


@pytest.mark.parametrize("n", range(1, 10))
def test_siblings_only_proofs_encode_as_the_pair_form(n):
    tree = MerkleTree(leaves(n))
    for i in range(n):
        proof = tree.proof(i)
        assert all(type(sibling) is bytes for sibling in proof.path)
        assert proof.canonical_fields() == _pair_form_proof(tree, i)
        assert canonical_encode(proof.canonical_fields()) == canonical_encode(
            _pair_form_proof(tree, i)
        )


@pytest.mark.parametrize("n", range(2, 10))
def test_tampered_sibling_or_index_fails(n):
    tree = MerkleTree(leaves(n))
    for i, leaf in enumerate(tree.leaves):
        proof = tree.proof(i)
        for level in range(len(proof.path)):
            path = list(proof.path)
            path[level] = digest_of(("tampered", level))
            forged = InclusionProof(index=i, path=tuple(path))
            assert not verify_inclusion(leaf, forged, tree.root)
        for j in range(n):
            wrong = InclusionProof(index=j, path=proof.path)
            assert verify_inclusion(leaf, wrong, tree.root) == (j == i)
