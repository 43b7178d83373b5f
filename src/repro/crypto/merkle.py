"""Merkle trees for reply batching (paper Sec 4.4, Figure 2).

A replica accumulates ``b`` reply digests, builds a Merkle tree, signs the
root once, and ships each client its reply plus the O(log b) sibling path
needed to recompute the root.  Clients verify the path, verify the root
signature once, and cache (root, signature) so later replies from the
same batch skip verification entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.digest import Digest, digest_bytes
from repro.errors import CryptoError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _leaf_hash(leaf: Digest) -> Digest:
    return digest_bytes(_LEAF_PREFIX + leaf)


def _node_hash(left: Digest, right: Digest) -> Digest:
    return digest_bytes(_NODE_PREFIX + left + right)


@dataclass(frozen=True)
class InclusionProof:
    """Sibling hashes from a leaf up to the root.

    ``path`` holds only the sibling digests, bottom-up; the sibling at
    level *k* is the left one exactly when bit *k* of ``index`` is set.
    """

    index: int
    path: tuple[Digest, ...]

    def canonical_fields(self) -> tuple:
        i = self.index
        return (i, tuple((sib, bool(i >> k & 1)) for k, sib in enumerate(self.path)))


class MerkleTree:
    """A Merkle tree over a fixed sequence of leaf digests."""

    def __init__(self, leaves: Sequence[Digest]) -> None:
        if not leaves:
            raise CryptoError("Merkle tree needs at least one leaf")
        self.leaves = list(leaves)
        self._levels: list[list[Digest]] = [[_leaf_hash(leaf) for leaf in leaves]]
        while len(self._levels[-1]) > 1:
            prev = self._levels[-1]
            level = []
            for i in range(0, len(prev), 2):
                left = prev[i]
                right = prev[i + 1] if i + 1 < len(prev) else prev[i]
                level.append(_node_hash(left, right))
            self._levels.append(level)

    @property
    def root(self) -> Digest:
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self.leaves)

    def proof(self, index: int) -> InclusionProof:
        """Inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self.leaves):
            raise CryptoError(f"leaf index {index} out of range")
        path = []
        i = index
        for level in self._levels[:-1]:
            sibling = i ^ 1
            path.append(level[sibling] if sibling < len(level) else level[i])
            i //= 2
        return InclusionProof(index=index, path=tuple(path))


def verify_inclusion(leaf: Digest, proof: InclusionProof, root: Digest) -> bool:
    """Check that ``leaf`` is included under ``root`` via ``proof``."""
    node = _leaf_hash(leaf)
    index = proof.index
    for sibling in proof.path:
        node = _node_hash(sibling, node) if index & 1 else _node_hash(node, sibling)
        index >>= 1
    return node == root
