"""Deterministic merging of per-partition results.

Each partition produces its own digest; :func:`combine_digests`
folds them into one run digest in an order that depends only on
partition ids — never on worker packing or message arrival order.
"""

from __future__ import annotations

from repro.crypto.digest import sha256


def combine_digests(digests: dict[int, str]) -> str:
    """Fold per-partition digests into one run digest.

    sha256 over ``"pid:digest"`` lines in partition-id order: equal
    per-partition schedules <=> equal combined digest, for any worker
    count.
    """
    h = sha256()
    for pid in sorted(digests):
        h.update(f"{pid}:{digests[pid]}\n".encode())
    return h.hexdigest()
