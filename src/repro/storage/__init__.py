"""Multiversion storage substrate.

Each Basil replica owns a :class:`~repro.storage.versionstore.VersionStore`:
per-key chains of committed and prepared versions, read timestamps (RTS),
and the read-index needed by MVTSO-Check steps 3-5 (Algorithm 1).

The store is deliberately generic over the timestamp type — anything
totally ordered works — so it is reused by the TAPIR and TxSMR baselines.
"""

from repro.storage.versionstore import Version, VersionStore

__all__ = ["Version", "VersionStore"]
