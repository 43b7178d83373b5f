"""Byzantine behaviours for failure-injection experiments (Sec 6.4).

* :mod:`repro.byzantine.clients` — the paper's client attack strategies:
  stall-early, stall-late, equiv-real, equiv-forced, plus high-timestamp
  manipulation.
* :mod:`repro.byzantine.replicas` — replica misbehaviour: silence,
  prepare-abstention (disabling the fast path), stale/fabricated reads,
  and vote equivocation.

All attackers are ordinary subclasses of the honest nodes: they hold
only their own keys, so anything they fabricate still fails signature
validation at correct participants — exactly the paper's threat model.
"""

from repro.byzantine.clients import BEHAVIOURS, ByzantineClient
from repro.byzantine.replicas import (
    REPLICA_BEHAVIOURS,
    EquivocatingVoteReplica,
    FabricatingReadReplica,
    PrepareAbstainingReplica,
    SilentReplica,
    StaleReadReplica,
)

__all__ = [
    "BEHAVIOURS",
    "REPLICA_BEHAVIOURS",
    "ByzantineClient",
    "EquivocatingVoteReplica",
    "FabricatingReadReplica",
    "PrepareAbstainingReplica",
    "SilentReplica",
    "StaleReadReplica",
]
