"""Configuration objects for systems, networks, and cost models.

All tunables referenced in the paper's evaluation (replication factor,
batch size, read-quorum size, clock-skew bound delta, crypto on/off, shard
count) live here so that experiments are plain data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

#: Convenient time units (the simulator's clock is in seconds).
US = 1e-6
MS = 1e-3
SECOND = 1.0


@dataclass(frozen=True)
class NetworkConfig:
    """Shape of the simulated network.

    Defaults approximate the paper's CloudLab m510 testbed: 0.15 ms ping,
    i.e. 75 us one-way latency, with mild jitter.
    """

    one_way_latency: float = 75 * US
    jitter: float = 10 * US
    #: Probability an individual message is dropped (retransmission is the
    #: sender's problem; Basil clients re-send on timeout).
    drop_rate: float = 0.0


@dataclass(frozen=True)
class CryptoConfig:
    """Cost model for cryptographic operations, charged in simulated time.

    Defaults are calibrated to ed25519-donna on a 2 GHz core (the paper's
    hardware): ~52 us per signature, ~130 us per verification, and SHA-256
    hashing at ~0.4 us per 256-byte block.
    """

    enabled: bool = True
    sign_cost: float = 52 * US
    verify_cost: float = 130 * US
    hash_cost_per_block: float = 0.4 * US
    hash_block_bytes: int = 256
    #: Sec 4.4 "Signature Aggregation": when on, verifying a quorum of
    #: matching votes costs one signature verification plus a hash per
    #: vote (BLS-style aggregate), instead of one verification per vote.
    #: The paper describes this optimization but leaves it unimplemented;
    #: repro.bench.experiments.ablation_aggregation measures what it buys.
    signature_aggregation: bool = False
    #: Memoize verdicts per verifying node: a signature a node has already
    #: verified is not re-charged.  Valid signatures go into the node's
    #: one table of verified signatures (``CryptoContext.verified``,
    #: signer -> {digest: token}), which holds batch roots whatever this
    #: flag says; invalid ones into a set of (signer, digest, token).
    #: Models the verification caching Basil's implementation performs
    #: when the same certificate crosses a node twice (e.g. cross-shard
    #: writeback after ST2), which otherwise saturates simulated clients
    #: (Figure 5c).  Off, only batch roots are remembered.
    verify_memo: bool = True

    def hash_cost(self, nbytes: int) -> float:
        """Simulated CPU time to hash ``nbytes`` bytes."""
        if not self.enabled:
            return 0.0
        blocks = max(1, (nbytes + self.hash_block_bytes - 1) // self.hash_block_bytes)
        return blocks * self.hash_cost_per_block


@dataclass(frozen=True)
class LivenessConfig:
    """Bounds a fault-injection run must meet after faults stop.

    Safety (zero :class:`repro.verify.history.HistoryChecker` violations)
    is unconditional; these bounds state the *liveness* a scenario
    promises — e.g. "the fallback eventually commits or aborts every
    stalled transaction" becomes ``max_undecided = 0`` after ``drain``
    seconds of fault-free time.  Scenarios with permanent faults or
    adversarial clients relax them explicitly.
    """

    #: Fault-free simulated seconds to run after the measured window so
    #: retries, recoveries, and writebacks can settle.
    drain: float = 0.5
    #: The run must have committed at least this many transactions.
    min_commits: int = 1
    #: Max transactions still prepared-but-undecided somewhere after the
    #: drain (None disables the check).
    max_undecided: int | None = 0
    #: Max client transactions that died with a ProtocolError (recovery
    #: starvation); 0 for every scenario whose faults heal.
    max_protocol_errors: int = 0


@dataclass(frozen=True)
class ArrivalConfig:
    """Open-loop arrival process (:mod:`repro.load.arrivals`).

    ``rate`` is the *mean* offered load in transactions per simulated
    second for every process shape; the shapes differ in variance:

    * ``poisson`` — exponential inter-arrivals (M/G/k offered load).
    * ``uniform`` — inter-arrivals uniform in ``(1 ± spread) / rate``;
      ``spread=0`` is a perfectly paced arrival comb.
    * ``bursty`` — on/off MMPP: a two-state modulating chain whose ON
      state offers ``peak_ratio * rate`` and whose OFF state offers
      whatever keeps the long-run mean at ``rate``.
    """

    process: str = "poisson"
    rate: float = 1000.0
    #: uniform: half-width of the inter-arrival window as a fraction of
    #: the mean gap (0 = fixed spacing, must stay < 1).
    spread: float = 0.5
    #: bursty: ON-state rate as a multiple of the mean rate (> 1).
    peak_ratio: float = 3.0
    #: bursty: long-run fraction of time spent in the ON state; must
    #: satisfy ``peak_ratio * on_fraction <= 1`` so the OFF rate is >= 0.
    on_fraction: float = 0.3
    #: bursty: mean length of one ON+OFF cycle, seconds (dwells are
    #: exponential with means ``cycle * on_fraction`` / ``cycle * (1 -
    #: on_fraction)``).
    cycle: float = 0.02


@dataclass(frozen=True)
class AdmissionConfig:
    """Client-proxy admission control (:mod:`repro.load.admission`).

    ``policy`` selects the algorithm:

    * ``none`` — admit everything (pure open loop).
    * ``static-cap`` — at most ``cap`` transactions in flight; excess
      arrivals are shed (``mode="shed"``) or parked and retried
      (``mode="delay"``) until ``max_queue_delay`` expires.
    * ``aimd`` — additive-increase / multiplicative-decrease shedding:
      the in-flight cap grows by ``additive_increase`` per healthy
      ``sample_interval`` and shrinks by ``decrease_factor`` whenever
      replica queue depth or utilization (via ``Node.load_signal``)
      crosses the high-water marks.
    """

    policy: str = "none"
    #: static-cap: max admitted-but-unfinished transactions.
    cap: int = 64
    #: static-cap: what to do with an over-cap arrival (shed | delay).
    mode: str = "shed"
    #: delay mode: how long a parked arrival waits between re-checks.
    retry_delay: float = 2 * MS
    #: delay mode: park at most this long before shedding.
    max_queue_delay: float = 50 * MS
    # -- aimd knobs -----------------------------------------------------
    initial_cap: float = 16.0
    min_cap: float = 4.0
    additive_increase: float = 4.0
    #: gentle backoff: the sawtooth averages ~(1+decrease_factor)/2 of
    #: the converged cap, so 0.85 holds >90% of knee goodput where 0.5
    #: (TCP's beta) would idle a quarter of the capacity away.
    decrease_factor: float = 0.85
    #: min spacing between signal samples (sampled lazily on arrivals;
    #: never schedules events of its own).
    sample_interval: float = 5 * MS
    #: overloaded when any replica's queued work items per core exceed
    #: this...
    queue_high_water: float = 4.0
    #: ...or when windowed utilization of the busiest replica does.
    target_utilization: float = 0.95


@dataclass(frozen=True)
class NodeConfig:
    """Compute shape of one server: paper uses 8-core 2.0 GHz machines."""

    cores: int = 8
    #: Baseline (non-crypto) CPU time to parse/process one message.
    message_overhead: float = 4 * US


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration for a Basil (or baseline) deployment."""

    #: Number of tolerated Byzantine replicas per shard.
    f: int = 1
    num_shards: int = 1
    #: Clock-skew admission bound (the paper's delta, sized from NTP skew).
    delta: float = 50 * MS
    #: Per-node clock offset is drawn uniformly from [-skew, +skew].
    clock_skew: float = 1 * MS

    #: Reply-batching factor b (Sec 4.4).  1 disables batching.
    batch_size: int = 4
    #: Max time a replica holds a partial batch before flushing it.
    batch_timeout: float = 0.3 * MS

    #: Consensus batch size for the SMR baselines (the paper found
    #: TxHotStuff best at 4 and TxBFT-SMaRt at 16).
    smr_batch_size: int = 16
    #: BFT-SMaRt-style batch wait: the leader holds a partial batch for
    #: this long before ordering it (drives the baselines' latency under
    #: light or contention-throttled load; at saturation batches fill
    #: long before the timeout).
    smr_batch_timeout: float = 8 * MS
    #: Minimum spacing between HotStuff rounds (pacemaker + batch
    #: formation); the source of HotStuff's higher decision latency —
    #: a block needs three successor rounds to commit.
    hotstuff_round_interval: float = 5 * MS
    #: PBFT view change: if set, replicas suspect a silent leader after
    #: this many seconds without progress on outstanding work and elect
    #: the next one.  None (default) runs the fault-free configuration
    #: the paper benchmarks.
    pbft_view_change_timeout: float | None = None
    #: Serial state-machine execution cost per ordered op (OCC check /
    #: apply) — SMR executes on one logical core, unlike Basil's
    #: per-transaction parallelism.  Total cost scales with the op's
    #: read/write-set size (a 35-item TPC-C new-order costs far more to
    #: validate and apply than a 3-item Smallbank op).
    smr_exec_cost: float = 20 * US
    smr_exec_cost_per_item: float = 8 * US

    #: Number of replies a client waits for on reads.  The paper requires
    #: f+1 for Byzantine independence; Fig 5b sweeps {1, f+1, 2f+1}.
    read_quorum: int | None = None  # None -> f + 1
    #: Number of replicas a read request is sent to (paper: 2f+1).
    read_fanout: int | None = None  # None -> 2f + 1

    #: Whether the commit fast path is enabled (Fig 6a sweeps this).
    fast_path_enabled: bool = True

    #: Timeout after which a client considers a dependency stalled and
    #: invokes the fallback (Sec 5).  Kept aggressive: the paper notes
    #: correct clients "quickly notice stalled transactions and
    #: aggressively finish them", which keeps dependency chains short.
    dependency_timeout: float = 5 * MS
    #: Per-view timeout during fallback leader election.
    fallback_view_timeout: float = 40 * MS
    #: Generic client RPC timeout (reads / prepares before re-send).
    request_timeout: float = 50 * MS

    network: NetworkConfig = field(default_factory=NetworkConfig)
    crypto: CryptoConfig = field(default_factory=CryptoConfig)
    node: NodeConfig = field(default_factory=NodeConfig)
    #: Client machines are rarely the bottleneck; 2 cores models a client
    #: process sharing a machine with many others.
    client_node: NodeConfig = field(default_factory=lambda: NodeConfig(cores=2))

    #: Appendix B.5: with vote subsumption (the default, as in the Basil
    #: prototype), a replica counts a signed view v as support for every
    #: v' <= v when adopting fallback views.  Without it (False), only
    #: exact matches count — the mode compatible with multi/threshold
    #: signatures; Lemma 8 / Theorem 6 prove it still makes progress.
    vote_subsumption: bool = True

    #: EXPERIMENT-ONLY (Fig 7 "equiv-forced"): replicas log ST2 decisions
    #: without validating their SHARDVOTES justification, artificially
    #: letting Byzantine clients always equivocate, as the paper does for
    #: its worst-case failure measurement.  Never enable outside that
    #: experiment.
    allow_unjustified_st2: bool = False

    seed: int = 0xBA51

    @property
    def n(self) -> int:
        """Replicas per shard: Basil requires n = 5f + 1 (Sec 4.5)."""
        return 5 * self.f + 1

    @property
    def commit_quorum(self) -> int:
        """CQ = (n + f + 1) / 2 = 3f + 1 commit votes."""
        return 3 * self.f + 1

    @property
    def commit_fast_quorum(self) -> int:
        """Unanimous 5f + 1 commit votes enable the commit fast path."""
        return 5 * self.f + 1

    @property
    def abort_quorum(self) -> int:
        """AQ = f + 1 abort votes let a shard vote abort (slow path)."""
        return self.f + 1

    @property
    def abort_fast_quorum(self) -> int:
        """3f + 1 abort votes make the abort durable without logging."""
        return 3 * self.f + 1

    @property
    def st2_quorum(self) -> int:
        """n - f = 4f + 1 matching ST2R replies make a decision durable."""
        return self.n - self.f

    @property
    def elect_quorum(self) -> int:
        """4f + 1 ELECTFB messages elect a fallback leader."""
        return 4 * self.f + 1

    @property
    def effective_read_quorum(self) -> int:
        return self.read_quorum if self.read_quorum is not None else self.f + 1

    @property
    def effective_read_fanout(self) -> int:
        fanout = self.read_fanout if self.read_fanout is not None else 2 * self.f + 1
        return max(fanout, self.effective_read_quorum)

    def with_overrides(self, **kwargs: Any) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
