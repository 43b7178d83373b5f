"""Model builders: turn a picklable spec into partitions or a sequential run.

A :class:`ModelSpec` is the unit shipped to worker processes: a pure
description of *what* to simulate (system kind, config, workload,
clients, durations) from which any process can build its own partitions.
Two builds exist per model:

* ``SequentialRun(spec)`` — the whole system on one plain simulator
  (the ``workers=1`` path, byte-identical to a hand-built sequential
  run);
* ``build_partition(spec, plan, pid)`` — one partition's slice as a
  :class:`PartitionHost`, used by workers in windowed runs.

Both are a :class:`_Run`: instruments attach, the closed-loop runner is
built and the run is summarised in exactly one place each, and
:func:`build_system` is the only mapping from a system kind to a system.

Supported kinds: ``basil`` and ``microbench`` build partitioned;
``tapir``, ``txsmr`` (TxSMR over the PBFT core, the paper's
TxBFT-SMaRt) and ``txsmr-hotstuff`` (TxSMR over HotStuff, TxHotStuff)
are sequential-only: every system a figure compares goes through the
same pipeline, and the ``workers=1`` golden-digest guarantee covers the
baselines too.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import SimulationError
from repro.parallel.exchange import Envelope, PartitionResult
from repro.parallel.partition import PartitionPlan, basil_plan, uniform_plan
from repro.sim.loop import Simulator

PARTITIONED_KINDS = ("basil", "microbench")
SEQUENTIAL_KINDS = PARTITIONED_KINDS + ("tapir", "txsmr", "txsmr-hotstuff")


@dataclass(frozen=True)
class ModelSpec:
    """Picklable description of one simulated run."""

    kind: str = "basil"
    #: SystemConfig for protocol kinds (picklable frozen dataclass);
    #: None uses each system's defaults.
    config: Any = None
    workload: str = "ycsb-t"
    workload_keys: int = 500
    #: Extra workload-constructor kwargs as (name, value) pairs (tuple of
    #: pairs keeps the spec hashable/picklable) — the figure experiments
    #: use this for read/write mixes, distributions, hot-account counts.
    workload_kwargs: tuple[tuple[str, Any], ...] = ()
    num_clients: int = 6
    duration: float = 0.05
    warmup: float = 0.02
    #: Run/bench name carried into the bench row and report (defaults to
    #: the workload's own name when empty).
    label: str = ""
    #: Attach a tracer per partition and compute trace digests.
    trace: bool = True
    #: Attach an ObsRecorder per partition and merge the RunReports.
    obs: bool = False
    #: Freeze the cyclic GC after build (both modes; see docs/parallel.md).
    gc_freeze: bool = False
    #: Fault schedule (:class:`repro.faults.spec.FaultSchedule`) applied
    #: by every partition: each builds its own injector from the same
    #: serialized schedule and applies the local share (crashes on the
    #: hosting partition, link/partition faults on the sending side).
    fault_schedule: Any = None
    #: Byzantine client mix (Fig 7): the first ``byz_client_count`` of
    #: ``num_clients`` use this behaviour, matching the sequential figure
    #: path's factory order exactly.
    byz_client_behaviour: str | None = None
    byz_client_count: int = 0
    byz_faulty_fraction: float = 1.0
    #: Geo deployment (:class:`repro.geo.plan.GeoSpec`): place the basil
    #: system on a WAN topology and drive it with the geo serving tier
    #: instead of the standard closed-loop clients.  Partitioned runs use
    #: one partition per region (:func:`repro.geo.plan.geo_plan`).
    geo: Any = None
    #: Output directories threaded through the spec (NOT module globals,
    #: which forked workers cannot be handed): when set, each partition
    #: writes ``{label}-p{pid}.trace.json`` / ``.obs.json`` there.
    trace_dir: str | None = None
    obs_dir: str | None = None
    #: Attach a wall-clock attribution profiler per partition
    #: (:mod:`repro.prof`); tables ride each PartitionResult's ``extra``
    #: and merge in the profile report.  Never perturbs the schedule.
    prof: bool = False
    #: Additionally run the ``sys.setprofile`` deep profiler per worker
    #: (collapsed stacks for flamegraphs; 3-10x slower, still
    #: schedule-identical).
    prof_deep: bool = False
    # -- microbench knobs ------------------------------------------------
    partitions: int = 8
    timers: int = 2_000  #: self-rescheduling timers per partition
    cross_every: int = 64  #: one cross-partition ping per this many fires
    lookahead: float = 1e-4  #: microbench window width (seconds)

    def __post_init__(self) -> None:
        if self.kind not in SEQUENTIAL_KINDS:
            raise SimulationError(f"unknown model kind {self.kind!r}")
        if self.geo is not None:
            if self.kind != "basil":
                raise SimulationError(
                    f"geo topologies only apply to the basil model, not "
                    f"{self.kind!r}"
                )
            if self.byz_client_count:
                raise SimulationError(
                    "geo runs drive their own serving tier and do not "
                    "support the byzantine client mix"
                )

    def system_config(self) -> Any:
        if self.config is not None:
            return self.config
        from repro.config import SystemConfig

        return SystemConfig()

    def make_workload(self) -> Any:
        from repro.workloads import make_workload

        return make_workload(
            self.workload, keys=self.workload_keys, **dict(self.workload_kwargs)
        )

    def make_injector(self) -> Any:
        """A fresh FaultInjector for one partition (None: no schedule)."""
        if self.fault_schedule is None:
            return None
        from repro.faults.injector import FaultInjector

        return FaultInjector(self.fault_schedule)

    def client_factories(self, system: Any) -> Any:
        """The Fig 7 client mix against ``system`` (None: all correct)."""
        if not self.byz_client_count:
            return None
        from repro.byzantine.clients import ByzantineClient

        behaviour = self.byz_client_behaviour
        fraction = self.byz_faulty_fraction
        factories = []
        for i in range(self.num_clients):
            if i < self.byz_client_count:
                factories.append(
                    lambda s=system, b=behaviour, f=fraction: s.create_client(
                        client_class=ByzantineClient, behaviour=b, faulty_fraction=f
                    )
                )
            else:
                factories.append(lambda s=system: s.create_client())
        return factories

    def end_time(self) -> float:
        if self.kind == "microbench":
            return self.duration
        return self.warmup + self.duration + self.warmup  # + cool-down

    def run_name(self, partition_id: int | None = None) -> str:
        """What a run of this spec (or one partition of it) is called."""
        name = self.label or self.kind
        return name if partition_id is None else f"{name}/p{partition_id}"

    def artifact_stem(self, partition_id: int | None = None) -> str:
        """Filename stem for per-run artifacts (trace/obs exports)."""
        return self.run_name(partition_id).replace("/", "-")


def make_plan(spec: ModelSpec) -> PartitionPlan:
    if spec.kind == "basil":
        if spec.geo is not None:
            from repro.geo.plan import geo_plan

            return geo_plan(spec.system_config(), spec.geo)
        return basil_plan(spec.system_config(), spec.num_clients)
    if spec.kind == "microbench":
        return uniform_plan(spec.partitions, spec.lookahead)
    raise SimulationError(
        f"model kind {spec.kind!r} is sequential-only (use workers=1)"
    )


def build_system(
    kind: str, config: Any, geo: Any = None, partition: Any = None
) -> Any:
    """The one mapping from a system kind to a system object.

    ``geo`` places a Basil deployment on a WAN topology; ``partition``
    (a :class:`~repro.parallel.partition.PlanSlice`) builds one slice of
    it.  Only Basil has either.
    """
    if kind == "basil":
        if geo is not None:
            from repro.geo.runner import build_geo_system

            return build_geo_system(config, geo, partition=partition)
        from repro.core.system import BasilSystem

        return BasilSystem(config, partition=partition)
    if kind == "tapir":
        from repro.baselines.tapir.system import TapirSystem

        return TapirSystem(config)
    if kind in ("txsmr", "txsmr-hotstuff"):
        from repro.baselines.txsmr.system import TxSMRSystem

        protocol = "hotstuff" if kind == "txsmr-hotstuff" else "pbft"
        return TxSMRSystem(config, protocol=protocol)
    raise SimulationError(f"unknown system kind {kind!r}")


def _artifact_path(directory: str | None, filename: str) -> str | None:
    """Where a per-run artifact goes; None when no directory was asked for."""
    if not directory:
        return None
    import os

    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, filename)


@contextmanager
def _frame(profiler: Any, subsystem: str) -> Iterator[None]:
    """An attribution frame around post-run reporting (free on NULL_PROFILER)."""
    profiler.begin(subsystem)
    try:
        yield
    finally:
        profiler.end()


class _Run:
    """What every way of running a spec shares.

    The sequential run and each partition host own one simulator (and,
    for protocol kinds, one system) and walk the same lifecycle: attach
    instruments, start the closed-loop runner, summarise.  Each of those
    steps exists once, here.
    """

    def __init__(self, spec: ModelSpec, system: Any, sim: Simulator) -> None:
        self.spec = spec
        self.system = system  #: None for the microbench
        self.sim = sim
        self.runner = None
        self.tracer = None
        self.recorder = None
        self.injector = None
        if system is not None:  # the microbench has no protocol to observe
            if spec.trace:
                from repro.trace.tracer import Tracer

                self.tracer = sim.attach_tracer(Tracer())
            if spec.obs:
                from repro.obs.recorder import ObsRecorder

                self.recorder = ObsRecorder()
            self.injector = spec.make_injector()
        if spec.prof:
            from repro.prof.profiler import install_profiler

            install_profiler(sim, system)

    def _start_runner(self, regions: Any = None, load_data: bool = True) -> None:
        """Build the closed-loop driver and schedule its initial work.

        ``regions`` restricts a geo serving tier to one partition's
        share; ``load_data=False`` skips the genesis load on a partition
        that hosts no replicas.
        """
        spec = self.spec
        if spec.geo is not None:
            from repro.geo.runner import GeoRunner

            self.runner = GeoRunner(
                self.system,
                spec.geo,
                duration=spec.duration,
                warmup=spec.warmup,
                name=spec.label,
                recorder=self.recorder,
                injector=self.injector,
                regions=regions,
                # a partition keeps its raw samples so the merge can
                # recompute exact percentiles across regions
                keep_samples=regions is not None,
            )
            self.runner.setup()
            return
        from repro.bench.runner import ExperimentRunner

        self.runner = ExperimentRunner(
            self.system,
            spec.make_workload(),
            num_clients=spec.num_clients,
            duration=spec.duration,
            warmup=spec.warmup,
            name=spec.label,
            client_factories=spec.client_factories(self.system),
            injector=self.injector,
            recorder=self.recorder,
        )
        self.runner.setup(load_data=load_data)

    def _summarize(
        self,
        partition_id: int | None,
        digest: str = "",
        cross_sent: int = 0,
        cross_received: int = 0,
        extra: dict[str, Any] | None = None,
    ) -> PartitionResult:
        """Finalize the runner and assemble the run's result and artifacts.

        ``partition_id`` is None for the sequential run (reported as -1).
        A traced run's digest is its trace digest; otherwise the caller
        passes its own (the microbench fold).
        """
        from repro.bench.runner import abort_reasons

        spec, system, profiler = self.spec, self.system, self.sim.profiler
        stem = spec.artifact_stem(partition_id)
        bench = None
        if self.runner is not None:
            from repro.obs.report import _jsonable

            with _frame(profiler, "runner.finalize"):
                result = self.runner.finalize()
            if spec.byz_client_count:
                clients = getattr(system, "clients", [])
                result.extra["equiv_attempts"] = sum(
                    getattr(c, "equiv_attempts", 0) for c in clients
                )
                result.extra["equiv_successes"] = sum(
                    getattr(c, "equiv_successes", 0) for c in clients
                )
            bench = _jsonable(result)
        if self.tracer is not None:
            from repro.trace.export import trace_digest, write_chrome_trace

            # sha256 over every trace event — attribute it so post-run
            # reporting can't masquerade as kernel time.
            with _frame(profiler, "report.digest"):
                digest = trace_digest(self.tracer)
            path = _artifact_path(spec.trace_dir, stem + ".trace.json")
            if path:
                write_chrome_trace(self.tracer, path)
        report = None
        if self.recorder is not None:
            from repro.obs.report import write_report

            report_obj = self.recorder.finish(
                spec.run_name(partition_id), bench=bench, trace_digest=digest or None
            )
            report = report_obj.to_dict()
            path = _artifact_path(spec.obs_dir, stem + ".obs.json")
            if path:
                write_report(path, report_obj)
        network = getattr(system, "network", None)
        if profiler.enabled:
            extra = {**(extra or {}), "prof": profiler.table()}
        return PartitionResult(
            partition_id=-1 if partition_id is None else partition_id,
            digest=digest,
            events=self.sim.events_processed,
            now=self.sim.now,
            rng_streams=self.sim.rng_streams(),
            cross_sent=cross_sent,
            cross_received=cross_received,
            messages_delivered=getattr(network, "messages_delivered", 0),
            messages_dropped=getattr(network, "messages_dropped", 0),
            bench=bench,
            report=report,
            fault_stats=dict(self.injector.stats) if self.injector else None,
            abort_reasons=abort_reasons(system) or None,
            extra=extra,
        )


# ---------------------------------------------------------------------------
# Partition hosts
# ---------------------------------------------------------------------------
class PartitionHost(_Run):
    """One partition's runtime inside a worker process.

    Lifecycle: ``start()`` (schedule initial work; no events execute),
    then per window ``deliver(env)*`` + ``sim.run(until=bound)`` driven
    by the worker loop, then ``finalize()`` once all windows are done.
    Outbound cross-partition messages accumulate in ``take_outbox()``.
    """

    def __init__(
        self, spec: ModelSpec, system: Any, sim: Simulator, plan: PartitionPlan, pid: int
    ) -> None:
        super().__init__(spec, system, sim)
        self.plan = plan
        self.partition_id = pid
        self._outbox: list[Envelope] = []
        self._seq = 0

    def start(self) -> None:
        raise NotImplementedError

    def deliver(self, env: Envelope) -> None:
        raise NotImplementedError

    def finalize(self) -> PartitionResult:
        raise NotImplementedError

    def _emit(
        self, src: str, dst: str, dst_partition: int, delay: float, payload: Any
    ) -> None:
        """Queue one cross-partition message for the next window report."""
        now = self.sim.now
        self._outbox.append(
            Envelope(
                src=src,
                dst=dst,
                src_partition=self.partition_id,
                dst_partition=dst_partition,
                seq=self._seq,
                send_time=now,
                deliver_time=now + delay,
                payload=payload,
            )
        )
        self._seq += 1

    def take_outbox(self) -> tuple[Envelope, ...]:
        out = tuple(self._outbox)
        self._outbox.clear()
        return out


class BasilPartitionHost(PartitionHost):
    """One Basil partition: a shard's replicas, or the client slice."""

    def __init__(self, spec: ModelSpec, plan: PartitionPlan, pid: int) -> None:
        system = build_system(
            "basil", spec.system_config(), geo=spec.geo, partition=plan.slice(pid)
        )
        super().__init__(spec, system, system.sim, plan, pid)
        # Every geo partition hosts one region's serving tier, so every
        # partition runs its own GeoRunner (no dedicated client partition).
        self.is_client_partition = (
            spec.geo is None and pid == plan.num_partitions - 1
        )
        self._cross_received = 0
        system.network.bind_partition(self._remote_send, plan.lookahead)

    def _remote_send(self, src: str, dst: str, message: Any, delay: float) -> None:
        profiler = self.sim.profiler
        if profiler.enabled:
            # The serialization seam of the parallel envelope path: the
            # pickling itself happens in the worker's pipe send
            # (exchange.pipe), but envelope construction and routing are
            # per-message and attributable here.
            profiler.begin("exchange.envelope")
            try:
                self._build_envelope(src, dst, message, delay)
            finally:
                profiler.end()
        else:
            self._build_envelope(src, dst, message, delay)

    def _build_envelope(self, src: str, dst: str, message: Any, delay: float) -> None:
        dst_partition = self.plan.partition_of(dst)
        # The network already enforces the global lookahead; pairs with a
        # recorded per-pair floor (geo region pairs) are held to their
        # own, tighter bound so a misplaced node or a latency-model bug
        # is named by region pair instead of slipping under the window.
        floor = self.plan.pair_floor(self.partition_id, dst_partition)
        if delay < floor:
            raise SimulationError(
                f"cross-partition delay {delay:g}s for {src} -> {dst} "
                f"undercuts the "
                f"{self.plan.partition_label(self.partition_id)} <-> "
                f"{self.plan.partition_label(dst_partition)} latency floor "
                f"{floor:g}s"
            )
        self._emit(src, dst, dst_partition, delay, message)

    def start(self) -> None:
        spec = self.spec
        if spec.geo is not None:
            self._start_runner(
                regions=(spec.geo.topology.regions[self.partition_id],)
            )
        elif self.is_client_partition:
            self._start_runner(load_data=False)
        else:
            # Same relative order as ExperimentRunner.setup: injector
            # before genesis load, recorder after (crash/byz faults must
            # be armed before any traffic this partition originates).
            if self.injector is not None:
                self.injector.attach(self.system)
            self.system.load(spec.make_workload().iter_data())
            if self.recorder is not None:
                self.recorder.attach(self.system, until=spec.end_time())

    def deliver(self, env: Envelope) -> None:
        self._cross_received += 1
        self.sim.call_at(
            max(env.deliver_time, self.sim.now),
            self.system.network.deliver_remote,
            env.src,
            env.dst,
            env.payload,
        )

    def finalize(self) -> PartitionResult:
        return self._summarize(
            self.partition_id,
            cross_sent=self._seq,
            cross_received=self._cross_received,
        )


class MicrobenchPartitionHost(PartitionHost):
    """The scale-ladder kernel load: a large standing timer population.

    Each partition hosts ``spec.timers`` self-rescheduling timers (fixed
    per-timer periods drawn once from the partition's ``timers`` RNG
    stream), so the pending-event population stays constant at ``K`` for
    the whole run — exactly the regime where partition-local heaps beat
    one global heap.  Every ``cross_every``-th fire emits a
    cross-partition ping with delay ``1.5 * lookahead``; deliveries fold
    into an order-independent XOR digest so sequential and windowed
    executions of the same spec can be compared exactly.
    """

    def __init__(self, spec: ModelSpec, plan: PartitionPlan, pid: int) -> None:
        sim = Simulator(seed=spec.system_config().seed, partition_id=pid)
        super().__init__(spec, None, sim, plan, pid)
        self._state = _MicrobenchState()
        self._cross_delay = 1.5 * plan.lookahead

    def start(self) -> None:
        _microbench_schedule(
            self.sim,
            self.partition_id,
            self.sim.rng("timers"),
            self.spec,
            self._state,
            self._emit_cross,
        )

    def _emit_cross(self, dst_partition: int) -> None:
        self._emit(
            f"p{self.partition_id}", f"p{dst_partition}", dst_partition,
            self._cross_delay, None,
        )

    def deliver(self, env: Envelope) -> None:
        self.sim.call_at(
            max(env.deliver_time, self.sim.now),
            self._state.fold_cross,
            env.deliver_time,
            env.src_partition,
            env.seq,
        )

    def finalize(self) -> PartitionResult:
        state = self._state
        return self._summarize(
            self.partition_id,
            digest=state.digest(),
            cross_sent=self._seq,
            cross_received=state.cross_received,
            extra={"fires": state.fires},
        )


class _MicrobenchState:
    """Per-partition microbench accumulators (order-independent fold)."""

    __slots__ = ("fires", "cross_received", "_xor")

    def __init__(self) -> None:
        self.fires = 0
        self.cross_received = 0
        self._xor = 0

    def fold_cross(self, deliver_time: float, src_partition: int, seq: int) -> None:
        self.cross_received += 1
        key = f"{deliver_time!r}/{src_partition}/{seq}".encode()
        self._xor ^= int.from_bytes(hashlib.sha256(key).digest()[:16], "big")

    def digest(self) -> str:
        payload = f"{self.fires}:{self.cross_received}:{self._xor:032x}"
        return hashlib.sha256(payload.encode()).hexdigest()


def _microbench_schedule(
    sim: Simulator, pid: int, rng, spec: ModelSpec, state: _MicrobenchState, emit_cross
) -> None:
    """Install partition ``pid``'s timer population on ``sim``.

    ``emit_cross(dst_partition)`` is called on every ``cross_every``-th
    fire; destinations rotate over the other partitions so the traffic
    pattern is deterministic and layout-invariant.
    """
    num_partitions = spec.partitions
    cross_every = spec.cross_every

    def fire(period: float) -> None:
        state.fires += 1
        if cross_every and state.fires % cross_every == 0:
            step = 1 + (state.fires // cross_every) % max(1, num_partitions - 1)
            emit_cross((pid + step) % num_partitions)
        sim.call_later(period, fire, period)

    for _ in range(spec.timers):
        period = rng.uniform(0.0008, 0.0012)
        sim.call_later(rng.uniform(0.0, period), fire, period)


def build_partition(spec: ModelSpec, plan: PartitionPlan, pid: int) -> PartitionHost:
    if spec.kind == "basil":
        return BasilPartitionHost(spec, plan, pid)
    if spec.kind == "microbench":
        return MicrobenchPartitionHost(spec, plan, pid)
    raise SimulationError(f"model kind {spec.kind!r} has no partitioned build")


# ---------------------------------------------------------------------------
# Sequential builds (the workers=1 path)
# ---------------------------------------------------------------------------
class SequentialRun(_Run):
    """The whole spec on one plain simulator (no partitions, no windows).

    Construction wires everything; ``run()`` advances time to the end
    and returns a :class:`PartitionResult`-shaped summary (partition id
    -1).  For protocol kinds this is byte-identical to building the
    system and runner by hand — the golden-digest tests pin that.
    """

    def __init__(self, spec: ModelSpec) -> None:
        self._micro_states: list[_MicrobenchState] = []
        if spec.kind == "microbench":
            system = None
            sim = Simulator(seed=spec.system_config().seed)
        else:
            system = build_system(spec.kind, spec.system_config(), geo=spec.geo)
            sim = system.sim
        super().__init__(spec, system, sim)

    def start(self) -> None:
        """Schedule all initial work without executing any event."""
        if self.spec.kind == "microbench":
            self._start_microbench()
        else:
            self._start_runner()

    def _start_microbench(self) -> None:
        """All P virtual partitions on one simulator, one global heap.

        Each virtual partition draws from ``random.Random(f"{seed}/p{i}/
        timers")`` — the exact key a partitioned simulator would derive —
        so timer populations (and therefore fires/digests) are identical
        between this build and the windowed one.  Cross-partition pings
        become plain ``call_later`` deliveries at the same virtual times.
        """
        spec = self.spec
        seed = spec.system_config().seed
        states = [_MicrobenchState() for _ in range(spec.partitions)]
        self._micro_states = states
        seqs = [0] * spec.partitions
        delay = 1.5 * spec.lookahead

        for pid in range(spec.partitions):
            rng = random.Random(f"{seed}/p{pid}/timers")

            def emit_cross(dst: int, pid: int = pid) -> None:
                seq = seqs[pid]
                seqs[pid] += 1
                self.sim.call_later(
                    delay, states[dst].fold_cross, self.sim.now + delay, pid, seq
                )

            _microbench_schedule(self.sim, pid, rng, spec, states[pid], emit_cross)

    def run(self) -> PartitionResult:
        self.start()
        return self.run_prepared()

    def run_prepared(self) -> PartitionResult:
        """Advance to end_time and summarize (``start()`` already called)."""
        self.sim.run(until=self.spec.end_time())
        states = self._micro_states
        return self._summarize(
            None,
            digest=_combine_micro(states) if states else "",
            cross_received=sum(s.cross_received for s in states),
        )


def _combine_micro(states: list[_MicrobenchState]) -> str:
    from repro.parallel.merge import combine_digests

    return combine_digests({pid: s.digest() for pid, s in enumerate(states)})
