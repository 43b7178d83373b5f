"""The run pipeline: one picklable description of a run, one way to execute it.

A :class:`ModelSpec` is a pure description of *what* to simulate (system
kind, config, workload, clients or arrivals, faults, durations,
instruments).  Every single-process run is ``SequentialRun(spec)``: the
whole system on one plain simulator, byte-identical to a hand-built
sequential run.  ``python -m repro run`` (``--prof`` too), the figures,
geo runs, the fault campaign, the open-loop planner and the scale
ladder's one-process row all run this way; a sweep hands its list of
specs to :func:`run_specs`, which runs each one in its own forked child,
as many at once as there are usable cores.  With ``workers >= 2``,
``repro.parallel.runtime.ParallelRunner`` runs a plain closed-loop
``basil`` spec or the ``microbench`` as one partition host per plan
slice (:mod:`repro.parallel.models`); it refuses every other kind and
every spec with ``drain``, ``arrivals``, ``geo``, ``fault_schedule`` or
``obs`` set.

Both are a :class:`_Run`: the only place a runner, recorder, injector,
tracer or profiler is constructed and the only place a fault schedule
becomes a client mix.  A sequential run's :class:`~repro.obs.report.RunReport`
(telemetry when recorded, wall-clock attribution when profiled) is
built and written in one place, :meth:`SequentialRun.run_prepared`.
:func:`build_system` is the only mapping from a system kind to a system.

Supported kinds: ``basil``, ``microbench``, ``tapir``, ``txsmr``
(TxSMR over the PBFT core, the paper's TxBFT-SMaRt) and
``txsmr-hotstuff`` (TxSMR over HotStuff, TxHotStuff): every system a
figure compares goes through the same pipeline, and the golden-digest
guarantee covers the baselines too.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

from repro.crypto.digest import sha256
from repro.errors import SimulationError
from repro.sim.loop import Simulator

PARTITIONED_KINDS = ("basil", "microbench")
SEQUENTIAL_KINDS = PARTITIONED_KINDS + ("tapir", "txsmr", "txsmr-hotstuff")
#: The kinds that build a protocol system: what a CLI's ``--system`` takes.
SYSTEM_KINDS = tuple(k for k in SEQUENTIAL_KINDS if k != "microbench")


@dataclass(frozen=True)
class PartitionResult:
    """One partition's contribution to the merged run result."""

    partition_id: int
    digest: str
    events: int
    now: float
    rng_streams: dict[str, str]
    cross_sent: int
    cross_received: int
    messages_delivered: int = 0
    messages_dropped: int = 0
    bench: dict[str, Any] | None = None  #: client partition only
    #: The RunReport dict of a recorded (``obs``) or profiled (``prof``)
    #: sequential run, and the FaultInjector.stats counters (None when
    #: neither / no injector; always None on a partition).
    report: dict[str, Any] | None = None
    fault_stats: dict[str, int] | None = None
    #: Per-replica MVTSO abort-reason tallies summed over this
    #: partition's replicas (replica partitions only; merged into the
    #: bench row so partitioned runs keep the sequential row schema).
    abort_reasons: dict[str, int] | None = None
    extra: dict[str, Any] | None = None


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
    #: Attach an ObsRecorder and write a RunReport.  ``workers=1`` only.
    obs: bool = False
    #: Telemetry sampling interval in simulated seconds.
    obs_interval: float = 0.005
    #: Fault schedule (:class:`repro.faults.spec.FaultSchedule`) applied
    #: by a FaultInjector.  ``workers=1`` only.
    fault_schedule: Any = None
    #: Byzantine client mix (Fig 7): the first ``byz_client_count`` of
    #: ``num_clients`` use this behaviour on every transaction; the
    #: schedule's byz-client faults follow them (see :meth:`byz_mix`).
    byz_client_behaviour: str | None = None
    byz_client_count: int = 0
    #: None: clients are cancelled at :meth:`end_time` and the run is
    #: summarised at once (the figures).  A number: they are left to finish
    #: their in-flight transaction, the bench row is taken at ``end_time()``
    #: and the digest, obs report and caller's oracles only after this many
    #: more fault-free seconds.  ``workers=1`` only.
    drain: float | None = None
    #: Open-loop load (``repro.config.ArrivalConfig`` / ``AdmissionConfig``):
    #: an arrival process over ``num_clients`` proxies replaces the
    #: closed-loop clients.  ``workers=1`` only.
    arrivals: Any = None
    admission: Any = None
    #: Geo deployment (:class:`repro.geo.plan.GeoSpec`): place the basil
    #: system on a WAN topology and drive it with the geo serving tier
    #: instead of the standard closed-loop clients.  ``workers=1`` only.
    geo: Any = None
    #: Output directories threaded through the spec (NOT module globals,
    #: which forked workers cannot be handed): when set, the run writes
    #: ``{label}.trace.json`` / ``.obs.json`` there, and each partition of
    #: a windowed run its own ``{label}-p{pid}.trace.json``.
    trace_dir: str | None = None
    obs_dir: str | None = None
    #: Attach a wall-clock attribution profiler per partition
    #: (:mod:`repro.prof`); tables ride each PartitionResult's ``extra``,
    #: and a sequential run's RunReport carries them as its ``prof``
    #: section.  Never perturbs the schedule.
    prof: bool = False
    #: Additionally run the ``sys.setprofile`` deep profiler, over the
    #: sequential run or per worker (collapsed stacks for flamegraphs;
    #: 3-10x slower, still schedule-identical).
    prof_deep: bool = False
    # -- microbench knobs ------------------------------------------------
    partitions: int = 8
    timers: int = 2_000  #: self-rescheduling timers per partition
    cross_every: int = 64  #: one cross-partition ping per this many fires
    lookahead: float = 1e-4  #: microbench window width (seconds)

    def __post_init__(self) -> None:
        if self.kind not in SEQUENTIAL_KINDS:
            raise SimulationError(f"unknown model kind {self.kind!r}")
        if self.geo is not None and self.kind != "basil":
            raise SimulationError(
                f"geo topologies only apply to the basil model, not {self.kind!r}"
            )
        if self.geo is not None and self.arrivals is not None:
            raise SimulationError(
                "geo runs drive their own serving tier and do not support "
                "open-loop arrivals"
            )
        if (self.geo is not None or self.arrivals is not None) and self.byz_mix():
            raise SimulationError(
                "geo runs and open-loop arrivals drive their own clients and "
                "do not support the byzantine client mix (byz_client_count or "
                "byz-client faults in the schedule)"
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

    def byz_mix(self) -> list[tuple[str, float]]:
        """(behaviour, faulty_fraction) of each Byzantine client, in client
        order: the spec's own Fig 7 clients, then the schedule's byz-client
        faults in schedule order."""
        mix = [(self.byz_client_behaviour, 1.0)] * self.byz_client_count
        if self.fault_schedule is not None:
            for fault in self.fault_schedule.byz_clients:
                mix.extend([(fault.behaviour, fault.faulty_fraction)] * fault.count)
        return mix

    def client_factories(self, system: Any) -> Any:
        """The client mix against ``system`` (None: all correct): the one
        place a run's Byzantine clients come from."""
        mix = self.byz_mix()
        if not mix:
            return None
        from repro.byzantine.clients import ByzantineClient

        byz = [
            lambda b=behaviour, f=fraction: system.create_client(
                client_class=ByzantineClient, behaviour=b, faulty_fraction=f
            )
            for behaviour, fraction in mix
        ]
        return (byz + [system.create_client] * self.num_clients)[: self.num_clients]

    def end_time(self) -> float:
        if self.kind == "microbench":
            return self.duration
        return self.warmup + self.duration + self.warmup  # + cool-down

    def run_name(self, partition_id: int | None = None) -> str:
        """What a run of this spec (or one partition of it) is called."""
        name = self.label or self.kind
        return name if partition_id is None else f"{name}/p{partition_id}"

    def artifact_path(self, suffix: str, partition_id: int | None = None) -> str | None:
        """Where this run's (or one partition's) ``trace`` / ``obs`` export
        goes — ``{dir}/{run name, / as -}.{suffix}.json`` — or None when that
        directory was not asked for."""
        directory = self.trace_dir if suffix == "trace" else self.obs_dir
        if not directory:
            return None
        stem = self.run_name(partition_id).replace("/", "-")
        return os.path.join(directory, f"{stem}.{suffix}.json")


def build_system(
    kind: str, config: Any, geo: Any = None, partition: Any = None
) -> Any:
    """The one mapping from a system kind to a system object.

    ``geo`` places a Basil deployment on a WAN topology; ``partition``
    (a :class:`~repro.parallel.partition.PlanSlice`) builds one slice of
    a plain one.  Only Basil has either.
    """
    if kind == "basil":
        if geo is not None:
            from repro.geo.runner import build_geo_system

            return build_geo_system(config, geo)
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


def _artifact_path(spec: ModelSpec, suffix: str, partition_id: int | None) -> str | None:
    """``spec.artifact_path`` with its directory made; None when not asked for."""
    path = spec.artifact_path(suffix, partition_id)
    if path:
        os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


class _Run:
    """What every way of running a spec shares.

    The sequential run and each partition host own one simulator (and,
    for protocol kinds, one system) and walk the same lifecycle: attach
    instruments, start the driver (closed-loop clients, the geo serving
    tier or open-loop arrivals), summarise.  Each of those steps exists
    once, here.  ``partition_id`` is None for the sequential run.
    """

    def __init__(
        self, spec: ModelSpec, system: Any, sim: Simulator, partition_id: int | None = None
    ) -> None:
        self.spec = spec
        self.system = system  #: None for the microbench
        self.sim = sim
        self.partition_id = partition_id
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

                self.recorder = ObsRecorder(interval=spec.obs_interval)
            if spec.fault_schedule is not None:
                from repro.faults.injector import FaultInjector

                self.injector = FaultInjector(spec.fault_schedule)
        self.deep = None
        if spec.prof:
            # Looked up now, not at import: a caller may have swapped in a
            # Profiler subclass.  Stores reach it through their node's sim.
            from repro.prof.profiler import Profiler

            sim.attach_profiler(Profiler())
            if spec.prof_deep and partition_id is None:
                # A worker samples its whole loop, exchange included, so
                # partition hosts leave deep mode to repro.parallel.worker.
                from repro.prof.deep import DeepProfiler

                self.deep = DeepProfiler()

    def _start_runner(self) -> None:
        """Build the run's workload runner and schedule its initial work."""
        spec = self.spec
        common = dict(
            duration=spec.duration,
            warmup=spec.warmup,
            name=spec.label,
            injector=self.injector,
            recorder=self.recorder,
        )
        if spec.geo is not None:
            from repro.geo.runner import GeoRunner

            self.runner = GeoRunner(self.system, spec.geo, **common)
        elif spec.arrivals is not None:
            # Imported here so a closed-loop run never loads repro.load.
            from repro.load.generator import OpenLoopGenerator

            self.runner = OpenLoopGenerator(
                self.system,
                spec.make_workload(),
                spec.arrivals,
                admission=spec.admission,
                proxies=spec.num_clients,
                **common,
            )
        else:
            from repro.bench.runner import ExperimentRunner

            self.runner = ExperimentRunner(
                self.system,
                spec.make_workload(),
                num_clients=spec.num_clients,
                client_factories=spec.client_factories(self.system),
                cancel_at_end=spec.drain is None,
                **common,
            )
        self.runner.setup()

    def _summarize(
        self,
        digest: str = "",
        cross_sent: int = 0,
        cross_received: int = 0,
        extra: dict[str, Any] | None = None,
    ) -> PartitionResult:
        """Finalize the runner and assemble the run's result and trace.

        The sequential run is reported as partition -1.  A traced run's
        digest is its trace digest; otherwise the caller passes its own
        (the microbench fold).
        """
        from repro.bench.runner import abort_reasons

        spec, system, instruments = self.spec, self.system, self.sim.instruments
        bench = None
        if self.runner is not None:
            from repro.obs.report import _jsonable

            if instruments is None:
                result = self.runner.finalize()
            else:
                result = instruments.frame("runner.finalize", self.runner.finalize)
            if spec.byz_mix():
                clients = getattr(system, "clients", [])
                result.extra["equiv_attempts"] = sum(
                    getattr(c, "equiv_attempts", 0) for c in clients
                )
                result.extra["equiv_successes"] = sum(
                    getattr(c, "equiv_successes", 0) for c in clients
                )
            bench = _jsonable(result)
            if spec.drain:
                # Fault-free by construction of the schedule: retries,
                # recoveries and writebacks settle before the digest, the
                # report and the caller's oracles look at the state.
                self.sim.run(until=spec.end_time() + spec.drain)
        if self.tracer is not None:
            from repro.trace.export import trace_digest, write_chrome_trace

            # sha256 over every trace event — attribute it so post-run
            # reporting can't masquerade as kernel time.
            digest = instruments.frame("report.digest", trace_digest, self.tracer)
            path = _artifact_path(spec, "trace", self.partition_id)
            if path:
                write_chrome_trace(self.tracer, path)
        network = getattr(system, "network", None)
        if instruments is not None and instruments.profiler is not None:
            extra = {**(extra or {}), "prof": instruments.profiler.table()}
        return PartitionResult(
            partition_id=-1 if self.partition_id is None else self.partition_id,
            digest=digest,
            events=self.sim.events_processed,
            now=self.sim.now,
            rng_streams=self.sim.rng_streams(),
            cross_sent=cross_sent,
            cross_received=cross_received,
            messages_delivered=getattr(network, "messages_delivered", 0),
            messages_dropped=getattr(network, "messages_dropped", 0),
            bench=bench,
            fault_stats=dict(self.injector.stats) if self.injector else None,
            abort_reasons=abort_reasons(system) or None,
            extra=extra,
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
        self._xor ^= int.from_bytes(sha256(key).digest()[:16], "big")

    def digest(self) -> str:
        payload = f"{self.fires}:{self.cross_received}:{self._xor:032x}"
        return sha256(payload.encode()).hexdigest()


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


# ---------------------------------------------------------------------------
# The single-process run
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
        self.began = 0.0  #: perf_counter() when start() returned
        if spec.kind == "microbench":
            system = None
            sim = Simulator(seed=spec.system_config().seed)
        else:
            system = build_system(spec.kind, spec.system_config(), geo=spec.geo)
            sim = system.sim
        super().__init__(spec, system, sim)

    def start(self) -> None:
        """Schedule all initial work without executing any event.

        The run's measured section (the wall a profile's coverage is
        taken over, and what the deep profiler samples) begins here.
        """
        if self.spec.kind == "microbench":
            self._start_microbench()
        else:
            self._start_runner()
        self.began = perf_counter()
        if self.deep is not None:
            self.deep.start()

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
        result = self._summarize(
            digest=_combine_micro(states) if states else "",
            cross_received=sum(s.cross_received for s in states),
        )
        if self.recorder is None and not self.spec.prof:
            return result
        return dataclasses.replace(result, report=self._report(result).to_dict())

    def _report(self, result: PartitionResult) -> Any:
        """The run's RunReport: telemetry when recorded, the ``prof``
        section when profiled; written into ``obs_dir`` when asked for."""
        from repro.obs.report import RunReport, write_report

        spec, deep = self.spec, self.deep
        if deep is not None:
            deep.stop()
        wall = perf_counter() - self.began
        name, digest = spec.run_name(), result.digest or None
        if self.recorder is not None:
            report = self.recorder.finish(name, bench=result.bench, trace_digest=digest)
        else:
            config = spec.system_config() if self.system is None else self.system.config
            report = RunReport.of(
                name, config, self.sim.seed, self.sim.now,
                bench=result.bench, trace_digest=digest,
            )
        if spec.prof:
            from repro.prof.profiler import Attribution

            report.prof = Attribution(
                result.extra["prof"], wall, result.events,
                collapsed=None if deep is None else deep.collapsed,
            )
        path = _artifact_path(spec, "obs", None)
        if path:
            write_report(path, report)
        return report


def _combine_micro(states: list[_MicrobenchState]) -> str:
    from repro.parallel.merge import combine_digests

    return combine_digests({pid: s.digest() for pid, s in enumerate(states)})


# ---------------------------------------------------------------------------
# Sweeps: one forked child per spec
# ---------------------------------------------------------------------------
def run_specs(
    specs: Sequence[ModelSpec],
    then: Callable[[SequentialRun, PartitionResult], Any] | None = None,
) -> Iterator[Any]:
    """``SequentialRun(spec).run()`` for every spec, each in a forked
    child of its own, as many at once as this process may use cores
    (``os.sched_getaffinity``: ``taskset -c 0`` runs a sweep serially);
    the results in spec order, each yielded as soon as it and every
    earlier one are in, so a sweep prints its rows as it goes.

    ``then(run, result)``, when given, runs in the child on the finished
    run, its live system still there; its picklable return value comes
    back instead of the result.
    """

    def point(spec: ModelSpec) -> Any:
        run = SequentialRun(spec)
        result = run.run()
        return result if then is None else then(run, result)

    calls = [(spec.run_name(), lambda spec=spec: point(spec)) for spec in specs]
    return in_children(calls, slots=len(os.sched_getaffinity(0)))


def in_children(calls: Sequence[tuple[str, Callable[[], Any]]], slots: int = 1) -> Iterator[Any]:
    """Each ``(name, fn)``'s ``fn()`` in a fresh forked child (a clean heap
    and allocator per call), at most ``slots`` at once; what they
    returned, in order, each as soon as every earlier call's is in.  The
    first child that raises, or exits without a result, stops the others
    and raises :class:`SimulationError` with its name and its exception
    text or exit code; closing the iterator early stops them too."""
    import multiprocessing as mp
    from multiprocessing.connection import wait

    # Fork, not spawn: the simulator runs no threads, and a call may be a
    # closure over live objects (a sweep's ``then`` hook), which spawn
    # would have to pickle.
    ctx = mp.get_context("fork")
    finished: dict[int, Any] = {}  #: index -> result, until it is yielded
    yielded = 0
    queued = list(enumerate(calls))[::-1]
    running: dict[Any, tuple[int, str, Any]] = {}  #: pipe -> (index, name, process)
    try:
        while queued or running:
            while queued and len(running) < max(1, slots):
                index, (name, fn) = queued.pop()
                receiver, sender = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_child, args=(sender, fn))
                # A forked child flushes the stdout buffer it inherits, so
                # rows printed and still buffered would come out twice.
                sys.stdout.flush()
                proc.start()
                sender.close()
                running[receiver] = (index, name, proc)
            for receiver in wait(list(running)):
                index, name, proc = running.pop(receiver)
                with receiver:
                    try:
                        ok, value = receiver.recv()
                    except EOFError:
                        proc.join()
                        ok, value = False, f"exited with code {proc.exitcode} before sending"
                proc.join()
                if not ok:
                    raise SimulationError(f"{name}: child {value}")
                finished[index] = value
            while yielded in finished:
                yield finished.pop(yielded)
                yielded += 1
    finally:
        for receiver, (_, _, proc) in running.items():
            proc.kill()
            proc.join()
            receiver.close()


def _child(sender: Any, fn: Callable[[], Any]) -> None:
    """A forked child's body: send ``(True, fn())`` or ``(False, why)``."""
    import traceback

    with sender:
        try:
            sender.send((True, fn()))
        except Exception:  # the parent reports it; an exit shows there as EOF
            sender.send((False, f"raised\n{traceback.format_exc()}"))
