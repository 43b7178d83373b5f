"""The one seam between the simulation and its instruments.

A simulator's ``instruments`` is ``None`` until the first
``Simulator.attach_tracer`` / ``attach_metrics`` / ``attach_profiler``
call, and from then on an :class:`Instruments` holding exactly the sinks
attached: a :class:`repro.trace.Tracer`, a
:class:`repro.obs.registry.MetricsRegistry`, a
:class:`repro.prof.Profiler`.
Every instrumented site tests ``sim.instruments is None`` once and
otherwise makes one call here; what that call records — the metric name
and labels, the trace category, name and fields, the profiler row — is
written in this module and nowhere else.

Instruments only observe.  No method here schedules an event, draws
from an RNG stream or charges CPU beyond the charge it is handed, so a
run's schedule is the same with any set of sinks attached, or none
(pinned by the golden-digest and schedule-pin tests).  A profiler frame
brackets a synchronous call and never spans an await.

This module imports nothing from the rest of ``repro``: sinks and the
objects the seams are handed (CPUs, messages, transaction ids) are
duck-typed.
"""

from __future__ import annotations

from typing import Any, Awaitable, Callable


class Instruments:
    """The sinks attached to one simulator, behind one call per seam."""

    __slots__ = ("_sim", "tracer", "metrics", "profiler")

    def __init__(self, sim: Any) -> None:
        self._sim = sim
        self.tracer: Any = None
        self.metrics: Any = None
        self.profiler: Any = None

    # -- recording helpers ------------------------------------------------
    def _count(self, name: str, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).add()

    def _observe(self, name: str, value: float, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name, **labels).record(value)

    def _instant(self, node: str, category: str, name: str, **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.instant(node, category, name, **fields)

    def _complete(
        self, node: str, category: str, name: str, begin: float, **fields: Any
    ) -> None:
        if self.tracer is not None:
            self.tracer.complete(node, category, name, begin, self._sim.now, **fields)

    # -- kernel ------------------------------------------------------------
    def frame(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` inside a profiler frame ``name`` (profiler rows:
        ``cpu.spend``, ``network.send``, ``crypto.sign`` / ``verify`` /
        ``hash``, ``store.probe``, ``exchange.envelope``,
        ``runner.finalize``)."""
        profiler = self.profiler
        if profiler is None:
            return fn(*args)
        profiler.begin(name)
        try:
            return fn(*args)
        finally:
            profiler.end()

    def cpu_work(self, owner: str, enqueued: float, cost: float) -> None:
        """A CPU work item finished: queued at ``enqueued``, ran ``cost``."""
        if self.tracer is not None:
            end = self._sim.now
            self.tracer.complete(
                owner, "cpu", "work", enqueued, end,
                cost=cost, queued=end - cost - enqueued,
            )

    def charge(self, cpu: Any, op: str, cost: float) -> Awaitable[None]:
        """A crypto charge (``op``: sign, verify or hash) of ``cost`` on
        ``cpu``: a ``crypto`` span when tracing, else a ``crypto.charge``
        frame around handing the charge over when profiling."""
        if self.tracer is not None:
            return self._spanned_charge(cpu, op, cost)
        if self.profiler is not None:
            # Attribution for the charge plumbing itself; the charge
            # starts when the awaiting task takes it (cpu.spend).
            return self.frame("crypto.charge", cpu.spend, cost)
        return cpu.spend(cost)

    async def _spanned_charge(self, cpu: Any, op: str, cost: float) -> None:
        # A coroutine holding the span, so a charge cut short by
        # cancellation still records its truncated span.
        with self.tracer.span(cpu.owner, "crypto", op, cost=cost):
            await cpu.spend(cost)

    # -- network -------------------------------------------------------------
    # net_send and net_deliver run once per message: the sinks are tested
    # in line rather than through the recording helpers.
    def net_send(self, src: str, dst: str, message: Any, delay: float) -> None:
        if self.metrics is not None:
            self.metrics.counter("net_sends_total").add()
        if self.tracer is not None:
            self.tracer.instant(
                src, "net", "send", dst=dst, msg=type(message).__name__, delay=delay
            )

    def net_drop(self, src: str, dst: str, message: Any, reason: str) -> None:
        """A lost message.  ``drop_rate`` and ``adversary`` losses happen
        in flight, so the message also counts as sent; a ``crashed`` peer
        never receives a send and an ``unregistered`` one was counted
        when it was sent."""
        if reason in ("drop_rate", "adversary"):
            self._count("net_sends_total")
        self._count("net_drops_total", reason=reason)
        self._instant(src, "net", "drop", dst=dst, msg=type(message).__name__, reason=reason)

    def net_deliver(self, src: str, dst: str, message: Any) -> None:
        if self.metrics is not None:
            self.metrics.counter("net_delivers_total").add()
        if self.tracer is not None:
            self.tracer.instant(dst, "net", "deliver", src=src, msg=type(message).__name__)

    # -- transactions (client side) -----------------------------------------
    def txn_phase(self, node: str, name: str, begin: float, **fields: Any) -> None:
        """A transaction phase (execute, st1, st2, writeback) that began
        at ``begin`` ended now."""
        self._complete(node, "txn", name, begin, **fields)

    def txn_decided(self, committed: bool, fast_path: bool) -> None:
        if committed:
            self._count("basil_txn_commits_total")
            if fast_path:
                self._count("basil_txn_fast_commits_total")
        else:
            self._count("basil_txn_aborts_total", taxonomy="prepare-abort")

    def quorum_formed(self, shard: int, waited: float) -> None:
        self._observe("basil_quorum_latency_seconds", waited, shard=str(shard))

    def fallback_started(self, region: str) -> None:
        if region:
            self._count("basil_fallback_invocations_total", region=region)
        else:
            self._count("basil_fallback_invocations_total")

    def fallback_aborted(self) -> None:
        self._count("basil_txn_aborts_total", taxonomy="fallback-abort")

    def fallback_finished(self, node: str, begin: float, txid: str) -> None:
        self._observe("basil_fallback_seconds", self._sim.now - begin)
        self._complete(node, "txn", "fallback", begin, txid=txid)

    def recovery(self, node: str, name: str, **fields: Any) -> None:
        """A step of the fallback protocol (recovery_start, invoke_fb,
        recovery_done)."""
        self._instant(node, "fallback", name, **fields)

    # -- replicas ----------------------------------------------------------
    def mvtso_check(
        self,
        node: str,
        txid: str,
        status: Any,
        pending_deps: int,
        abort: tuple[str, str] | None,
    ) -> None:
        """One MVTSO-Check; ``abort`` is (reason, taxonomy) unless it
        prepared."""
        self._count("basil_mvtso_checks_total", status=status.value)
        if abort is not None:
            reason, taxonomy = abort
            self._count("basil_mvtso_aborts_total", reason=reason, taxonomy=taxonomy)
        self._instant(
            node, "replica", "mvtso_check",
            txid=txid, status=status.name, pending_deps=pending_deps,
        )

    def dependency_waited(self, waited: float) -> None:
        self._observe("basil_dependency_wait_seconds", waited)

    def view_changed(self, node: str, region: str) -> None:
        if region:
            self._count("basil_view_changes_total", node=node, region=region)
        else:
            self._count("basil_view_changes_total", node=node)

    def batch_flushed(self, size: int) -> None:
        self._count("basil_batches_flushed_total")
        self._observe("basil_batch_size", size)

    async def batch_signing(self, node: str, size: int, work: Awaitable[Any]) -> None:
        """Await ``work``, the signing of one reply batch, inside a span."""
        if self.tracer is None:
            await work
            return
        with self.tracer.span(node, "replica", "batch", size=size):
            await work

    # -- faults and Byzantine clients ------------------------------------------
    def fault(self, node: str, name: str) -> None:
        """A fault injected on ``node`` (crash, restart)."""
        self._instant(node, "fault", name)

    def byz_faulty_txn(self, behaviour: str) -> None:
        self._count("byz_faulty_txns_total", behaviour=behaviour)

    def byz_equivocation(self) -> None:
        self._count("byz_equivocations_total")

    # -- open-loop load ----------------------------------------------------
    def load_shed(self, in_flight: int) -> None:
        self._count("admission_shed_total")
        self._instant("load-gen", "load", "shed", in_flight=in_flight)

    def load_queued(self, arrived: float) -> None:
        """A parked arrival admitted now."""
        self._complete("load-gen", "load", "queued", arrived)

    def load_admitted(self) -> None:
        self._count("admission_admitted_total")

    def load_inflight(self, started: float, committed: bool, wait: float) -> None:
        self._complete("load-gen", "load", "inflight", started, committed=committed, wait=wait)

    # -- geo edge tier -------------------------------------------------------
    def lease_lookup(self, region: str, hit: bool) -> None:
        if hit:
            self._count("geo_lease_hits_total", region=region)
        else:
            self._count("geo_lease_misses_total", region=region)

    def lease_filled(self, node: str, begin: float, key: Any, ok: bool) -> None:
        self._complete(node, "geo", "lease-fill", begin, key=str(key), ok=ok)

    def geo_read_failed(self, region: str) -> None:
        self._count("geo_read_failures_total", region=region)

    def geo_read_served(self, region: str, source: str) -> None:
        self._count("geo_reads_total", region=region, source=source)

    def geo_write(self, region: str) -> None:
        self._count("geo_writes_total", region=region)

    def writeback_aborted(self, region: str) -> None:
        self._count("geo_writeback_aborts_total", region=region)

    def writeback_done(
        self, node: str, region: str, begin: float, keys: int, committed: bool
    ) -> None:
        self._count(
            "geo_writebacks_total", region=region,
            outcome="commit" if committed else "abort",
        )
        self._complete(node, "geo", "writeback", begin, keys=keys, committed=committed)

    def user_op(
        self, node: str, region: str, op: str, begin: float, ok: bool, source: str
    ) -> None:
        """An end user's read or write, issued at ``begin``, finished now."""
        self._observe("geo_user_latency_seconds", self._sim.now - begin, region=region, op=op)
        self._complete(node, "geo", op, begin, ok=ok, source=source)
