"""The discrete-event simulator kernel.

A :class:`Simulator` owns a virtual clock and a totally ordered event
queue.  Protocol code is written as ordinary ``async def`` coroutines that
await :class:`Future` objects; the kernel trampolines them, so an entire
distributed system (replicas, clients, network) runs deterministically in
one OS thread on simulated time.

Determinism: events fire in (time, sequence-number) order, where sequence
numbers are assigned at scheduling time.  Two runs with the same seed and
the same code produce byte-identical histories.

Execution model (see docs/simulation.md for the full contract):

* Completion is *synchronous*: ``set_result`` runs waiter callbacks before
  it returns, so a wakeup cascade is depth-first — exactly the order the
  recursive kernel produced.  To keep deep chains of completed futures
  from blowing the Python stack, the cascade depth is bounded; past
  ``_CASCADE_LIMIT`` nested completions the remaining wakeups spill into a
  FIFO drained by the outermost frame.  Protocol runs stay far below the
  limit (asserted by the golden-digest test), so the spill never engages
  there and schedules are byte-identical to the pre-rewrite kernel.
* Within one task, ``Task._advance`` is an iterative loop: a coroutine that
  awaits an already-completed future resumes in the same frame instead of
  re-entering ``_advance`` through the callback chain.
* A CPU charge is no future: awaiting ``Cpu.spend`` hands ``(cpu, cost)``
  to the task, which starts it on the CPU at once, and the charge's
  completion record wakes the task directly.
* Public timers are ``(when, seq, handle)`` heap records; events nobody
  can cancel (CPU charges, sleeps, deliveries) are bare ``(when, seq, fn,
  args)`` records.  Timer cancellation is O(1): the entry is tombstoned
  and skipped at pop time; when tombstones dominate, the heap is compacted.
* Kernel objects form no reference cycles once they are finished, so
  reference counting frees them; the dispatch loop runs with the host's
  automatic cyclic collection paused (see ``COLLECT_EVERY``).
"""

from __future__ import annotations

import gc
import random
from collections import deque
from contextlib import contextmanager
from functools import wraps
from heapq import heapify, heappop, heappush
from typing import Any, Awaitable, Callable, Coroutine, Generator, Iterable, Iterator

from repro.errors import SimTimeoutError, SimulationError
from repro.sim.instruments import Instruments

_PENDING = object()

#: Maximum depth of nested synchronous completion cascades.  Real protocol
#: cascades are bounded by what a single node does within one delivered
#: message (< ~10 levels); the limit only engages on pathological chains
#: (e.g. 10k tasks each awaiting the previous one's result), which would
#: previously raise RecursionError.
_CASCADE_LIMIT = 64

_cascade_depth = 0
_spilled: deque[tuple["Future", list[Callable[["Future"], None]]]] = deque()

#: Dispatched events between two young-generation collections inside the
#: dispatch loop, which otherwise runs with automatic collection paused.
#: The kernel leaves the collector nothing to find, so this is only the
#: safety net for cycles built by other code.  A collection costs what is
#: alive of the allocations since the previous one, never the standing
#: heap; at 2**20 the largest figure point (a few million events) pays a
#: handful, and a period shorter than a heap's turnover would pay for the
#: same survivors again and again — a scale-ladder run re-arms a million
#: live ``EventHandle``s every million events.  A constant, not an
#: option: code that builds cycles per event is a bug
#: (tests/sim/test_cycle_free.py), not something to tune around.
COLLECT_EVERY = 2**20


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause automatic cyclic collection; restore what was found on exit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class CancelledError(Exception):
    """Raised inside a coroutine whose task was cancelled."""


class Future:
    """A single-assignment result container awaitable from sim coroutines."""

    __slots__ = ("_result", "_exception", "_callbacks", "_cancelled")

    #: A caller-owned future (a queue getter) is cancelled by whoever
    #: abandons it; a shared one is only detached from.
    _caller_owned = False

    def __init__(self) -> None:
        self._result: Any = _PENDING
        self._exception: BaseException | None = None
        #: None, a bare callable (the dominant single-waiter case — no
        #: list allocation), or a list of callables.
        self._callbacks: Any = None
        self._cancelled = False

    def done(self) -> bool:
        return self._result is not _PENDING or self._exception is not None

    def cancelled(self) -> bool:
        return self._cancelled

    def result(self) -> Any:
        if self._exception is not None:
            raise self._exception
        if self._result is _PENDING:
            raise SimulationError("future result accessed before completion")
        return self._result

    def exception(self) -> BaseException | None:
        return self._exception

    def set_result(self, value: Any) -> None:
        if self._result is not _PENDING or self._exception is not None:
            raise SimulationError("future already completed")
        self._result = value
        if self._callbacks is not None:
            self._run_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        if self._result is not _PENDING or self._exception is not None:
            raise SimulationError("future already completed")
        self._exception = exc
        if self._callbacks is not None:
            self._run_callbacks()

    def cancel(self) -> bool:
        """Complete the future with :class:`CancelledError` if still pending."""
        if self.done():
            return False
        self._cancelled = True
        self.set_exception(CancelledError())
        return True

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._result is not _PENDING or self._exception is not None:
            fn(self)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = fn
        elif type(callbacks) is list:
            callbacks.append(fn)
        else:
            self._callbacks = [callbacks, fn]

    def remove_done_callback(self, fn: Callable[["Future"], None]) -> int:
        """Detach ``fn``; returns how many registrations were removed."""
        callbacks = self._callbacks
        if callbacks is None:
            return 0
        if type(callbacks) is not list:
            if callbacks is fn:
                self._callbacks = None
                return 1
            return 0
        kept = [cb for cb in callbacks if cb is not fn]
        removed = len(callbacks) - len(kept)
        self._callbacks = kept or None
        return removed

    def _resolve(self, value: Any) -> None:
        """Complete a pending kernel-owned future (a sleep) from the event
        that dispatched it: no cascade is under that event, so the waiters
        run directly, without the depth accounting."""
        self._result = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if type(callbacks) is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)

    def _run_callbacks(self) -> None:
        global _cascade_depth
        callbacks = self._callbacks
        self._callbacks = None
        if _cascade_depth >= _CASCADE_LIMIT:
            # Too deep to run synchronously: spill to the outermost frame.
            # FIFO drain preserves the depth-first order for linear chains;
            # protocol runs never reach this depth (golden-digest test).
            _spilled.append((self, callbacks))
            return
        _cascade_depth += 1
        try:
            if type(callbacks) is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)
            if _cascade_depth == 1:
                while _spilled:
                    fut, spilled_cbs = _spilled.popleft()
                    if type(spilled_cbs) is list:
                        for fn in spilled_cbs:
                            fn(fut)
                    else:
                        spilled_cbs(fut)
        finally:
            _cascade_depth -= 1

    def __await__(self) -> Generator["Future", None, Any]:
        # Inlined done()/result(): this runs for every await in the sim.
        if self._result is _PENDING and self._exception is None:
            yield self
        exc = self._exception
        if exc is not None:
            try:
                raise exc
            finally:
                # The raise hangs this frame on exc.__traceback__; without
                # its two locals the frame no longer closes the loop
                # exception -> traceback -> frame -> future -> exception.
                del exc, self
        if self._result is _PENDING:
            raise SimulationError("future result accessed before completion")
        return self._result


#: A pre-completed future: ``await DONE`` resumes immediately without
#: yielding to the loop.  Shared safely — a done future never registers
#: callbacks.  Used for charges that cost nothing (crypto disabled).
DONE = Future()
DONE.set_result(None)


class Task(Future):
    """A coroutine being driven by the simulator.

    The task completes with the coroutine's return value (or exception).
    """

    __slots__ = ("_coro", "_sim", "_wake", "_awaiting", "_owner", "name")

    def __init__(self, sim: "Simulator", coro: Coroutine[Any, Any, Any], name: str = "") -> None:
        super().__init__()
        self._coro = coro
        self._sim = sim
        #: Bound (profiled or not) once, attached on every suspend.  It makes
        #: the task a self-cycle, so every way a task ends drops it again.
        self._wake = self._advance_profiled if sim._profiled else self._advance
        #: The future this task is suspended on (stale while it runs).
        self._awaiting: Future | None = None
        #: The live-task registry (``Node._tasks``) that owns this task,
        #: which the task leaves on every way it ends; set by ``Node.spawn``.
        self._owner: dict[Task, None] | None = None
        self.name = name or getattr(coro, "__name__", "task")
        sim._live_tasks += 1
        self._wake()

    def cancel(self) -> bool:
        """Throw :class:`CancelledError` into the coroutine."""
        if self.done():
            return False
        self._cancelled = True
        awaited = self._awaiting
        if awaited is not None:
            # Otherwise the future keeps this task, coroutine frame and
            # all, until it resolves — for a Signal nobody fires, forever.
            awaited.remove_done_callback(self._wake)
            if awaited._caller_owned:
                awaited.cancel()  # e.g. withdraw a queue getter from line
        try:
            self._coro.throw(CancelledError())
        except (CancelledError, StopIteration):
            pass
        self._wake = self._awaiting = None
        self._sim._live_tasks -= 1
        if self._owner is not None:
            self._owner.pop(self, None)
        if not self.done():
            self.set_exception(CancelledError())
        return True

    def _advance_profiled(self, woke: Any = None) -> None:
        if self._wake is None:
            return
        # The protocol-logic bucket: a coroutine's segments between suspends,
        # minus nested frames (cpu.spend, network.send, crypto.*).
        profiler = self._sim.instruments.profiler
        profiler.begin("task.step")
        try:
            self._advance(woke)
        finally:
            profiler.end()

    def _advance(self, woke: Any = None) -> None:
        # ``_wake``: the done-callback of an awaited future, or what a CPU
        # charge's completion record calls.  ``woke`` is what woke the task
        # and is sent into the coroutine: a future, which Future.__await__
        # ignores (it re-reads the outcome itself, so an exception surfaces
        # at the await site without being thrown in), or the charge's Cpu,
        # which Cpu.spend checks.
        if self._wake is None:  # finished or cancelled: a stale wake-up
            return
        coro = self._coro
        # Iterative trampoline: an awaited future that is already complete
        # resumes the coroutine in this same frame instead of recursing
        # through the callback chain.
        while True:
            try:
                awaited = coro.send(woke)
            except StopIteration as stop:
                self._wake = self._awaiting = None
                self._sim._live_tasks -= 1
                if self._owner is not None:
                    self._owner.pop(self, None)
                self.set_result(stop.value)
                return
            except BaseException as err:  # noqa: BLE001 - surfaced via the task
                self._wake = self._awaiting = None
                self._sim._live_tasks -= 1
                if self._owner is not None:
                    self._owner.pop(self, None)
                if isinstance(err, CancelledError):
                    self._cancelled = True
                self.set_exception(err)
                # This frame rides err.__traceback__, which the task now
                # holds: without ``self`` it no longer closes that loop.
                del self
                return
            if not isinstance(awaited, Future):
                if type(awaited) is tuple:
                    # A CPU charge, ``(cpu, cost)``, started here: nothing
                    # has run since Cpu.spend was called, so its completion
                    # record takes the seq a push from inside spend would.
                    awaited[0]._start(self._wake, awaited[1])
                    return
                raise SimulationError(
                    f"sim coroutines may only await sim futures and CPU "
                    f"charges, got {awaited!r}"
                )
            if awaited._result is _PENDING and awaited._exception is None:
                # add_done_callback, inlined: one registration per suspend.
                self._awaiting = awaited
                wake = self._wake
                callbacks = awaited._callbacks
                if callbacks is None:
                    awaited._callbacks = wake
                elif type(callbacks) is list:
                    callbacks.append(wake)
                else:
                    awaited._callbacks = [callbacks, wake]
                return
            woke = awaited


class EventHandle:
    """A cancellable scheduled callback (a slotted heap record).

    The handle *is* the event record: the heap stores ``(when, seq,
    handle)`` and the callback and its arguments live in slots here (the
    time only in the heap entry, so a pending timer costs 64 bytes).
    Cancellation tombstones the record in O(1) — the callback reference is
    dropped immediately and the entry is skipped when it reaches the top
    of the heap (or removed wholesale by compaction).
    """

    __slots__ = ("_fn", "_args", "_cancelled", "_sim")

    def __init__(self, sim: "Simulator", fn: Callable[..., None], args: tuple) -> None:
        self._fn: Callable[..., None] | None = fn
        self._args: tuple | None = args
        self._cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        if self._cancelled or self._fn is None:  # already cancelled or fired
            return
        self._cancelled = True
        self._fn = None
        self._args = None
        sim = self._sim
        sim._tombstones += 1
        if sim._tombstones > 64 and sim._tombstones * 2 > len(sim._queue):
            sim._compact()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Simulator:
    """Deterministic event loop over virtual time (seconds).

    ``partition_id`` marks this simulator as one logical partition of a
    space-parallel run (:mod:`repro.parallel`): every named RNG stream is
    then derived from ``(seed, partition_id, stream)`` so no two
    partitions ever share randomness, regardless of how partitions are
    packed onto worker processes.  ``None`` (the default) is the
    sequential kernel — stream derivation is byte-identical to what it
    has always been.
    """

    #: Whether a profiler is attached (see ``attach_profiler``): fixed per
    #: class, so a task picks its step with one attribute read.
    _profiled = False

    def __init__(self, seed: int = 0, partition_id: int | None = None) -> None:
        self.now: float = 0.0
        self.seed = seed
        #: Logical partition this simulator executes (None = sequential).
        self.partition_id = partition_id
        #: Prefix of every RNG stream key; partition-namespaced streams
        #: can never collide with the sequential form (or each other)
        #: because stream names are opaque suffixes of distinct prefixes.
        self._rng_prefix = (
            f"{seed}/" if partition_id is None else f"{seed}/p{partition_id}/"
        )
        self._queue: list[tuple] = []  # (when, seq, handle) | (when, seq, fn, args)
        self._seq = 0
        self._events_processed = 0
        self._tombstones = 0  # cancelled timer records still in the heap
        self._live_tasks = 0  # tasks created and not yet finished
        self._rngs: dict[str, random.Random] = {}
        #: The attached sinks (tracer, metrics registry, profiler) behind
        #: one seam, or None while nothing is attached: every instrumented
        #: site tests this once (see repro.sim.instruments).  Instruments
        #: never schedule events, draw RNG or charge CPU.
        self.instruments: Instruments | None = None

    def _instrumented(self) -> Instruments:
        if self.instruments is None:
            self.instruments = Instruments(self)
        return self.instruments

    def attach_tracer(self, tracer: Any) -> Any:
        """Install a :class:`repro.trace.Tracer`; returns it for chaining."""
        tracer.sim = self
        self._instrumented().tracer = tracer
        return tracer

    def attach_metrics(self, registry: Any) -> Any:
        """Install a :class:`repro.obs.registry.MetricsRegistry`; returns it."""
        self._instrumented().metrics = registry
        return registry

    def attach_profiler(self, profiler: Any) -> Any:
        """Install a :class:`repro.prof.Profiler`; returns it for chaining.

        Decided here, not per call: the scheduler switches to its framed
        variants and each task picks its step when created, so attaching
        while a task is live (it would go unattributed) is an error.
        """
        if self._live_tasks:
            raise SimulationError(
                f"attach the profiler before starting tasks ({self._live_tasks} live)"
            )
        self._instrumented().profiler = profiler
        self.__class__ = _ProfiledSimulator
        return profiler

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, stream: str) -> random.Random:
        """Return a named RNG stream, stable across runs for a given seed.

        On a partitioned simulator the stream key is derived from
        ``(seed, partition_id, stream)`` — see :meth:`rng_streams` and
        :func:`repro.parallel.partition.audit_rng_streams`.
        """
        rng = self._rngs.get(stream)
        if rng is None:
            rng = random.Random(self._rng_prefix + stream)
            self._rngs[stream] = rng
        return rng

    def rng_streams(self) -> dict[str, str]:
        """Every stream drawn so far, mapped to its full derivation key.

        The RNG-stream audit uses this to assert that a partitioned run
        never derives a stream outside its ``(seed, partition_id)``
        namespace.
        """
        return {stream: self._rng_prefix + stream for stream in self._rngs}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past ({when} < {self.now})")
        handle = EventHandle(self, fn, args)
        heappush(self._queue, (when, self._seq, handle))
        self._seq += 1
        return handle

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` simulated seconds."""
        # Inlined call_at without the past-check (now + max(0, delay) can
        # never be in the past).
        now = self.now
        when = now + delay if delay > 0.0 else now
        handle = EventHandle(self, fn, args)
        heappush(self._queue, (when, self._seq, handle))
        self._seq += 1
        return handle

    def _schedule(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule an event nobody can cancel (a charge, sleep or delivery):
        a bare record, no handle.  The caller keeps ``when >= now``."""
        heappush(self._queue, (when, self._seq, fn, args))
        self._seq += 1

    def create_task(self, coro: Coroutine[Any, Any, Any], name: str = "") -> Task:
        """Start driving a coroutine immediately (first step runs inline)."""
        return Task(self, coro, name=name)

    def sleep(self, delay: float) -> Future:
        """Awaitable that resolves ``delay`` simulated seconds from now."""
        fut = Future()
        now = self.now
        self._schedule(now + delay if delay > 0.0 else now, self._resolve_sleep, fut)
        return fut

    @staticmethod
    def _resolve_sleep(fut: Future) -> None:
        if fut._result is _PENDING and fut._exception is None:  # not cancelled
            fut._resolve(None)

    def _compact(self) -> None:
        """Drop tombstoned timers and restore the heap invariant.

        (when, seq) is a total order (seq is unique), so heapify after
        filtering pops the survivors in exactly the same order as lazy
        deletion would — compaction never perturbs a schedule.
        """
        self._queue[:] = [e for e in self._queue if len(e) == 4 or e[2]._fn is not None]
        heapify(self._queue)
        self._tombstones = 0

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def wait_for(self, awaitable: Awaitable[Any], timeout: float) -> Future:
        """Await with a deadline; raises :class:`SimTimeoutError` on expiry.

        On timeout, the inner future/task is cancelled only if the caller
        owned it: a coroutine (wrapped in a task here) or a caller-owned
        future such as a ``Queue.get()`` getter.  A bare
        :class:`Future` passed in may be shared with other waiters, so it is
        left untouched — the combinator merely detaches its callback.
        """
        owned = not isinstance(awaitable, Future) or awaitable._caller_owned
        inner = self.ensure_future(awaitable)
        outer = Future()

        def _done(fut: Future) -> None:
            timer.cancel()
            if outer.done():
                return
            exc = fut.exception()
            if exc is not None:
                outer.set_exception(exc)
            else:
                outer.set_result(fut.result())

        def _expire() -> None:
            if outer.done():
                return
            outer.set_exception(SimTimeoutError(f"timed out after {timeout}s"))
            if owned:
                inner.cancel()
            else:
                inner.remove_done_callback(_done)

        timer = self.call_later(timeout, _expire)
        inner.add_done_callback(_done)
        return outer

    def ensure_future(self, awaitable: Awaitable[Any]) -> Future:
        """Wrap any awaitable into a sim Future/Task."""
        if isinstance(awaitable, Future):
            return awaitable
        return self.create_task(awaitable)  # type: ignore[arg-type]

    def gather(
        self,
        awaitables: Iterable[Awaitable[Any]],
        return_exceptions: bool = False,
    ) -> Future:
        """Await all; resolves with the list of results, in order.

        With ``return_exceptions=False`` (default) the first member
        exception fails the gather immediately, and any still-pending
        members the caller owned (coroutines, queue getters) are cancelled
        so they cannot keep mutating protocol state behind the caller's
        back.  Bare futures passed in are shared with their owners and are
        never cancelled.

        With ``return_exceptions=True`` exceptions are collected into the
        result list in place of values and the gather always waits for
        every member — the mode fault-campaign code wants.
        """
        futures: list[Future] = []
        owned: list[bool] = []
        for a in awaitables:
            if isinstance(a, Future):
                futures.append(a)
                owned.append(a._caller_owned)
            else:
                futures.append(self.create_task(a))  # type: ignore[arg-type]
                owned.append(True)
        result = Future()
        remaining = len(futures)
        if remaining == 0:
            result.set_result([])
            return result
        values: list[Any] = [None] * remaining

        def _on_done(index: int, fut: Future) -> None:
            nonlocal remaining
            if result.done():
                return
            exc = fut.exception()
            if exc is not None and not return_exceptions:
                result.set_exception(exc)
                for j, member in enumerate(futures):
                    if owned[j] and not member.done():
                        member.cancel()
                return
            values[index] = exc if exc is not None else fut.result()
            remaining -= 1
            if remaining == 0:
                result.set_result(values)

        for i, fut in enumerate(futures):
            fut.add_done_callback(lambda f, i=i: _on_done(i, f))
        return result

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self._events_processed

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events until the queue drains, ``until``, or ``max_events``."""
        self._drain(until, max_events, None)

    def run_until_complete(self, awaitable: Awaitable[Any], max_events: int | None = None) -> Any:
        """Drive the loop until ``awaitable`` completes; return its result."""
        fut = self.ensure_future(awaitable)
        self._drain(None, max_events, fut)
        return fut.result()

    def _drain(
        self, until: float | None, max_events: int | None, fut: Future | None
    ) -> None:
        """The one dispatch loop behind :meth:`run` and :meth:`run_until_complete`.

        Stops when the next event is due after ``until``, when ``fut``
        completes, or when the queue drains — which is a deadlock if
        ``fut`` is still pending.  The ``max_events`` budget is checked
        *before* an event is popped: on exhaustion the offending event
        stays queued, so a caller that catches :class:`SimulationError`
        and resumes loses nothing.

        With a profiler attached the whole drain sits in a
        ``kernel.loop`` frame (its exclusive time is the heap-pop and
        bookkeeping overhead) and every dispatched callback in a frame
        classified by target (``cpu.finish``, ``network.deliver``,
        ``timer.sleep``, ``dispatch.<qualname>``).  Whether one is
        attached is read once, so an unprofiled run pays one local-bool
        test per event for sharing the loop.

        A timer record fires through its handle (a cancelled one is popped
        and uncounted from the tombstones); a bare record fires as is.

        The loop runs with the host's automatic cyclic collection paused
        and hands it back as it found it, however it exits (a nested
        drain finds it paused and leaves it paused); see ``COLLECT_EVERY``
        for the one collection it schedules itself.
        """
        profiled = self._profiled
        queue = self._queue
        pop = heappop
        collect_every = COLLECT_EVERY
        horizon = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        if profiled:
            profiler = self.instruments.profiler
            classify = profiler.classify
            begin = profiler.begin
            end = profiler.end
            begin("kernel.loop")
        with collector_paused():
            try:
                while queue and (fut is None or not fut.done()):
                    entry = queue[0]
                    when = entry[0]
                    if when > horizon:
                        break
                    if len(entry) == 4:  # an internal event: no handle
                        if self._events_processed >= budget:
                            raise SimulationError(f"exceeded max_events={max_events}")
                        pop(queue)
                        fn = entry[2]
                        args = entry[3]
                    else:
                        handle = entry[2]
                        fn = handle._fn
                        if fn is None:  # tombstoned (cancelled) timer
                            pop(queue)
                            self._tombstones -= 1
                            continue
                        if self._events_processed >= budget:
                            raise SimulationError(f"exceeded max_events={max_events}")
                        pop(queue)
                        args = handle._args
                        handle._fn = None  # mark fired; a late cancel() is a no-op
                        handle._args = None
                    self.now = when
                    self._events_processed += 1
                    if self._events_processed % collect_every == 0:
                        gc.collect(1)  # young generations only: see COLLECT_EVERY
                    if profiled:
                        begin(classify(fn))
                        try:
                            fn(*args)
                        finally:
                            end()
                    else:
                        fn(*args)
                if fut is not None and not fut.done():
                    raise SimulationError(
                        "deadlock: event queue drained but awaited future is pending"
                    )
                if until is not None:
                    self.now = max(self.now, until)  # never rewinds the clock
            finally:
                if profiled:
                    end()


def _heap_push_framed(method: Callable[..., Any]) -> Callable[..., Any]:
    """``method`` inside a ``kernel.heap_push`` attribution frame."""

    @wraps(method)
    def framed(self: Simulator, *args: Any) -> Any:
        profiler = self.instruments.profiler
        profiler.begin("kernel.heap_push")
        try:
            return method(self, *args)
        finally:
            profiler.end()

    return framed


class _ProfiledSimulator(Simulator):
    """A simulator with a profiler attached: one ``kernel.heap_push`` frame
    per push of either record shape (see ``attach_profiler``)."""

    _profiled = True

    call_at = _heap_push_framed(Simulator.call_at)
    call_later = _heap_push_framed(Simulator.call_later)
    _schedule = _heap_push_framed(Simulator._schedule)
