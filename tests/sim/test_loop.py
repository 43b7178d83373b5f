"""Unit tests for the discrete-event simulator kernel."""

import sys

import pytest

from repro.errors import SimTimeoutError, SimulationError
from repro.prof.profiler import Profiler
from repro.sim.loop import CancelledError, Future, Simulator


@pytest.fixture(params=[False, True], ids=["unprofiled", "profiled"])
def loop_sim(request):
    """A simulator for the dispatch-loop semantics cases, profiler off and on.

    Both states run the same loop; the profiled one must also leave no
    attribution frame open, whichever way the loop was left.
    """
    sim = Simulator()
    if request.param:
        sim.attach_profiler(Profiler())
    yield sim
    _assert_frames_closed(sim)


def _assert_frames_closed(sim):
    if sim.instruments is not None:
        assert sim.instruments.profiler._stack == []


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_later_ordering():
    sim = Simulator()
    order = []
    sim.call_later(0.3, order.append, "c")
    sim.call_later(0.1, order.append, "a")
    sim.call_later(0.2, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == pytest.approx(0.3)


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("x", "y", "z"):
        sim.call_later(1.0, order.append, tag)
    sim.run()
    assert order == ["x", "y", "z"]


def test_cannot_schedule_into_past():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_cancel_scheduled_event():
    sim = Simulator()
    fired = []
    handle = sim.call_later(1.0, fired.append, 1)
    handle.cancel()
    sim.run()
    assert fired == []


def test_run_until_advances_clock_without_events(loop_sim):
    sim = loop_sim
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_run_until_in_the_past_does_not_rewind(loop_sim):
    sim = loop_sim
    fired = []
    sim.call_later(2.0, fired.append, 1)
    sim.call_later(4.0, fired.append, 2)
    sim.run(until=3.0)
    sim.run(until=1.0)  # earlier than now: a no-op, not a rewind
    assert sim.now == 3.0
    assert fired == [1]
    sim.run()
    assert sim.now == 4.0
    assert fired == [1, 2]


def test_run_until_does_not_fire_later_events(loop_sim):
    sim = loop_sim
    fired = []
    sim.call_later(2.0, fired.append, 1)
    sim.run(until=1.0)
    assert fired == []
    sim.run(until=3.0)
    assert fired == [1]


def test_sleep_resumes_at_right_time():
    sim = Simulator()

    async def main():
        await sim.sleep(0.25)
        return sim.now

    assert sim.run_until_complete(main()) == pytest.approx(0.25)


def test_nested_coroutines_and_return_values():
    sim = Simulator()

    async def inner(x):
        await sim.sleep(0.1)
        return x * 2

    async def outer():
        a = await inner(3)
        b = await inner(4)
        return a + b

    assert sim.run_until_complete(outer()) == 14
    assert sim.now == pytest.approx(0.2)


def test_task_exception_propagates():
    sim = Simulator()

    async def boom():
        await sim.sleep(0.1)
        raise ValueError("bang")

    with pytest.raises(ValueError, match="bang"):
        sim.run_until_complete(boom())


def test_future_single_assignment():
    fut = Future()
    fut.set_result(1)
    with pytest.raises(SimulationError):
        fut.set_result(2)


def test_future_result_before_done_raises():
    fut = Future()
    with pytest.raises(SimulationError):
        fut.result()


def test_future_callback_after_done_runs_immediately():
    fut = Future()
    fut.set_result(7)
    seen = []
    fut.add_done_callback(lambda f: seen.append(f.result()))
    assert seen == [7]


def test_gather_preserves_order():
    sim = Simulator()

    async def delayed(value, delay):
        await sim.sleep(delay)
        return value

    async def main():
        return await sim.gather([delayed("slow", 0.5), delayed("fast", 0.1)])

    assert sim.run_until_complete(main()) == ["slow", "fast"]


def test_gather_empty():
    sim = Simulator()

    async def main():
        return await sim.gather([])

    assert sim.run_until_complete(main()) == []


def test_wait_for_times_out():
    sim = Simulator()

    async def main():
        await sim.wait_for(Future(), timeout=0.5)

    with pytest.raises(SimTimeoutError):
        sim.run_until_complete(main())
    assert sim.now == pytest.approx(0.5)


def test_wait_for_success_cancels_timer():
    sim = Simulator()
    fut = Future()
    sim.call_later(0.1, fut.set_result, "ok")

    async def main():
        return await sim.wait_for(fut, timeout=10.0)

    assert sim.run_until_complete(main()) == "ok"
    sim.run()
    assert sim.now == pytest.approx(0.1)


def test_task_cancel():
    sim = Simulator()
    progress = []

    async def worker():
        progress.append("start")
        await sim.sleep(10.0)
        progress.append("end")

    task = sim.create_task(worker())
    sim.call_later(1.0, task.cancel)
    sim.run()
    assert progress == ["start"]
    assert task.cancelled()
    assert isinstance(task.exception(), CancelledError)


def test_deadlock_detection(loop_sim):
    sim = loop_sim

    async def stuck():
        await Future()

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(stuck())
    _assert_frames_closed(sim)


def test_rng_streams_deterministic_and_independent():
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    assert [a.rng("x").random() for _ in range(5)] == [b.rng("x").random() for _ in range(5)]
    c = Simulator(seed=42)
    assert c.rng("x").random() != c.rng("y").random()


def test_rng_different_seeds_differ():
    a = Simulator(seed=1)
    b = Simulator(seed=2)
    assert a.rng("x").random() != b.rng("x").random()


def test_awaiting_non_future_rejected():
    sim = Simulator()

    async def bad():
        await iter([1])  # type: ignore[arg-type]

    with pytest.raises((SimulationError, TypeError)):
        sim.run_until_complete(bad())


def test_max_events_guard(loop_sim):
    sim = loop_sim

    def reschedule():
        sim.call_later(0.001, reschedule)

    sim.call_later(0.0, reschedule)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)
    _assert_frames_closed(sim)


# ----------------------------------------------------------------------
# PR 3 regression tests: the three satellite bug fixes
# ----------------------------------------------------------------------
def test_wait_for_timeout_does_not_poison_shared_future():
    """A bare future passed to wait_for is left pending on timeout.

    Regression: the old combinator called ``inner.cancel()``
    unconditionally, completing a *shared* future with CancelledError for
    every other waiter.
    """
    sim = Simulator()
    shared = Future()
    other_result = []

    async def other_waiter():
        other_result.append(await shared)

    async def impatient():
        with pytest.raises(SimTimeoutError):
            await sim.wait_for(shared, timeout=0.1)

    sim.create_task(other_waiter())
    sim.create_task(impatient())
    sim.call_later(0.5, shared.set_result, "late-but-fine")
    sim.run()
    assert not shared.cancelled()
    assert other_result == ["late-but-fine"]


def test_wait_for_timeout_still_cancels_own_task():
    """A coroutine passed to wait_for *is* cancelled on timeout."""
    sim = Simulator()
    progress = []

    async def slow():
        progress.append("start")
        await sim.sleep(10.0)
        progress.append("end")

    async def main():
        with pytest.raises(SimTimeoutError):
            await sim.wait_for(slow(), timeout=0.1)

    sim.run_until_complete(main())
    sim.run()
    assert progress == ["start"]


def test_gather_fail_fast_cancels_created_siblings():
    """Regression: gather used to leak still-running sibling tasks after
    failing fast, letting them keep mutating state."""
    sim = Simulator()
    progress = []

    async def boom():
        await sim.sleep(0.1)
        raise ValueError("bang")

    async def slow_mutator():
        await sim.sleep(5.0)
        progress.append("mutated")

    async def main():
        with pytest.raises(ValueError, match="bang"):
            await sim.gather([boom(), slow_mutator()])

    sim.run_until_complete(main())
    sim.run()
    assert progress == []


def test_gather_fail_fast_leaves_shared_futures_alone():
    """Bare futures in a failed gather belong to their owners: no cancel."""
    sim = Simulator()
    shared = Future()

    async def boom():
        await sim.sleep(0.1)
        raise ValueError("bang")

    async def main():
        with pytest.raises(ValueError):
            await sim.gather([shared, boom()])

    sim.run_until_complete(main())
    assert not shared.done()
    shared.set_result("still usable")
    assert shared.result() == "still usable"


def test_gather_return_exceptions():
    sim = Simulator()

    async def ok():
        await sim.sleep(0.2)
        return "fine"

    async def boom():
        await sim.sleep(0.1)
        raise ValueError("bang")

    async def main():
        return await sim.gather([ok(), boom()], return_exceptions=True)

    results = sim.run_until_complete(main())
    assert results[0] == "fine"
    assert isinstance(results[1], ValueError)


def test_max_events_budget_checked_before_pop(loop_sim):
    """Regression: the N+1-th event used to be popped and silently lost
    when the guard raised; resuming must process it."""
    sim = loop_sim
    fired = []
    for i in range(5):
        sim.call_later(0.001 * (i + 1), fired.append, i)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=3)
    _assert_frames_closed(sim)
    assert fired == [0, 1, 2]
    sim.run()  # resume without a budget: nothing was lost
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_budget_in_run_until_complete(loop_sim):
    sim = loop_sim
    fired = []

    async def main():
        for i in range(5):
            await sim.sleep(0.001)
            fired.append(i)

    task = sim.create_task(main())
    with pytest.raises(SimulationError, match="max_events"):
        sim.run_until_complete(task, max_events=2)
    _assert_frames_closed(sim)
    assert fired == [0, 1]
    assert sim.run_until_complete(task) is None
    assert fired == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# PR 3: iterative trampoline and timer tombstoning
# ----------------------------------------------------------------------
def test_deep_chain_of_completed_futures():
    """>=10k tasks each awaiting the previous one's result must complete
    without RecursionError (the cascade is bounded and spills to a FIFO)."""
    sim = Simulator()
    n = 10_000

    async def relay(fut):
        return await fut + 1

    root = Future()
    prev = root
    for _ in range(n):
        prev = sim.create_task(relay(prev))
    last = prev
    sim.call_later(0.001, root.set_result, 0)
    sim.run()
    assert last.result() == n


def test_deep_sequential_awaits_in_one_coroutine():
    """One coroutine awaiting 10k futures completed back-to-back by a
    single callback must not accumulate stack: every wakeup fully unwinds
    before the completing loop resolves the next future."""
    sim = Simulator()
    futures = []

    def complete_all():
        for fut in futures:
            fut.set_result(1)

    async def main():
        total = 0
        for fut in futures:
            total += await fut
        return total

    futures.extend(Future() for _ in range(10_000))
    sim.call_later(0.001, complete_all)
    assert sim.run_until_complete(main()) == 10_000


def test_cancelled_timers_are_compacted():
    """Cancelling timers drops their callbacks immediately and keeps the
    heap from accumulating tombstones."""
    sim = Simulator()
    handles = [sim.call_later(10.0, (lambda: None)) for _ in range(1000)]
    for handle in handles:
        handle.cancel()
    # Compaction triggers once tombstones dominate; the heap must not
    # retain all 1000 dead entries.
    assert len(sim._queue) < 1000
    survivors = []
    sim.call_later(0.5, survivors.append, "live")
    sim.run()
    assert survivors == ["live"]
    assert all(h.cancelled for h in handles)


def test_pending_timer_is_a_64_byte_record():
    """A handle holds only the callback, its arguments, the cancel flag
    and the simulator; the time lives in the heap entry alone."""
    sim = Simulator()
    handle = sim.call_later(0.1, (lambda: None))
    assert not hasattr(handle, "__dict__")
    assert sys.getsizeof(handle) <= 64


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    handle = sim.call_later(0.1, fired.append, 1)
    sim.run()
    handle.cancel()  # must not tombstone-count or blow up
    assert fired == [1]
    assert sim._tombstones == 0


def test_remove_done_callback():
    fut = Future()
    seen = []
    cb = seen.append
    fut.add_done_callback(cb)
    assert fut.remove_done_callback(cb) == 1
    fut.set_result(1)
    assert seen == []


# ----------------------------------------------------------------------
# Two record shapes, the tombstone count, attach-time instruments
# ----------------------------------------------------------------------
def _dead_in_heap(sim):
    """Cancelled timer records still in the heap."""
    return sum(1 for entry in sim._queue if len(entry) == 3 and entry[2]._fn is None)


def test_tombstone_counter_counts_cancelled_entries_still_queued():
    """Popping a cancelled entry uncounts it, so "dead entries outnumber
    live ones" compares the heap's real contents."""
    sim = Simulator()
    early = [sim.call_later(0.001 * (i + 1), lambda: None) for i in range(10)]
    for handle in early[:6]:
        handle.cancel()
    assert sim._tombstones == _dead_in_heap(sim) == 6
    sim.run(until=0.0085)  # pops the six tombstones, fires two timers
    assert sim._tombstones == _dead_in_heap(sim) == 0
    late = [sim.call_later(1.0 + i * 1e-3, lambda: None) for i in range(300)]
    for handle in late[:200]:
        handle.cancel()
    assert len(sim._queue) < 302  # a compaction ran on the way
    assert sim._tombstones == _dead_in_heap(sim) > 0
    sim.run()
    assert sim._tombstones == _dead_in_heap(sim) == 0


@pytest.mark.parametrize("shape", ["handle", "bare"])
def test_max_events_leaves_either_record_shape_queued(loop_sim, shape):
    sim = loop_sim
    fired = []
    for i in range(3):
        sim.call_later(0.001 * (i + 1), fired.append, i)
    if shape == "handle":
        sim.call_later(0.01, fired.append, "next")
    else:
        sim._schedule(0.01, fired.append, "next")
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=3)
    _assert_frames_closed(sim)
    (entry,) = sim._queue
    assert len(entry) == (3 if shape == "handle" else 4)
    if shape == "handle":
        assert entry[2]._fn is not None  # not marked fired
    sim.run()
    assert fired == [0, 1, 2, "next"]


def test_sleep_and_charges_push_bare_records_timers_handles():
    from repro.sim.node import Cpu

    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    handle = sim.call_later(1.0, lambda: None)
    sim.sleep(0.5)

    async def charge():
        await cpu.spend(0.25)

    task = sim.create_task(charge())  # its first step starts the charge
    by_time = {entry[0]: entry for entry in sim._queue}
    assert len(by_time[0.25]) == len(by_time[0.5]) == 4  # (when, seq, fn, args)
    assert by_time[0.25] == (0.25, 2, cpu._finish, (task._wake, 0.25, 0.0))
    assert by_time[1.0][2] is handle  # (when, seq, handle)


def test_attach_profiler_frames_every_push():
    from repro.sim.node import Cpu

    sim = Simulator()
    profiler = sim.attach_profiler(Profiler())
    sim.call_later(0.1, lambda: None)
    sim.call_at(0.2, lambda: None)

    async def napper():
        await sim.sleep(0.3)
        await Cpu(sim, cores=1).spend(0.1)

    sim.create_task(napper())
    sim.run()
    table = profiler.table()
    assert table["kernel.heap_push"]["calls"] == sim._seq == 4
    assert table["task.step"]["calls"] == 3  # start, after sleep, after charge


def test_attach_profiler_with_live_tasks_is_an_error():
    """A task already running would step unattributed: refuse instead."""
    sim = Simulator()

    async def napper():
        await sim.sleep(1.0)

    sim.create_task(napper())
    with pytest.raises(SimulationError, match="before starting tasks"):
        sim.attach_profiler(Profiler())
    assert sim.instruments is None
    sim.run()
    assert sim._live_tasks == 0
    profiler = sim.attach_profiler(Profiler())  # nothing live any more
    sim.create_task(napper())
    sim.run()
    assert profiler.table()["task.step"]["calls"] == 2
