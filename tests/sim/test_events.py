"""Tests for the queue / signal primitives."""

import gc
import weakref

import pytest

from repro.errors import SimTimeoutError
from repro.sim.events import Getter, Queue, Signal
from repro.sim.loop import Future, Simulator
from repro.sim.node import Node


def test_queue_put_then_get():
    sim = Simulator()
    q = Queue(sim)
    q.put(1)
    q.put(2)

    async def main():
        return [await q.get(), await q.get()]

    assert sim.run_until_complete(main()) == [1, 2]


def test_queue_get_blocks_until_put():
    sim = Simulator()
    q = Queue(sim)

    async def main():
        return await q.get()

    sim.call_later(0.5, q.put, "late")
    assert sim.run_until_complete(main()) == "late"
    assert sim.now == pytest.approx(0.5)


def test_queue_get_timeout_does_not_eat_next_put():
    """Regression (PR 3): a timed-out get must withdraw its reservation.

    The getter is caller-owned, so wait_for cancels it on timeout and the
    cancel takes it out of line: an item put after the timeout must reach
    the *next* get, not vanish into an abandoned one.
    """
    sim = Simulator()
    q = Queue(sim)
    received = []

    async def consumer():
        with pytest.raises(SimTimeoutError):
            await sim.wait_for(q.get(), timeout=0.1)
        # Message arrives while we are *not* waiting...
        await sim.sleep(0.2)
        # ...and must still be delivered to the next get.
        received.append(await sim.wait_for(q.get(), timeout=1.0))

    sim.call_later(0.2, q.put, "precious")
    sim.run_until_complete(consumer())
    assert received == ["precious"]
    assert len(q._getters) == 0


def test_queue_get_timeout_then_put_while_waiting():
    sim = Simulator()
    q = Queue(sim)
    received = []

    async def consumer():
        while len(received) < 2:
            try:
                received.append(await sim.wait_for(q.get(), timeout=0.05))
            except SimTimeoutError:
                continue

    sim.call_later(0.12, q.put, "a")
    sim.call_later(0.30, q.put, "b")
    sim.run_until_complete(consumer())
    assert received == ["a", "b"]


# ----------------------------------------------------------------------
# Getter futures: Queue.get() reserves in line when called, no task
# ----------------------------------------------------------------------
def test_get_with_an_item_waiting_is_already_complete():
    sim = Simulator()
    q = Queue(sim)
    q.put("ready")
    fut = q.get()
    assert fut.done() and fut.result() == "ready"
    assert len(q) == 0
    assert sim._live_tasks == 0


def test_get_on_an_empty_queue_reserves_in_line_at_once():
    sim = Simulator()
    q = Queue(sim)
    first, second = q.get(), q.get()  # registered now, never awaited yet
    assert isinstance(first, Getter) and not first.done()
    assert list(q._getters) == [first, second]
    q.put("a")
    q.put("b")
    assert (first.result(), second.result()) == ("a", "b")  # FIFO
    assert len(q._getters) == 0 and len(q) == 0


def test_cancelling_a_getter_withdraws_it_and_after_resolution_is_a_noop():
    sim = Simulator()
    q = Queue(sim)
    abandoned, kept = q.get(), q.get()
    assert abandoned.cancel()
    assert abandoned.cancelled() and list(q._getters) == [kept]
    q.put("x")
    assert kept.result() == "x"
    assert not kept.cancel()  # resolved: nothing to withdraw
    assert kept.result() == "x" and not kept.cancelled()
    q.put("y")
    assert len(q) == 1  # stored for the next get, not lost


def test_gather_over_getters():
    sim = Simulator()
    boxes = [Queue(sim) for _ in range(3)]
    boxes[1].put("early")

    async def main():
        return await sim.gather([box.get() for box in boxes])

    sim.call_later(0.1, boxes[2].put, "late")
    sim.call_later(0.2, boxes[0].put, "last")
    assert sim.run_until_complete(main()) == ["last", "early", "late"]


def test_gather_fail_fast_withdraws_its_getters():
    sim = Simulator()
    q = Queue(sim)
    failing = Future()

    async def main():
        with pytest.raises(KeyError):
            await sim.gather([q.get(), failing])

    sim.call_later(0.1, failing.set_exception, KeyError("boom"))
    sim.run_until_complete(main())
    assert len(q._getters) == 0
    q.put("kept")
    assert len(q) == 1


@pytest.mark.parametrize("timeout", [None, 5.0], ids=["bare-get", "wait_for"])
def test_crash_mid_wait_frees_the_handler(timeout):
    """A handler parked on a mailbox read is freed at once by a crash.

    Awaited bare, the task owns the getter and its cancel withdraws it;
    under wait_for the getter stays with the combinator until the timer
    cancels it.  Either way no item put later is lost.
    """
    sim = Simulator()
    node = Node(sim, "n0")
    q = Queue(sim)

    async def handler():
        get = q.get()
        await (get if timeout is None else sim.wait_for(get, timeout))

    node.spawn(handler())
    (task,) = node._tasks
    frame = weakref.ref(task._coro)
    del task
    gc.collect()
    gc.disable()
    try:
        node.crash()
        assert frame() is None  # freed by reference counting alone
    finally:
        gc.enable()
    sim.run()
    assert len(q._getters) == 0 and sim._live_tasks == 0
    q.put("after")
    assert len(q) == 1


def test_signal_wakes_all_waiters_with_value():
    sim = Simulator()
    signal = Signal()
    results = []

    async def waiter():
        results.append(await signal.wait())

    async def main():
        await sim.gather([waiter(), waiter(), waiter()])

    sim.call_later(0.2, signal.fire, "go")
    sim.run_until_complete(main())
    assert results == ["go", "go", "go"]


def test_signal_fires_once_first_value_wins():
    signal = Signal()
    signal.fire("first")
    signal.fire("second")
    assert signal.value == "first"


def test_signal_wait_after_fire_is_immediate():
    sim = Simulator()
    signal = Signal()
    signal.fire(42)

    async def main():
        return await signal.wait()

    assert sim.run_until_complete(main()) == 42
    assert sim.now == 0.0
