"""CPU charges: awaited inside a task, started by it, woken by their record.

A charge is no future.  ``await cpu.spend(cost)`` hands ``(cpu, cost)``
to the awaiting task, the task starts it on the CPU's FIFO at once, and
the completion record wakes the task directly.  Cancelling the task
never frees the core early: the work item runs its full cost, the next
queued charge starts when it always did, and the completion's wake-up
finds the task gone and does nothing.
"""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim.loop import Simulator
from repro.sim.node import Cpu, LoadSignal


@pytest.fixture
def collector_off():
    """Only reference counting frees anything while the test body runs."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _charging(sim, cpu, cost, log, label):
    async def work():
        await cpu.spend(cost)
        log.append((label, sim.now))

    return sim.create_task(work())


@pytest.mark.parametrize("victim", ["running", "queued"])
def test_cancelled_charge_keeps_its_core_and_the_fifo(victim, collector_off):
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    log = []
    tasks = {
        label: _charging(sim, cpu, cost, log, label)
        for label, cost in (("running", 1.0), ("queued", 0.5), ("last", 0.25))
    }
    cancelled = tasks.pop(victim)
    frame = weakref.ref(cancelled._coro)
    sim.call_later(0.2, cancelled.cancel)
    sim.run()

    assert cancelled.cancelled()
    # The core stays busy for the cancelled item's full cost, so every
    # other charge starts and ends exactly when it would have; the stale
    # wake-up resumed nothing.
    ends = {"running": 1.0, "queued": 1.5, "last": 1.75}
    del ends[victim]
    assert log == list(ends.items())
    assert sim.now == cpu.busy_time == 1.75
    assert cpu.signal() == LoadSignal(queue_depth=0, busy_cores=0, cores=1,
                                      busy_time=1.75)
    # Once its record has fired, nothing keeps the cancelled coroutine.
    del cancelled, tasks
    assert frame() is None


def test_charges_queue_fifo_across_cores():
    sim = Simulator()
    cpu = Cpu(sim, cores=2)
    log = []
    for label, cost in enumerate((1.0, 1.0, 0.5, 0.25)):
        _charging(sim, cpu, cost, log, label)
    sim.run()
    # Two start at once; at 1.0 the first completion starts the third
    # item and the second completion the fourth.
    assert log == [(0, 1.0), (1, 1.0), (3, 1.25), (2, 1.5)]


def test_a_charge_resumed_outside_a_task_says_so():
    sim = Simulator()
    cpu = Cpu(sim, cores=1)

    async def handler():
        await cpu.spend(1.0)

    coro = handler()
    assert coro.send(None) == (cpu, 1.0)  # handed to whoever drives it
    with pytest.raises(SimulationError, match="awaited inside a sim task"):
        coro.send(None)  # resumed without having run
    assert not sim._queue


def test_a_charge_handed_to_the_simulator_runs_in_a_task():
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    assert sim.run_until_complete(cpu.spend(0.5)) is None
    assert sim.now == 0.5 and cpu.busy_time == 0.5

