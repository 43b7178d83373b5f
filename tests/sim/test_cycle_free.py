"""The kernel leaves the host's cyclic collector nothing to find.

docs/simulation.md, "Host memory management": kernel objects form no
reference cycles once they are finished, the dispatch loop runs with
automatic collection paused, and one young-generation collection every
``COLLECT_EVERY`` events is the safety net for cycles built elsewhere.

(a) whole runs produce (next to) no cyclic garbage; (b) the safety net
bounds what cycle-building callbacks can pile up, on no simulated time;
(c) what the send-only wake path and the detaching cancel must keep.
The queue-getter withdrawal and the 10k-deep result chain are pinned in
test_events.py / test_loop.py already.
"""

import gc
import traceback
import weakref

import pytest

import repro.sim.loop as loop
from repro.config import SystemConfig
from repro.core.system import BasilSystem
from repro.errors import SimTimeoutError
from repro.faults.campaign import make_config
from repro.faults.scenarios import SCENARIOS, Scale
from repro.run import ModelSpec, SequentialRun
from repro.sim.events import Queue, Signal
from repro.sim.loop import CancelledError, Future, Simulator

#: A constant, not a share of the events run: a leak of one object per
#: message cannot hide under it.  The parent of this file's commit left
#: 20 000 - 70 000 unreachable objects on each of these runs.
MAX_UNREACHABLE = 64


@pytest.fixture
def collector_off():
    """Only reference counting frees anything while the test body runs."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


# ---------------------------------------------------------------------------
# (a) whole runs
# ---------------------------------------------------------------------------
def _system_spec(kind: str, instruments: bool) -> ModelSpec:
    return ModelSpec(
        kind=kind,
        config=SystemConfig(f=1, num_shards=1, seed=7),
        workload_keys=300,
        num_clients=6,
        duration=0.04,
        warmup=0.005,
        trace=instruments,
        obs=instruments,
        prof=instruments,
    )


def _fault_spec(scenario_name: str) -> ModelSpec:
    """One quick-scale Basil case of the fault campaign's matrix."""
    scenario, scale = SCENARIOS[scenario_name], Scale.quick()
    return ModelSpec(
        kind="basil",
        config=make_config(1, scenario.config_overrides),
        workload="ycsb-z",
        workload_keys=scale.keys,
        num_clients=scale.clients,
        duration=scale.duration,
        warmup=scale.warmup,
        fault_schedule=scenario.schedule(1, scale),
        drain=scenario.liveness.drain,
    )


RUNS = {
    **{
        f"{kind}-{'instrumented' if on else 'bare'}": _system_spec(kind, on)
        for kind in ("basil", "tapir", "txsmr", "txsmr-hotstuff")
        for on in (False, True)
    },
    # Timeouts, cancels, dependency waits and recoveries.
    "zipf-stall-late": ModelSpec(
        kind="basil",
        config=SystemConfig(f=1, num_shards=1, seed=7),
        workload="ycsb-z",
        workload_keys=300,
        num_clients=10,
        duration=0.08,
        warmup=0.01,
        trace=False,
        byz_client_behaviour="stall-late",
        byz_client_count=3,
    ),
    "crash-restart": _fault_spec("crash-restart"),
    "byz-replica-equivocate": _fault_spec("byz-replica-equivocate"),
}


@pytest.mark.parametrize("name", RUNS)
def test_a_run_leaves_no_cyclic_garbage(name, collector_off):
    run = SequentialRun(RUNS[name])  # kept alive: teardown is not the claim
    run.start()
    gc.collect()
    result = run.run_prepared()
    assert result.events > 1_000
    assert gc.collect() < MAX_UNREACHABLE


# ---------------------------------------------------------------------------
# (b) the safety net
# ---------------------------------------------------------------------------
class _Knot:
    """The bug the safety net is for: garbage only the collector frees."""

    def __init__(self):
        self.me = self


def _knotted_run(events: int = 20_000, sample_every: int = 500):
    """One self-rescheduling timer that ties a knot per event; returns the
    fire times and the most knots seen alive at any sample."""
    sim = Simulator()
    knots: list[weakref.ref] = []
    fired: list[float] = []
    peak = 0

    def fire():
        nonlocal peak
        knots.append(weakref.ref(_Knot()))
        fired.append(sim.now)
        if len(fired) % sample_every == 0:
            peak = max(peak, sum(ref() is not None for ref in knots))
        if len(fired) < events:
            sim.call_later(1e-3, fire)

    sim.call_later(1e-3, fire)
    sim.run()
    assert sim.events_processed == events
    return fired, peak


def test_safety_net_bounds_cycles_built_per_event(monkeypatch, collector_off):
    unswept, unswept_peak = _knotted_run()
    assert unswept_peak == 20_000  # the default period never came due

    monkeypatch.setattr(loop, "COLLECT_EVERY", 1024)
    swept, swept_peak = _knotted_run()
    assert swept_peak <= 2 * 1024
    # Collections happen on no simulated time and move no event.
    assert swept == unswept


# ---------------------------------------------------------------------------
# (c) semantics of the wake path and of cancel
# ---------------------------------------------------------------------------
def test_exception_on_awaited_future_surfaces_at_the_await():
    sim = Simulator()
    fut = Future()
    seen = []

    async def waiter():
        try:
            await fut
        except KeyError as exc:
            seen.append(exc)
            return "handled"

    task = sim.create_task(waiter())
    failure = KeyError("late")
    sim.call_later(1.0, fut.set_exception, failure)
    sim.run()
    assert task.result() == "handled"
    assert seen == [failure]


def test_exception_cascades_down_a_deep_chain():
    """The ``_CASCADE_LIMIT`` spill, for exceptions: each relay re-reads
    the failure from the future it awaited, 10k tasks deep."""
    sim = Simulator()
    root = Future()
    prev = root
    for _ in range(10_000):

        async def relay(fut=prev):
            return await fut + 1

        prev = sim.create_task(relay())
    sim.call_later(1.0, root.set_exception, KeyError("root"))
    sim.run()
    assert isinstance(prev.exception(), KeyError)


def test_cancel_mid_await_runs_finally_and_detaches(collector_off):
    sim = Simulator()
    signal = Signal()
    log = []

    async def waiter():
        try:
            await signal.wait()
        finally:
            log.append("cleanup")

    task = sim.create_task(waiter())
    frame = weakref.ref(task._coro)
    assert task.cancel()
    assert log == ["cleanup"]
    assert task.cancelled() and isinstance(task.exception(), CancelledError)
    # The signal nobody fires holds a bare future, not the task behind it.
    assert all(fut._callbacks is None for fut in signal._waiters)
    del task
    assert frame() is None
    signal.fire("late")  # and waking that future resumes nothing
    assert log == ["cleanup"]


def test_wait_for_timeout_frees_the_timed_out_getter(collector_off):
    """The getter is withdrawn from line, cancelled, and then freed."""
    sim = Simulator()
    queue = Queue(sim)
    getters = []

    async def consumer():
        get = queue.get()
        getters.append(weakref.ref(get))
        try:
            await sim.wait_for(get, timeout=0.1)
        except SimTimeoutError:
            del get
            return "timed out"

    assert sim.run_until_complete(consumer()) == "timed out"
    assert len(queue._getters) == 0
    assert getters[0]() is None


def test_crashed_replica_frees_its_dependency_wait(collector_off):
    """A handler parked on the decision of a transaction that is never
    decided used to stay reachable from that signal for the rest of the
    run, cancelled or not."""
    system = BasilSystem(SystemConfig(f=1, num_shards=1))
    replica = system.replicas["s0/r0"]
    dependency, dependent = b"\x01" * 32, b"\x02" * 32
    waited_on = replica.state_of(dependency)
    task = replica.spawn(
        replica._await_dependencies(replica.state_of(dependent), (dependency,))
    )
    assert replica.prepares_waiting == 1 and not task.done()
    undecided = waited_on.decision_signal  # made by the wait
    frame = weakref.ref(task._coro)
    del task

    replica.crash()
    assert replica.prepares_waiting == 0  # its finally ran
    assert frame() is None  # freed at once, by reference count alone
    assert not undecided.fired


def test_failing_handler_traceback_names_the_protocol_frame():
    sim = Simulator()

    async def verify_certificate():
        await sim.sleep(1.0)
        raise ValueError("bad certificate")

    async def handle_message():
        await verify_certificate()

    task = sim.create_task(handle_message())
    sim.run()
    text = "".join(traceback.format_exception(task.exception()))
    assert "in handle_message" in text and "in verify_certificate" in text
    # ... and the same through a future another task awaits.
    with pytest.raises(ValueError) as info:
        sim.run_until_complete(_await(task))
    text = "".join(traceback.format_exception(info.value))
    assert "in verify_certificate" in text


async def _await(fut):
    return await fut
