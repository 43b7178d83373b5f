"""The drivers' one retry loop (``Driver._issue``) against a stub system.

Every session's commit aborts (or its body raises ``ProtocolError``), so
each case shows the whole policy: how many attempts, what is recorded,
and how long the driver backs off between them.
"""

from types import SimpleNamespace

import pytest

from repro.bench.runner import MAX_RETRIES, Driver, ExperimentRunner
from repro.config import ArrivalConfig
from repro.errors import ProtocolError
from repro.load.generator import OpenLoopGenerator
from repro.sim.loop import Simulator
from repro.workloads.base import TxTask

ABORTED = SimpleNamespace(committed=False, fast_path=False)


class _StubSystem:
    """Just what the drivers call; every commit aborts."""

    def __init__(self, protocol_error: bool = False) -> None:
        self.sim = Simulator(seed=1)
        self.protocol_error = protocol_error
        self.attempts: list[float] = []  # sim time of each commit call

    def create_client(self):
        return SimpleNamespace(byzantine=False)

    def new_session(self, client):
        return self

    async def commit(self):
        self.attempts.append(self.sim.now)
        return ABORTED


def _task(system: _StubSystem) -> TxTask:
    async def body(session):
        if system.protocol_error:
            await system.sim.sleep(0.001)  # an event, so max_events bounds a loop
            raise ProtocolError("stub")

    return TxTask(name="stub/op", body=body)


def _closed_loop(system):
    # A window long enough that no attempt falls outside it and the end
    # time never cuts the retries short.
    return ExperimentRunner(system, workload=None, num_clients=1, duration=10.0, warmup=0.0)


def _open_loop(system):
    return OpenLoopGenerator(
        system, None, ArrivalConfig(rate=1.0), duration=10.0, warmup=0.0
    )


def _counts(monitor) -> dict[str, int]:
    return {
        name: monitor.counter(name).value
        for name in ("aborts", "gave_up", "protocol_errors", "commits")
    }


def _issue(driver, client) -> bool:
    sim = driver.system.sim
    task = _task(driver.system)
    return sim.run_until_complete(
        driver._issue(client, task, sim.rng("x"), 0.0, "t"), max_events=10_000
    )


def test_correct_client_retries_then_gives_up():
    system = _StubSystem()
    runner = _closed_loop(system)
    assert _issue(runner, system.create_client()) is False
    assert _counts(runner.monitor) == {
        "aborts": MAX_RETRIES + 1, "gave_up": 1, "protocol_errors": 0, "commits": 0,
    }
    gaps = [b - a for a, b in zip(system.attempts, system.attempts[1:])]
    assert len(gaps) == MAX_RETRIES
    assert max(gaps) <= 0.05  # the backoff cap
    # The backoff grows: the later sleeps are drawn from a wider range.
    assert sum(gaps[-10:]) > sum(gaps[:10])


def test_byzantine_client_is_not_retried():
    system = _StubSystem()
    runner = _closed_loop(system)
    assert _issue(runner, SimpleNamespace(byzantine=True)) is False
    assert _counts(runner.monitor) == {
        "aborts": 1, "gave_up": 0, "protocol_errors": 0, "commits": 0,
    }
    assert len(system.attempts) == 1


def test_protocol_error_is_recorded_and_not_retried():
    system = _StubSystem(protocol_error=True)
    runner = _closed_loop(system)
    assert _issue(runner, system.create_client()) is False
    assert _counts(runner.monitor) == {
        "aborts": 0, "gave_up": 0, "protocol_errors": 1, "commits": 0,
    }
    assert system.attempts == []


@pytest.mark.parametrize("protocol_error", [False, True])
def test_open_loop_generator_gets_the_same_counts(protocol_error):
    assert OpenLoopGenerator._issue is ExperimentRunner._issue is Driver._issue
    closed_system = _StubSystem(protocol_error)
    runner = _closed_loop(closed_system)
    _issue(runner, closed_system.create_client())

    system = _StubSystem(protocol_error)
    gen = _open_loop(system)
    gen.in_flight = 1  # as _admit leaves it
    system.sim.run_until_complete(
        gen._execute(system.create_client(), _task(system), 0.0), max_events=10_000
    )
    assert _counts(gen.monitor) == _counts(runner.monitor)
    assert len(system.attempts) == len(closed_system.attempts)
    assert gen.in_flight == 0
