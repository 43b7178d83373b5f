"""Synchronization primitives for sim coroutines.

These mirror the small subset of ``asyncio`` primitives the protocols
need: an unbounded queue (mailboxes) and a one-shot signal.  The CPU
model is a callback chain of its own (:class:`repro.sim.node.Cpu`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.loop import Future, Simulator


class Getter(Future):
    """A single-use place in a :class:`Queue`'s line, owned by its caller:
    cancelling it withdraws it, so no ``put`` lands where nobody waits."""

    __slots__ = ("_line", "__weakref__")

    _caller_owned = True

    def __init__(self, line: Deque["Getter"]) -> None:
        super().__init__()
        self._line = line

    def cancel(self) -> bool:
        if self.done():
            return False
        self._line.remove(self)
        return super().cancel()


class Queue:
    """Unbounded FIFO queue; ``get`` suspends while empty."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Getter] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        getters = self._getters
        if getters:
            getters.popleft().set_result(item)
        else:
            self._items.append(item)

    def get(self) -> Future:
        """The next item: a completed future if one is waiting, else a
        :class:`Getter` put in line now (``wait_for`` cancels it on timeout)."""
        if self._items:
            fut = Future()
            fut._result = self._items.popleft()
            return fut
        getter = Getter(self._getters)
        self._getters.append(getter)
        return getter


class Signal:
    """A one-shot event that many coroutines can wait on."""

    __slots__ = ("_fired", "_value", "_waiters")

    def __init__(self) -> None:
        self._fired = False
        self._value: Any = None
        self._waiters: list[Future] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        return self._value

    def fire(self, value: Any = None) -> None:
        """Wake all current and future waiters with ``value``.

        Firing twice is a no-op (the first value wins), which is the
        behaviour protocol code wants for "decision reached" signals.
        """
        if self._fired:
            return
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            if not fut.done():
                fut.set_result(value)

    def wait(self) -> Future:
        fut = Future()
        if self._fired:
            fut.set_result(self._value)
        else:
            self._waiters.append(fut)
        return fut
