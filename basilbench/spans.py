"""Traced-pass spans recorded from the benchmark's side of the program.

The in-tree attribution table (``repro.prof``) leaves the protocol's
synchronous helpers inside its ``task.step`` bucket.  For the traced
pass only, this module wraps those public functions from outside ``src``:
each call becomes a frame of the run's own profiler (so exclusive times
still partition the wall clock) and a span ``(name, start, end, parent)``
kept in memory until the child writes them out.  Async entry points are
counted, not timed: their wall clock spans other tasks.

Nothing here runs in a timed pass, and nothing here can move a schedule:
the wrappers read the clock and call through.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Callable

import repro.prof.profiler as prof_module
from repro.core import mvtso
from repro.core.attestation import AttestationVerifier
from repro.core.certificates import CertValidator
from repro.core.system import BasilSystem  # also loads every module rebound below
from repro.crypto import digest
from repro.workloads.base import Workload

#: Spans of this process: (name, start, end, parent frame name or None).
SPANS: list[tuple[str, float, float, str | None]] = []

_profilers: list["_TrackedProfiler"] = []


class _TrackedProfiler(prof_module.Profiler):
    """The in-tree profiler, findable by the wrappers.

    A partitioned worker hosts several simulators, each with its own
    profiler; a wrapped call must open its frame on the one whose
    simulator is running, which is the one with frames open.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        _profilers.append(self)

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None


def _running() -> _TrackedProfiler | None:
    for profiler in _profilers:
        if profiler.current() is not None:
            return profiler
    # Set-up code (genesis load) runs before any frame is open.
    return _profilers[0] if _profilers else None


def _timed(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        profiler = _running()
        if profiler is None:
            return fn(*args, **kwargs)
        parent = profiler.current()
        profiler.begin(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            SPANS.append((name, start, perf_counter(), parent))
            profiler.end()

    return wrapper


def _counted(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        profiler = _running()
        if profiler is not None:
            profiler.add(name, 0.0)
        return fn(*args, **kwargs)

    return wrapper


def _rebind(original: Any, replacement: Any) -> None:
    """Point every ``from x import f`` binding of ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install() -> None:
    """Wrap the program's helpers; call once, before the system is built.

    Forked workers of a partitioned run inherit the wrappers, and their
    frames come back in the per-partition attribution tables.
    """
    prof_module.Profiler = _TrackedProfiler
    _rebind(mvtso.mvtso_check, _timed("core.mvtso_check", mvtso.mvtso_check))
    _rebind(digest.digest_of, _timed("crypto.digest", digest.digest_of))
    # Genesis load: drains Workload.iter_data into the replicas' stores.
    BasilSystem.load = _timed("workloads.genesis", BasilSystem.load)
    for cls in _subclasses(Workload):
        for method in ("next_transaction", "next_op"):
            if method in vars(cls):
                setattr(cls, method, _timed("workloads.next_txn", vars(cls)[method]))
    # CertValidator.validate only dispatches to the entries counted here.
    for cls, name, methods in (
        (CertValidator, "core.cert_validate",
         ("validate_commit", "validate_abort", "validate_conflict",
          "validate_vote_tally")),
        (AttestationVerifier, "core.attestation_verify",
         ("verify", "verify_quorum")),
    ):
        for method in methods:
            setattr(cls, method, _counted(name, vars(cls)[method]))
