"""Open-loop arrival processes.

A closed loop (``repro.bench``) can never push a system past saturation:
every in-flight transaction throttles the next one, so offered load
self-limits at capacity.  These processes decouple arrival times from
completion times — transactions arrive on a configured schedule whether
or not earlier ones finished — which is the only way to measure the
latency–throughput knee and what happens beyond it.

Determinism contract (mirrors ``repro.faults``): every sample is drawn
from the dedicated ``"load"`` RNG stream the generator passes in, so an
unconfigured load subsystem leaves protocol RNG streams — and therefore
run digests — byte-identical.
"""

from __future__ import annotations

import random

from repro.config import ArrivalConfig


class ArrivalProcess:
    """Base class: a stateful source of inter-arrival gaps.

    ``next_interarrival(rng, now)`` returns the simulated seconds until
    the next arrival.  Implementations must draw randomness only from
    ``rng`` and keep any modulation state internal, so one process
    instance replays identically under the same seed.
    """

    #: Mean offered rate (txns per simulated second), for reports.
    rate: float

    def next_interarrival(self, rng: random.Random, now: float) -> float:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals — exponential gaps with mean ``1/rate``."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate = rate

    def next_interarrival(self, rng: random.Random, now: float) -> float:
        return rng.expovariate(self.rate)


class UniformArrivals(ArrivalProcess):
    """Paced arrivals: gaps uniform in ``(1 ± spread) / rate``.

    ``spread=0`` is a perfect comb (constant spacing), the lowest-variance
    offered load a rate can have — useful to separate queueing caused by
    arrival burstiness from queueing caused by service-time variance.
    """

    def __init__(self, rate: float, spread: float = 0.5) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 <= spread < 1.0:
            raise ValueError("spread must be in [0, 1)")
        self.rate = rate
        self.spread = spread

    def next_interarrival(self, rng: random.Random, now: float) -> float:
        mean = 1.0 / self.rate
        if self.spread == 0.0:
            return mean
        return rng.uniform(mean * (1.0 - self.spread), mean * (1.0 + self.spread))


class BurstyArrivals(ArrivalProcess):
    """Two-state on/off MMPP (Markov-modulated Poisson process).

    The modulating chain alternates between an ON state offering
    ``peak_ratio * rate`` and an OFF state offering whatever keeps the
    long-run mean at ``rate``::

        off_rate = rate * (1 - peak_ratio * on_fraction) / (1 - on_fraction)

    State dwells are exponential with means ``cycle * on_fraction`` and
    ``cycle * (1 - on_fraction)``, so the time-average ON fraction is
    ``on_fraction`` and one ON+OFF cycle averages ``cycle`` seconds.
    Bursts stress admission control the way diurnal or flash-crowd
    traffic does: the same mean load, concentrated.
    """

    def __init__(
        self,
        rate: float,
        peak_ratio: float = 3.0,
        on_fraction: float = 0.3,
        cycle: float = 0.02,
    ) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        if peak_ratio <= 1.0:
            raise ValueError("peak_ratio must exceed 1")
        if not 0.0 < on_fraction < 1.0:
            raise ValueError("on_fraction must be in (0, 1)")
        if peak_ratio * on_fraction > 1.0:
            raise ValueError(
                "peak_ratio * on_fraction must be <= 1 (OFF rate would be negative)"
            )
        if cycle <= 0:
            raise ValueError("cycle must be positive")
        self.rate = rate
        self.on_rate = rate * peak_ratio
        self.off_rate = rate * (1.0 - peak_ratio * on_fraction) / (1.0 - on_fraction)
        self.mean_on_dwell = cycle * on_fraction
        self.mean_off_dwell = cycle * (1.0 - on_fraction)
        #: Modulation state: current phase and when it ends.  Dwell ends
        #: are sampled lazily from the same rng as the gaps, so replay is
        #: a pure function of the seed.
        self._on = False
        self._until = 0.0

    def _phase_rate(self, rng: random.Random, now: float) -> float:
        while now >= self._until:
            self._on = not self._on
            mean = self.mean_on_dwell if self._on else self.mean_off_dwell
            self._until = max(now, self._until) + rng.expovariate(1.0 / mean)
        return self.on_rate if self._on else self.off_rate

    def next_interarrival(self, rng: random.Random, now: float) -> float:
        # Exact MMPP sampling: draw at the current phase's rate, and if
        # the candidate lands past the phase boundary, jump to the
        # boundary and re-draw at the new rate — valid because the
        # exponential is memoryless.  (Drawing once and keeping a gap
        # that straddles the boundary would bias arrivals toward the
        # phase the gap *started* in.)  A zero-rate OFF state simply
        # skips to its boundary.
        t = now
        while True:
            rate = self._phase_rate(rng, t)
            if rate > 0.0:
                gap = rng.expovariate(rate)
                if t + gap <= self._until:
                    return (t + gap) - now
            t = self._until


def from_config(config: ArrivalConfig) -> ArrivalProcess:
    """Build the configured arrival process."""
    if config.process == "poisson":
        return PoissonArrivals(config.rate)
    if config.process == "uniform":
        return UniformArrivals(config.rate, spread=config.spread)
    if config.process == "bursty":
        return BurstyArrivals(
            config.rate,
            peak_ratio=config.peak_ratio,
            on_fraction=config.on_fraction,
            cycle=config.cycle,
        )
    raise ValueError(f"unknown arrival process {config.process!r}")
