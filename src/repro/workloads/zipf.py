"""Zipfian sampling over a fixed population.

Precomputes the cumulative distribution once (O(n) setup, 8 bytes per
item) and samples by binary search; ranks are scattered over the key
space with a multiplier permutation so that "hot" items are not adjacent
keys.
"""

from __future__ import annotations

import bisect
import random
from array import array
from itertools import accumulate


class ZipfGenerator:
    """Draws integers in [0, n) with P(rank i) proportional to 1/(i+1)^theta."""

    def __init__(self, n: int, theta: float, scatter: bool = True) -> None:
        if n < 1:
            raise ValueError("population must be >= 1")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n = n
        self.theta = theta
        # Packed doubles, not lists of float objects: 80 MB instead of
        # 640 MB at the paper's 10 M keys.  Left-to-right sums throughout,
        # so every CDF entry (and hence every draw) is bit-for-bit what a
        # plain ``acc += w / total`` loop over a list produces.
        weights = array("d", (1.0 / (i + 1) ** theta for i in range(n)))
        total = sum(weights)
        self._cdf = array("d", accumulate(w / total for w in weights))
        self._cdf[-1] = 1.0
        # multiplicative scatter: map rank -> (rank * step + offset) % n
        # with step coprime to n, so popularity is spread across keys.
        if scatter and n > 2:
            self._step = self._coprime_step(n)
            self._offset = 7 % n
        else:
            self._step = 1
            self._offset = 0

    @staticmethod
    def _coprime_step(n: int) -> int:
        import math

        step = max(3, int(n * 0.618))
        while math.gcd(step, n) != 1:
            step += 1
        return step

    def sample(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self._cdf, rng.random())
        return (rank * self._step + self._offset) % self.n

    def sample_distinct(self, rng: random.Random, count: int) -> list[int]:
        """Draw ``count`` distinct items (count must be << n)."""
        if count > self.n:
            raise ValueError("cannot draw more distinct items than population")
        chosen: list[int] = []
        seen: set[int] = set()
        while len(chosen) < count:
            item = self.sample(rng)
            if item not in seen:
                seen.add(item)
                chosen.append(item)
        return chosen


class UniformGenerator:
    """Uniform sampling with the same interface as ZipfGenerator."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("population must be >= 1")
        self.n = n

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.n)

    def sample_distinct(self, rng: random.Random, count: int) -> list[int]:
        if count > self.n:
            raise ValueError("cannot draw more distinct items than population")
        return rng.sample(range(self.n), count)
