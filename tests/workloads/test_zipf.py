"""Tests for the Zipfian and uniform generators."""

import hashlib
import random
import struct
from collections import Counter

import pytest

from repro.workloads.zipf import UniformGenerator, ZipfGenerator


def test_zipf_rejects_bad_params():
    with pytest.raises(ValueError):
        ZipfGenerator(0, 0.9)
    with pytest.raises(ValueError):
        ZipfGenerator(10, -1)


def test_zipf_samples_in_range():
    gen = ZipfGenerator(100, 0.9)
    rng = random.Random(1)
    assert all(0 <= gen.sample(rng) < 100 for _ in range(1000))


def test_zipf_is_skewed():
    gen = ZipfGenerator(1000, 0.99, scatter=False)
    rng = random.Random(1)
    counts = Counter(gen.sample(rng) for _ in range(20_000))
    top = counts.most_common(10)
    top_share = sum(c for _, c in top) / 20_000
    assert top_share > 0.3  # heavy head
    assert counts[0] > counts.get(500, 0)


def test_theta_zero_is_uniformish():
    gen = ZipfGenerator(10, 0.0, scatter=False)
    rng = random.Random(1)
    counts = Counter(gen.sample(rng) for _ in range(20_000))
    assert max(counts.values()) / min(counts.values()) < 1.3


def test_scatter_spreads_hot_keys():
    gen = ZipfGenerator(1000, 0.99, scatter=True)
    rng = random.Random(1)
    counts = Counter(gen.sample(rng) for _ in range(20_000))
    hottest = [k for k, _ in counts.most_common(5)]
    # hot keys are not clustered at the low end of the key space
    assert max(hottest) - min(hottest) > 50


def test_sample_distinct_unique():
    gen = ZipfGenerator(50, 0.9)
    rng = random.Random(1)
    for _ in range(100):
        drawn = gen.sample_distinct(rng, 10)
        assert len(set(drawn)) == 10


def test_sample_distinct_bounds():
    gen = ZipfGenerator(5, 0.9)
    with pytest.raises(ValueError):
        gen.sample_distinct(random.Random(1), 6)


def test_uniform_generator():
    gen = UniformGenerator(100)
    rng = random.Random(1)
    counts = Counter(gen.sample(rng) for _ in range(50_000))
    assert len(counts) == 100
    assert max(counts.values()) / min(counts.values()) < 1.7
    assert len(set(gen.sample_distinct(rng, 20))) == 20


def test_determinism_given_same_rng_seed():
    a = [ZipfGenerator(100, 0.9).sample(random.Random(7)) for _ in range(1)]
    b = [ZipfGenerator(100, 0.9).sample(random.Random(7)) for _ in range(1)]
    assert a == b


#: The pinned generators; ledger entry ``zipf/<n>-<theta>`` holds the
#: sha256 over the first 10 000 draws (``Random(2024)``, comma-joined) and
#: over the packed CDF, computed with the list-of-floats CDF this module
#: had before it packed its doubles into an ``array('d')``.
PINNED = ((10, 0.75), (10, 0.9), (10_000, 0.75), (10_000, 0.9))


@pytest.mark.parametrize("n,theta", PINNED)
def test_draws_are_bit_identical_to_the_list_cdf(n, theta, pin):
    gen = ZipfGenerator(n, theta)
    rng = random.Random(2024)
    draws = ",".join(str(gen.sample(rng)) for _ in range(10_000))
    packed = b"".join(struct.pack("<d", x) for x in gen._cdf)
    pin(f"zipf/{n}-{theta}", {
        "draws": hashlib.sha256(draws.encode()).hexdigest(),
        "cdf": hashlib.sha256(packed).hexdigest(),
    })
    # the reference arithmetic itself, in the same order
    weights = [1.0 / (i + 1) ** theta for i in range(n)]
    total, acc, cdf = sum(weights), 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    assert list(gen._cdf) == cdf
