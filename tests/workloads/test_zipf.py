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


#: sha256 over the first 10 000 draws (``Random(2024)``, comma-joined) and
#: over the packed CDF, computed with the list-of-floats CDF this module
#: had before it packed its doubles into an ``array('d')``.
PINNED = {
    (10, 0.75): ("991873a2c45de0ffd108ea3cd345567ac8b9ee25285dc69c70b1f25ba8eaa6a6",
                 "f3ae443dd500554be9974e7fbccda5d57cb55e1027df943ad92e800c9b5f1a7e"),
    (10, 0.9): ("cdf72ab0cc1bf92c730676a54498d864df63424d9843cabce1c1ce8bb6aa77ec",
                "b0d576b108dab73c26dbb3553b591e8ca76e2ea5b6556b76e100f331416e5c8f"),
    (10_000, 0.75): ("cbd27b2d1260384789314a1c91a6c54e74b9e7806a6faa23781ff72421aaf6eb",
                     "08240b46e3e34c051966247cdbfab9a3b22afa9c58225225641eb17696222864"),
    (10_000, 0.9): ("ebe22552bd4aab8e7028b081b63593f2f176ec843c2d42ce80fc6e0d55f0c11d",
                    "f0be8eb367eaf3421c9d8f140a93ee2c73194517456b9dcd8a7e3171a4eb906c"),
}


@pytest.mark.parametrize("n,theta", sorted(PINNED))
def test_draws_are_bit_identical_to_the_list_cdf(n, theta):
    gen = ZipfGenerator(n, theta)
    rng = random.Random(2024)
    draws = ",".join(str(gen.sample(rng)) for _ in range(10_000))
    packed = b"".join(struct.pack("<d", x) for x in gen._cdf)
    assert (
        hashlib.sha256(draws.encode()).hexdigest(),
        hashlib.sha256(packed).hexdigest(),
    ) == PINNED[n, theta]
    # the reference arithmetic itself, in the same order
    weights = [1.0 / (i + 1) ** theta for i in range(n)]
    total, acc, cdf = sum(weights), 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    assert list(gen._cdf) == cdf
