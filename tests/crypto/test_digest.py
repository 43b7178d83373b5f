"""Tests for canonical encoding and digests."""

import hashlib
import platform
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.digest import canonical_encode, digest_of, sha256, short_hex
from repro.crypto.merkle import _LEAF_PREFIX, _NODE_PREFIX


def test_equal_values_equal_digest():
    assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})


def test_different_values_differ():
    assert digest_of([1, 2]) != digest_of([2, 1])
    assert digest_of("a") != digest_of(b"a")
    assert digest_of(1) != digest_of(1.0)
    assert digest_of(None) != digest_of(0)
    assert digest_of(True) != digest_of(1)


def test_no_concatenation_ambiguity():
    # ("ab", "c") must not collide with ("a", "bc")
    assert canonical_encode(("ab", "c")) != canonical_encode(("a", "bc"))
    assert canonical_encode([["a"], []]) != canonical_encode([[], ["a"]])


def test_sets_are_order_independent():
    assert digest_of({3, 1, 2}) == digest_of({1, 2, 3})


def test_dataclass_encoding():
    @dataclass(frozen=True)
    class Point:
        x: int
        y: int

    assert digest_of(Point(1, 2)) == digest_of(Point(1, 2))
    assert digest_of(Point(1, 2)) != digest_of(Point(2, 1))


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        canonical_encode(object())


def test_digest_is_32_bytes():
    assert len(digest_of("x")) == 32


def test_short_hex():
    d = digest_of("x")
    assert short_hex(d) == d.hex()[:8]


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(json_like)
def test_encoding_deterministic(value):
    assert canonical_encode(value) == canonical_encode(value)


@given(json_like, json_like)
def test_encoding_injective_on_samples(a, b):
    if canonical_encode(a) == canonical_encode(b):
        assert a == b or (a in (True, 1) and b in (True, 1))


def _hash_inputs():
    encodings = [canonical_encode(obj) for obj in (
        None, 7, "key", b"\x00" * 70, [1, "a", b"b"], {"k": (1, 2)}, {3, 1},
    )]
    left, right = digest_of("left"), digest_of("right")
    return encodings + [_LEAF_PREFIX + left, _NODE_PREFIX + left + right]


def test_sha256_matches_hashlib_one_shot_and_incremental():
    inputs = _hash_inputs()
    for data in inputs:
        assert sha256(data).digest() == hashlib.sha256(data).digest()
        assert sha256(bytearray(data)).hexdigest() == hashlib.sha256(data).hexdigest()
    ours, theirs = sha256(), hashlib.sha256()
    for data in inputs:
        ours.update(data)
        theirs.update(data)
    assert ours.digest() == theirs.digest()


@pytest.mark.skipif(
    platform.python_implementation() != "CPython", reason="CPython's built-in hashes"
)
def test_sha256_is_cpythons_builtin():
    assert sha256.__module__ in ("_sha2", "_sha256")
