"""Unit tests for deterministic result merging."""

from __future__ import annotations

from repro.parallel.merge import combine_digests


def test_combine_digests_is_order_independent():
    digests = {0: "aaa", 1: "bbb", 2: "ccc"}
    shuffled = {2: "ccc", 0: "aaa", 1: "bbb"}
    assert combine_digests(digests) == combine_digests(shuffled)


def test_combine_digests_sensitive_to_content_and_placement():
    base = combine_digests({0: "aaa", 1: "bbb"})
    assert combine_digests({0: "aaa", 1: "xxx"}) != base
    # the same digests on different partitions is a different run
    assert combine_digests({0: "bbb", 1: "aaa"}) != base
