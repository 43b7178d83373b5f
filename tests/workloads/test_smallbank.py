"""Tests for the Smallbank workload."""

import random
from collections import Counter

from repro.workloads.smallbank import (
    MIX,
    SmallbankWorkload,
    checking_key,
    savings_key,
)

from tests.workloads.conftest import drive


def make_wl(**kw):
    defaults = dict(num_accounts=200, hot_accounts=10, hot_probability=0.9)
    defaults.update(kw)
    return SmallbankWorkload(**defaults)


def test_load_data_two_accounts_per_customer():
    wl = make_wl()
    data = dict(wl.genesis())
    assert len(data) == 400
    assert data[checking_key(0)] == 10_000
    assert data[savings_key(199)] == 10_000


def test_mix_sums_to_one():
    assert abs(sum(w for _, w in MIX) - 1.0) < 1e-9


def test_mix_frequencies_roughly_match(rng):
    wl = make_wl()
    counts = Counter(wl.next_transaction(rng).name for _ in range(4000))
    assert counts["smallbank/send_payment"] > counts["smallbank/balance"]
    for name, weight in MIX:
        share = counts[f"smallbank/{name}"] / 4000
        assert abs(share - weight) < 0.05


def test_hot_accounts_dominate(rng):
    wl = make_wl()
    touched = Counter()
    data = dict(wl.genesis())
    for _ in range(1500):
        session, _ = drive(wl.next_transaction(rng).body, data)
        for key in session.reads:
            account = int(key.split(":")[1])
            touched["hot" if account < 10 else "cold"] += 1
    hot_share = touched["hot"] / (touched["hot"] + touched["cold"])
    assert hot_share > 0.8


def test_send_payment_conserves_money(rng):
    wl = make_wl()
    data = dict(wl.genesis())
    initial_total = sum(data.values())
    for _ in range(300):
        task = wl.next_transaction(rng)
        if task.name != "smallbank/send_payment":
            continue
        drive(task.body, data)
    assert sum(data.values()) == initial_total


def test_amalgamate_zeroes_source(rng):
    wl = make_wl()
    data = dict(wl.genesis())
    done = 0
    for _ in range(500):
        task = wl.next_transaction(rng)
        if task.name != "smallbank/amalgamate":
            continue
        session, _ = drive(task.body, data)
        zeroed = [k for k, v in session.data.items() if k in session.data and v == 0]
        done += 1
        if done > 5:
            break
    assert done > 0
    assert any(v == 0 for v in data.values())


def test_deposit_increases_balance(rng):
    wl = make_wl()
    data = dict(wl.genesis())
    for _ in range(500):
        task = wl.next_transaction(rng)
        if task.name != "smallbank/deposit_checking":
            continue
        before = dict(data)
        drive(task.body, data)
        changed = [(k, v) for k, v in data.items() if before[k] != v]
        assert len(changed) == 1
        key, value = changed[0]
        assert key.startswith("checking:")
        assert value > before[key]
        return
    raise AssertionError("no deposit_checking sampled in 500 draws")
