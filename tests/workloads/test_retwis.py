"""Tests for the Retwis workload."""

from collections import Counter

from repro.workloads.retwis import MIX, RetwisWorkload, follows_key, posts_key, user_key

from tests.workloads.conftest import drive


def make_wl():
    return RetwisWorkload(num_users=200)


def test_load_data_shape():
    wl = make_wl()
    data = wl.genesis()
    assert user_key(0) in data
    assert follows_key(199) in data
    assert data[user_key(5)]["seq"] == 1


def test_mix_distribution(rng):
    wl = make_wl()
    counts = Counter(wl.next_transaction(rng).name for _ in range(4000))
    assert counts["retwis/load_timeline"] > counts["retwis/post_tweet"]
    for name, weight in MIX:
        share = counts[f"retwis/{name}"] / 4000
        assert abs(share - weight) < 0.05


def test_post_tweet_appends_and_bumps_seq(rng):
    wl = make_wl()
    data = wl.genesis()
    for _ in range(200):
        task = wl.next_transaction(rng)
        if task.name != "retwis/post_tweet":
            continue
        before = {k: v for k, v in data.items()}
        session, _ = drive(task.body, data)
        authors = [
            k for k in session.writes if k.startswith("user:")
        ] if session.writes else []
        # find the author whose seq was bumped
        bumped = [
            k for k, v in data.items()
            if k.startswith("user:") and before[k]["seq"] + 1 == v["seq"]
        ]
        assert bumped
        return
    raise AssertionError("no post_tweet sampled")


def test_follow_adds_followee(rng):
    wl = make_wl()
    data = wl.genesis()
    for _ in range(300):
        task = wl.next_transaction(rng)
        if task.name != "retwis/follow":
            continue
        before = {k: list(v) for k, v in data.items() if k.startswith("follows:")}
        drive(task.body, data)
        changed = [
            k for k in before if list(data[k]) != before[k]
        ]
        # either a new follow was added or it was a duplicate (no-op)
        for k in changed:
            assert len(data[k]) >= len(before[k])
        return
    raise AssertionError("no follow sampled")


def test_add_user_creates_fresh_ids(rng):
    wl = make_wl()
    data = wl.genesis()
    created = []
    for _ in range(500):
        task = wl.next_transaction(rng)
        if task.name != "retwis/add_user":
            continue
        session, _ = drive(task.body, data)
        new_users = [k for k in session.writes if k.startswith("user:")]
        assert len(new_users) == 1
        assert new_users[0] not in created
        created.append(new_users[0])
        if len(created) >= 3:
            return
    assert created


def test_timeline_reads_only(rng):
    wl = make_wl()
    data = wl.genesis()
    for _ in range(100):
        task = wl.next_transaction(rng)
        if task.name != "retwis/load_timeline":
            continue
        session, _ = drive(task.body, data)
        assert not session.writes
        assert session.reads
        return
    raise AssertionError("no load_timeline sampled")
