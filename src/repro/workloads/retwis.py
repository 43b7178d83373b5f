"""Retwis: the Twitter-clone workload used to evaluate TAPIR (Sec 6.1).

Users follow a moderately skewed Zipfian distribution (coefficient
0.75, as in the paper).  The mix matches the TAPIR evaluation:

* add_user (5%) — create a user record;
* follow (15%) — add one user to another's follow list;
* post_tweet (30%) — write a post, append to the author's post list,
  bump the author's timeline version;
* load_timeline (50%) — read a handful of users' latest posts.
"""

from __future__ import annotations

import random
from typing import Any

from repro.workloads.base import TxTask, Workload, pick_mix
from repro.workloads.zipf import ZipfGenerator

MIX = [
    ("add_user", 0.05),
    ("follow", 0.15),
    ("post_tweet", 0.30),
    ("load_timeline", 0.50),
]

#: Cap list-valued records so values stay small.
MAX_LIST = 20


def user_key(uid: int) -> str:
    return f"user:{uid:07d}"


def follows_key(uid: int) -> str:
    return f"follows:{uid:07d}"


def posts_key(uid: int) -> str:
    return f"posts:{uid:07d}"


def post_key(uid: int, seq: int) -> str:
    return f"post:{uid:07d}:{seq:06d}"


class RetwisWorkload(Workload):
    name = "retwis"

    def __init__(
        self,
        num_users: int = 10_000,
        zipf_theta: float = 0.75,
        initial_posts: int = 1,
    ) -> None:
        self.num_users = num_users
        self.initial_posts = initial_posts
        self._zipf = ZipfGenerator(num_users, zipf_theta)
        self._new_uid = num_users

    def genesis(self) -> dict[Any, Any]:
        data: dict[Any, Any] = {}
        for uid in range(self.num_users):
            data[user_key(uid)] = {"name": f"user{uid}", "seq": self.initial_posts}
            data[follows_key(uid)] = [(uid + 1) % self.num_users]
            data[posts_key(uid)] = list(range(self.initial_posts))
            for seq in range(self.initial_posts):
                data[post_key(uid, seq)] = f"hello from {uid} #{seq}"
        return data

    def _pick_user(self, rng: random.Random) -> int:
        return self._zipf.sample(rng)

    def next_transaction(self, rng: random.Random) -> TxTask:
        kind = pick_mix(rng, MIX)
        if kind == "add_user":
            self._new_uid += 1
            uid = self._new_uid

            async def body(session):
                session.write(user_key(uid), {"name": f"user{uid}", "seq": 0})
                session.write(follows_key(uid), [])
                session.write(posts_key(uid), [])

        elif kind == "follow":
            follower = self._pick_user(rng)
            followee = self._pick_user(rng)

            async def body(session):
                follows = await session.read(follows_key(follower)) or []
                if followee not in follows:
                    follows = (list(follows) + [followee])[-MAX_LIST:]
                    session.write(follows_key(follower), follows)

        elif kind == "post_tweet":
            author = self._pick_user(rng)
            text_seed = rng.randrange(10**6)

            async def body(session):
                profile = await session.read(user_key(author))
                if profile is None:
                    return
                seq = profile["seq"]
                session.write(post_key(author, seq), f"tweet {text_seed}")
                posts = await session.read(posts_key(author)) or []
                session.write(posts_key(author), (list(posts) + [seq])[-MAX_LIST:])
                session.write(user_key(author), {**profile, "seq": seq + 1})

        else:  # load_timeline
            viewer = self._pick_user(rng)

            async def body(session):
                follows = await session.read(follows_key(viewer)) or []
                timeline = []
                for uid in list(follows)[:3]:
                    posts = await session.read(posts_key(uid)) or []
                    for seq in list(posts)[-2:]:
                        timeline.append(await session.read(post_key(uid, seq)))
                return timeline

        return TxTask(name=f"retwis/{kind}", body=body)
