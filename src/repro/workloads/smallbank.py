"""Smallbank: the banking benchmark (Sec 6.1).

Each customer has a checking and a savings account.  Six transaction
types with the standard OLTPBench mix.  Access skew follows the paper:
a small hot set of accounts receives 90% of accesses (paper: 1,000 hot
accounts out of one million; both are configurable since the default
population is scaled down for simulation).
"""

from __future__ import annotations

import random
from repro.workloads.base import IndexedGenesis, TxTask, Workload, pick_mix

MIX = [
    ("amalgamate", 0.15),
    ("balance", 0.15),
    ("deposit_checking", 0.15),
    ("send_payment", 0.25),
    ("transact_savings", 0.15),
    ("write_check", 0.15),
]


def checking_key(account: int) -> str:
    return f"checking:{account:08d}"


def savings_key(account: int) -> str:
    return f"savings:{account:08d}"


class SmallbankWorkload(Workload):
    name = "smallbank"

    def __init__(
        self,
        num_accounts: int = 20_000,
        hot_accounts: int = 1_000,
        hot_probability: float = 0.9,
        initial_balance: int = 10_000,
    ) -> None:
        self.num_accounts = num_accounts
        self.hot_accounts = min(hot_accounts, num_accounts)
        self.hot_probability = hot_probability
        self.initial_balance = initial_balance

    def genesis(self) -> IndexedGenesis:
        """Every account opens with ``initial_balance`` in both its
        checking and its savings account (account order, checking first)."""
        return IndexedGenesis(
            self.num_accounts,
            (("checking:", checking_key), ("savings:", savings_key)),
            self.initial_balance,
        )

    def _pick_account(self, rng: random.Random) -> int:
        if rng.random() < self.hot_probability:
            return rng.randrange(self.hot_accounts)
        return rng.randrange(self.num_accounts)

    def _pick_two_accounts(self, rng: random.Random) -> tuple[int, int]:
        a = self._pick_account(rng)
        b = self._pick_account(rng)
        while b == a:
            b = self._pick_account(rng)
        return a, b

    def next_transaction(self, rng: random.Random) -> TxTask:
        kind = pick_mix(rng, MIX)
        if kind == "balance":
            account = self._pick_account(rng)

            async def body(session):
                checking = await session.read(checking_key(account))
                savings = await session.read(savings_key(account))
                return (checking or 0) + (savings or 0)

        elif kind == "deposit_checking":
            account = self._pick_account(rng)
            amount = rng.randrange(1, 100)

            async def body(session):
                balance = await session.read(checking_key(account))
                session.write(checking_key(account), (balance or 0) + amount)

        elif kind == "transact_savings":
            account = self._pick_account(rng)
            amount = rng.randrange(1, 100)

            async def body(session):
                balance = await session.read(savings_key(account))
                session.write(savings_key(account), (balance or 0) + amount)

        elif kind == "amalgamate":
            src, dst = self._pick_two_accounts(rng)

            async def body(session):
                savings = await session.read(savings_key(src)) or 0
                checking = await session.read(checking_key(src)) or 0
                dst_balance = await session.read(checking_key(dst)) or 0
                session.write(savings_key(src), 0)
                session.write(checking_key(src), 0)
                session.write(checking_key(dst), dst_balance + savings + checking)

        elif kind == "send_payment":
            src, dst = self._pick_two_accounts(rng)
            amount = rng.randrange(1, 50)

            async def body(session):
                src_balance = await session.read(checking_key(src)) or 0
                dst_balance = await session.read(checking_key(dst)) or 0
                if src_balance < amount:
                    return  # insufficient funds: commit empty-handed
                session.write(checking_key(src), src_balance - amount)
                session.write(checking_key(dst), dst_balance + amount)

        else:  # write_check
            account = self._pick_account(rng)
            amount = rng.randrange(1, 50)

            async def body(session):
                savings = await session.read(savings_key(account)) or 0
                checking = await session.read(checking_key(account)) or 0
                total = savings + checking
                penalty = 1 if total < amount else 0
                session.write(checking_key(account), checking - amount - penalty)

        return TxTask(name=f"smallbank/{kind}", body=body)
