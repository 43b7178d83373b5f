"""YCSB-T: the paper's microbenchmark (Sec 6.2, Figures 5-7).

"A simple workload of identical transactions": each transaction performs
``reads`` reads and ``writes`` read-modify-writes over a key space of
``num_keys`` keys, drawn uniformly (RW-U) or Zipfian (RW-Z, coefficient
0.9).  Figure 5b uses a read-only variant with 24 reads.
"""

from __future__ import annotations

import random
from typing import Any

from repro.workloads.base import IndexedGenesis, TxTask, Workload
from repro.workloads.zipf import UniformGenerator, ZipfGenerator


def ycsb_key(index: int) -> str:
    return f"ycsb:{index:08d}"


class YCSBWorkload(Workload):
    """Identical read/write transactions over a flat key space."""

    def __init__(
        self,
        num_keys: int = 100_000,
        reads: int = 2,
        writes: int = 2,
        distribution: str = "uniform",
        zipf_theta: float = 0.9,
        value_size: int = 64,
    ) -> None:
        if distribution not in ("uniform", "zipfian"):
            raise ValueError(f"unknown distribution {distribution!r}")
        self.num_keys = num_keys
        self.reads = reads
        self.writes = writes
        self.distribution = distribution
        self.value_size = value_size
        if distribution == "uniform":
            self._gen: Any = UniformGenerator(num_keys)
        else:
            self._gen = ZipfGenerator(num_keys, zipf_theta)
        self.name = f"ycsb-{'u' if distribution == 'uniform' else 'z'}"

    def genesis(self) -> IndexedGenesis:
        """Every key holds ``value_size`` zero bytes, in index order."""
        return IndexedGenesis(
            self.num_keys, (("ycsb:", ycsb_key),), b"\x00" * self.value_size
        )

    def next_transaction(self, rng: random.Random) -> TxTask:
        count = self.reads + self.writes
        indices = self._gen.sample_distinct(rng, count)
        read_keys = [ycsb_key(i) for i in indices[: self.reads]]
        write_keys = [ycsb_key(i) for i in indices[self.reads:]]
        payload = bytes([rng.randrange(256)]) * self.value_size

        async def body(session):
            for key in read_keys:
                await session.read(key)
            for key in write_keys:
                # read-modify-write, as in the paper's "two reads and two
                # writes" transactions (writes follow reads of same keys)
                await session.read(key)
                session.write(key, payload)

        return TxTask(name=self.name, body=body)


def read_only_workload(num_keys: int = 100_000, reads: int = 24) -> YCSBWorkload:
    """The Figure 5b configuration: 24 reads per transaction."""
    return YCSBWorkload(num_keys=num_keys, reads=reads, writes=0)
