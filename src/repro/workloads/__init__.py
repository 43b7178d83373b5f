"""The paper's benchmark workloads, re-implemented against the KV API.

* :mod:`repro.workloads.ycsb` — the YCSB-T microbenchmark (Sec 6.2):
  RW-U (uniform), RW-Z (Zipfian 0.9), and read-only variants.
* :mod:`repro.workloads.smallbank` — Smallbank (Sec 6.1): banking mix,
  hot-account skew (1k accounts receive 90% of accesses).
* :mod:`repro.workloads.retwis` — the TAPIR paper's Retwis-based social
  network mix, Zipfian 0.75 over users.
* :mod:`repro.workloads.tpcc` — TPC-C with auxiliary index tables in
  place of secondary indices, exactly as the paper describes.

All workloads implement :class:`repro.workloads.base.Workload`: they
provide genesis data and generate transaction bodies that run against
the system-agnostic session API.
"""

from repro.workloads.base import TxOutcome, Workload
from repro.workloads.geo import GeoSessionWorkload
from repro.workloads.retwis import RetwisWorkload
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.ycsb import YCSBWorkload
from repro.workloads.zipf import ZipfGenerator

# The workloads above are imported with the package, not by their
# factories: the benchmark's traced pass wraps the Workload subclasses
# that exist when it installs (basilbench/spans.py).  TPC-C alone is
# imported when built; its loader pulls in the schema.


def _tpcc(keys, **kw):
    from repro.workloads.tpcc import TPCCWorkload

    return TPCCWorkload(**{"num_warehouses": max(1, keys // 100), **kw})


#: Name -> factory registry used by CLI tools (repro.load, scripts) so a
#: workload is addressable as plain data.  ``keys`` scales the hot table
#: (YCSB keys, accounts, users, warehouses x100); each factory maps it to
#: that workload's natural population knob.
WORKLOADS = {
    # YCSB-T as benchmarked in Fig 4a: uniform 2r/2w ("-t"), plus the
    # explicit uniform/Zipfian variants.  Extra kwargs pass straight to
    # the workload constructor (read/write mix, distribution, skew...)
    # so a ModelSpec can describe any figure's workload as plain data.
    "ycsb-t": lambda keys, **kw: YCSBWorkload(
        num_keys=keys, **{"reads": 2, "writes": 2, **kw}
    ),
    "ycsb-u": lambda keys, **kw: YCSBWorkload(
        num_keys=keys, **{"reads": 2, "writes": 2, **kw}
    ),
    "ycsb-z": lambda keys, **kw: YCSBWorkload(
        num_keys=keys, **{"reads": 2, "writes": 2, "distribution": "zipfian", **kw}
    ),
    "ycsb-ro": lambda keys, **kw: YCSBWorkload(
        num_keys=keys, **{"reads": 24, "writes": 0, "distribution": "uniform", **kw}
    ),
    "retwis": lambda keys, **kw: RetwisWorkload(num_users=keys, **kw),
    # Single-key session ops issued by geo edge users (repro.geo).
    "geo-sessions": lambda keys, **kw: GeoSessionWorkload(num_keys=keys, **kw),
    "smallbank": lambda keys, **kw: SmallbankWorkload(
        num_accounts=keys, **{"hot_accounts": max(1, keys // 20), **kw}
    ),
    "tpcc": _tpcc,
}


def make_workload(name: str, keys: int = 10_000, **kwargs) -> Workload:
    """Build a registered workload scaled to ``keys`` population."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise ValueError(f"unknown workload {name!r} (have: {known})") from None
    return factory(keys, **kwargs)


__all__ = [
    "RetwisWorkload",
    "SmallbankWorkload",
    "TxOutcome",
    "WORKLOADS",
    "Workload",
    "YCSBWorkload",
    "ZipfGenerator",
    "make_workload",
]
