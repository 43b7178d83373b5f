"""TPC-C population and workload entry point."""

from __future__ import annotations

import random
from typing import Any

from repro.workloads.base import TxTask, Workload, pick_mix
from repro.workloads.tpcc import schema, transactions

#: Standard TPC-C mix.
MIX = [
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
]


class TPCCWorkload(Workload):
    """TPC-C configured like the paper (20 warehouses at full scale).

    ``customers_per_district`` and ``num_items`` default far below spec
    scale so simulations fit in memory; contention structure (the
    district ``next_o_id`` hotspot and the payment/new-order conflict on
    warehouse rows) is unchanged.
    """

    name = "tpcc"

    def __init__(
        self,
        num_warehouses: int = 20,
        districts_per_warehouse: int = 10,
        customers_per_district: int = 30,
        num_items: int = 1_000,
        seed: int = 7,
    ) -> None:
        self.num_warehouses = num_warehouses
        self.districts = districts_per_warehouse
        self.customers = customers_per_district
        self.num_items = num_items
        self._load_rng = random.Random(seed)

    # ------------------------------------------------------------------
    def genesis(self) -> dict[Any, Any]:
        rng = self._load_rng
        data: dict[Any, Any] = {}
        for i in range(self.num_items):
            data[schema.item_key(i)] = schema.make_item(i, rng)
        for w in range(self.num_warehouses):
            data[schema.warehouse_key(w)] = schema.make_warehouse(w)
            for i in range(self.num_items):
                data[schema.stock_key(w, i)] = schema.make_stock(w, i, rng)
            for d in range(self.districts):
                data[schema.district_key(w, d)] = schema.make_district(w, d)
                by_name: dict[str, list[int]] = {}
                for c in range(self.customers):
                    lastname = schema.lastname_for(c % 1000)
                    data[schema.customer_key(w, d, c)] = schema.make_customer(
                        w, d, c, lastname
                    )
                    by_name.setdefault(lastname, []).append(c)
                for lastname, ids in by_name.items():
                    data[schema.cust_by_name_key(w, d, lastname)] = sorted(ids)
        return data

    # ------------------------------------------------------------------
    def next_transaction(self, rng: random.Random) -> TxTask:
        kind = pick_mix(rng, MIX)
        builder = getattr(transactions, f"make_{kind}")
        body = builder(self, rng)
        return TxTask(name=f"tpcc/{kind}", body=body)

    # -- selection helpers used by transaction builders --------------------
    def pick_warehouse(self, rng: random.Random) -> int:
        return rng.randrange(self.num_warehouses)

    def pick_district(self, rng: random.Random) -> int:
        return rng.randrange(self.districts)

    def pick_customer(self, rng: random.Random) -> int:
        # NURand-ish: favour a subset of customers
        return min(rng.randrange(self.customers), rng.randrange(self.customers))

    def pick_item(self, rng: random.Random) -> int:
        return min(rng.randrange(self.num_items), rng.randrange(self.num_items))

    def pick_lastname(self, rng: random.Random) -> str:
        return schema.lastname_for(self.pick_customer(rng) % 1000)
