"""Tests for the TPC-C workload."""

from collections import Counter

import pytest

from repro.workloads.tpcc import TPCCWorkload, schema
from repro.workloads.tpcc.loader import MIX

from tests.workloads.conftest import drive


@pytest.fixture(scope="module")
def wl():
    return TPCCWorkload(
        num_warehouses=2, districts_per_warehouse=2,
        customers_per_district=20, num_items=50,
    )


@pytest.fixture()
def data(wl):
    return wl.genesis()


def test_load_data_contains_all_tables(wl, data):
    assert schema.warehouse_key(0) in data
    assert schema.district_key(1, 1) in data
    assert schema.customer_key(0, 0, 19) in data
    assert schema.item_key(49) in data
    assert schema.stock_key(1, 49) in data


def test_lastname_index_covers_all_customers(wl, data):
    for w in range(2):
        for d in range(2):
            indexed = set()
            for c in range(20):
                lastname = data[schema.customer_key(w, d, c)]["last"]
                ids = data[schema.cust_by_name_key(w, d, lastname)]
                assert c in ids
                indexed.update(ids)
            assert indexed == set(range(20))


def test_lastname_generator_deterministic():
    assert schema.lastname_for(0) == "BARBARBAR"
    assert schema.lastname_for(371) == "PRICALLYOUGHT"
    assert schema.lastname_for(999) == "EINGEINGEING"


def test_mix_distribution(wl, rng):
    counts = Counter(wl.next_transaction(rng).name for _ in range(4000))
    assert counts["tpcc/new_order"] > counts["tpcc/delivery"]
    for name, weight in MIX:
        share = counts[f"tpcc/{name}"] / 4000
        assert abs(share - weight) < 0.05


def test_new_order_advances_district_counter(wl, data, rng):
    for _ in range(100):
        task = wl.next_transaction(rng)
        if task.name != "tpcc/new_order":
            continue
        before = {
            k: v["next_o_id"] for k, v in data.items() if k.startswith("tpcc:d:")
        }
        session, _ = drive(task.body, data)
        advanced = [
            k for k, v in data.items()
            if k.startswith("tpcc:d:") and v["next_o_id"] == before[k] + 1
        ]
        assert len(advanced) == 1
        # an order, its new-order marker, and >= 5 order lines were written
        orders = [k for k in data if k.startswith("tpcc:o:")]
        markers = [k for k in data if k.startswith("tpcc:no:")]
        lines = [k for k in data if k.startswith("tpcc:ol:")]
        assert orders and markers and len(lines) >= 5
        return
    raise AssertionError("no new_order sampled")


def test_payment_updates_district_ytd_and_history(wl, data, rng):
    for _ in range(100):
        task = wl.next_transaction(rng)
        if task.name != "tpcc/payment":
            continue
        d_before = {k: v["ytd"] for k, v in data.items() if k.startswith("tpcc:d:")}
        session, _ = drive(task.body, data)
        bumped = [
            k for k, v in data.items() if k.startswith("tpcc:d:") and v["ytd"] > d_before[k]
        ]
        assert len(bumped) == 1
        # warehouse YTD is accumulated via blind history writes, not an
        # RMW on the warehouse row (see transactions.make_payment)
        history = [k for k in session.writes if k.startswith("tpcc:h:")]
        assert len(history) == 1
        assert session.writes[history[0]]["w_ytd_delta"] > 0
        w_writes = [k for k in session.writes if k.startswith("tpcc:w:")]
        assert not w_writes
        return
    raise AssertionError("no payment sampled")


def test_order_status_after_new_order(wl, data, rng):
    # run new_orders until one exists, then an order_status must read lines
    made = False
    for _ in range(200):
        task = wl.next_transaction(rng)
        if task.name == "tpcc/new_order":
            drive(task.body, data)
            made = True
        elif task.name == "tpcc/order_status" and made:
            session, _ = drive(task.body, data)
            assert session.reads
            return
    raise AssertionError("sequence not sampled")


def test_delivery_consumes_new_orders(wl, data, rng):
    # create some orders first
    created = 0
    for _ in range(300):
        task = wl.next_transaction(rng)
        if task.name == "tpcc/new_order":
            drive(task.body, data)
            created += 1
            if created >= 5:
                break
    pending_before = sum(1 for k, v in data.items() if k.startswith("tpcc:no:") and v)
    assert pending_before > 0
    for _ in range(300):
        task = wl.next_transaction(rng)
        if task.name != "tpcc/delivery":
            continue
        drive(task.body, data)
        pending_after = sum(1 for k, v in data.items() if k.startswith("tpcc:no:") and v)
        assert pending_after <= pending_before
        return
    raise AssertionError("no delivery sampled")


def test_stock_level_counts_low_stock(wl, data, rng):
    for _ in range(100):
        task = wl.next_transaction(rng)
        if task.name == "tpcc/new_order":
            drive(task.body, data)
    for _ in range(200):
        task = wl.next_transaction(rng)
        if task.name != "tpcc/stock_level":
            continue
        session, low = drive(task.body, data)
        assert isinstance(low, int) and low >= 0
        return
    raise AssertionError("no stock_level sampled")


def test_full_scale_config_matches_paper():
    wl = TPCCWorkload()  # defaults: 20 warehouses as in the paper
    assert wl.num_warehouses == 20
    assert wl.districts == 10
