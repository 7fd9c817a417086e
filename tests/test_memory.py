"""Memory held by a run's orders and fills."""

import gc
import tracemalloc

import pytest

from petgrid.market import Order, Side, Transaction, TransactionLog
from petgrid.runner import builtin_config, run_scenario


def test_orders_and_fills_have_no_instance_dict():
    for obj in (Order(1, Side.BUY, 100, 0.02), Transaction(1, 2, 100, 0.02)):
        assert not hasattr(obj, "__dict__")


def test_the_log_holds_at_most_34_bytes_per_fill():
    """Three 4-byte id columns and two 8-byte ones take 28 bytes a fill;
    the rest is the arrays' over-allocation. The log's share is what
    dropping it frees."""
    cfg = builtin_config("s5", n_houses=3, n_ev=3, n_pv=3, days=2,
                         discard_days=1)
    tracemalloc.start()
    try:
        result = run_scenario(cfg)
        gc.collect()
        fills = len(result.transactions)
        before = tracemalloc.get_traced_memory()[0]
        result.transactions = None
        held = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert fills > 1000
    assert 28 * fills <= held <= 34 * fills


def test_a_fill_that_does_not_fit_the_log_raises():
    TransactionLog().extend([Transaction(2**31 - 1, 2, 2**63 - 1, 0.02, 0)])
    for bad in (Transaction(2**31, 2, 100, 0.02, 7),
                Transaction(1, -2**31 - 1, 100, 0.02, 7),
                Transaction(1, 2, 100, 0.02, 2**31),
                Transaction(1, 2, 2**63, 0.02, 7)):
        with pytest.raises(OverflowError):
            TransactionLog().extend([bad])


def test_a_fill_that_does_not_fit_leaves_every_column_as_it_was():
    log = TransactionLog()
    with pytest.raises(OverflowError):
        log.extend([Transaction(1, 2, 100, 0.02, 2**31)])
    assert len(log) == 0
    assert list(log) == []
    for column in (log.round_index, log.buyer, log.seller, log.quantity,
                   log.price):
        assert len(column) == 0
    # a round with one bad fill after good ones adds none of them
    log.extend([Transaction(1, 2, 100, 0.02, 3)])
    with pytest.raises(OverflowError):
        log.extend([Transaction(4, 5, 60, 0.03, 4),
                    Transaction(4, 6, 2**63, 0.03, 4)])
    assert list(log) == [Transaction(1, 2, 100, 0.02, 3)]
    assert {len(column) for column in (log.round_index, log.buyer,
                                       log.seller, log.quantity,
                                       log.price)} == {1}
