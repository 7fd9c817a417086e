"""Memory held by a run's orders and fills."""

import gc
import tracemalloc

from petgrid.market import Order, Side, Transaction
from petgrid.runner import builtin_config, run_scenario


def test_orders_and_fills_have_no_instance_dict():
    for obj in (Order(1, Side.BUY, 100, 0.02), Transaction(1, 2, 100, 0.02)):
        assert not hasattr(obj, "__dict__")


def test_the_log_holds_at_most_48_bytes_per_fill():
    """Five 8-byte columns take 40 bytes a fill; the rest is the arrays'
    over-allocation. The log's share is what dropping it frees."""
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
    assert 40 * fills <= held <= 48 * fills
