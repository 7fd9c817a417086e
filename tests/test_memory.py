"""Memory held by a run's orders and fills."""

import gc
import textwrap
import tracemalloc

import pytest

from harness import run_child, spy
from petgrid import market, substation
from petgrid.market import Order, Side, Transaction, TransactionLog
from petgrid.runner import builtin_config, run_scenario


def test_orders_and_fills_have_no_instance_dict():
    for obj in (Order(1, Side.BUY, 100, 0.02), Transaction(1, 2, 100, 0.02)):
        assert not hasattr(obj, "__dict__")


def test_a_run_builds_no_transaction_tuple(monkeypatch, tmp_path):
    """Fills go from the matcher to transactions.csv as columns."""
    built = spy(monkeypatch, market, "Transaction")
    matches = spy(monkeypatch, substation, "match_orders")
    cfg = builtin_config("s5", n_houses=3, n_ev=3, n_pv=3, days=2,
                         discard_days=1)
    result = run_scenario(cfg, out_dir=tmp_path)
    assert len(result.transactions) > 1000
    assert built == []
    # no round's result holds a fill as a tuple either
    results = [call.result for call in matches]
    assert len(results) == 2 * 288
    assert not [value for r in results for value in vars(r).values()
                if isinstance(value, list)
                and any(isinstance(x, tuple) for x in value)]
    # reading the fills back as tuples goes through the patched name
    next(iter(result.transactions))
    assert len(built) == 1


def _held_by_a_run(attr: str, days: int) -> tuple[int, int, int]:
    """The rounds and fills of a 3-house s5 run of `days` days, and the
    traced bytes that dropping the result's `attr` frees."""
    cfg = builtin_config("s5", n_houses=3, n_ev=3, n_pv=3, days=days,
                         discard_days=1)
    tracemalloc.start()
    try:
        result = run_scenario(cfg)
        gc.collect()
        rounds, fills = len(result.rounds["t_s"]), len(result.transactions)
        before = tracemalloc.get_traced_memory()[0]
        setattr(result, attr, None)
        held = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return rounds, fills, held


def test_the_log_holds_at_most_20_bytes_per_fill():
    """Two 2-byte id columns, a 4-byte quantity and an 8-byte price take
    16 bytes a fill; the rest is the arrays' over-allocation and one
    8-byte entry per round. The log's share is what dropping it
    frees."""
    rounds, fills, held = _held_by_a_run("transactions", 2)
    assert fills > 1000 and rounds == 2 * 288
    assert 16 * fills + 8 * rounds <= held <= 20 * fills


def test_the_round_log_grows_by_at_most_202_bytes_a_round():
    """A round takes 8 bytes in each of the round log's 19 typed columns,
    and a list slot and a float object in `round_vwap`: 184 bytes. From
    2 to 4 days of a 3-house s5 it grew by 188.5 bytes a round on CPython
    3.11 (185.7 from 2 to 6 days), the rest being array over-allocation.
    The bound is 10% over 184 bytes, and the floor the typed columns."""
    (small, _, small_held), (large, _, large_held) = (
        _held_by_a_run("rounds", days) for days in (2, 4))
    assert (small, large) == (2 * 288, 4 * 288)
    assert 19 * 8 <= (large_held - small_held) / (large - small) <= 202


def test_every_trader_id_fits_the_logs_16_bit_columns():
    assert substation.EV_SELL_BASE + substation.MAX_HOUSES <= 2**15


FITS = dict(buyer=[2**15 - 1], seller=[-2**15], quantity=[2**31 - 1],
            price=[0.02])
# one value past the range of each integer column; every float fits price
TOO_BIG = dict(buyer=[2**15], seller=[-2**15 - 1], quantity=[2**31])
FILL_COLUMNS = ("buyer", "seller", "quantity", "price")
ROUND_COLUMNS = ("round_starts",)


def test_a_fill_that_does_not_fit_the_log_raises():
    log = TransactionLog()
    log.extend(**FITS)
    assert list(log) == [Transaction(2**15 - 1, -2**15, 2**31 - 1, 0.02, 0)]
    for column in TOO_BIG:
        log = TransactionLog()
        with pytest.raises(OverflowError):
            log.extend(**(FITS | {column: TOO_BIG[column]}))
        assert len(log) == 0 and list(log) == []
        assert all(len(getattr(log, name)) == 0
                   for name in FILL_COLUMNS + ROUND_COLUMNS)


def test_a_fill_that_does_not_fit_leaves_every_column_as_it_was():
    for column in TOO_BIG:
        log = TransactionLog()
        log.extend([1], [2], [100], [0.02])
        # a round with one value past one column's range, in its second
        # fill, adds none of its fills and no round entry
        bad = {"buyer": [4, 4], "seller": [5, 6], "quantity": [60, 70],
               "price": [0.03, 0.03]}
        bad[column] = bad[column][:1] + TOO_BIG[column]
        with pytest.raises(OverflowError):
            log.extend(**bad)
        assert list(log) == [Transaction(1, 2, 100, 0.02, 0)], column
        assert {len(getattr(log, name)) for name in FILL_COLUMNS} == {1}
        assert list(log.round_starts) == [0]
        # the log takes the next round as round 1, as if the bad one had
        # not been
        log.extend([7], [8], [90], [0.04])
        assert list(log) == [Transaction(1, 2, 100, 0.02, 0),
                             Transaction(7, 8, 90, 0.04, 1)], column


def _held_by_build(build: str, scenario: str, days: int) -> int:
    """The traced bytes that `build`, an expression of `cfg`, `rng`,
    `pv_rng` and `weather`, holds for a 30-house builtin `scenario` of
    `days` days, measured in a fresh interpreter, so CPython's and
    numpy's caches start alike."""
    code = textwrap.dedent(f"""\
        import gc, sys, tracemalloc
        import numpy as np
        from petgrid.evfleet import build_fleet
        from petgrid.household import build_houses
        from petgrid.runner import builtin_config
        from petgrid.weather import SyntheticWeather
        cfg = builtin_config(sys.argv[1], days=int(sys.argv[2]),
                             discard_days=1)
        weather = SyntheticWeather(26.0, 35.0)
        rng, pv_rng = np.random.default_rng(1), np.random.default_rng(2)
        gc.collect()
        tracemalloc.start()
        built = {build}
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del built
        gc.collect()
        print(held - tracemalloc.get_traced_memory()[0])
        """)
    proc = run_child("-c", code, scenario, str(days))
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_the_houses_hold_the_same_bytes_for_any_run_length():
    """The houses keep where each one's noise stream starts and draw a
    day of it at a time, so a 200-day build holds what a 2-day one does,
    where the whole run's noise would add 30 x 198 x 288 x 8 bytes."""
    build = "build_houses(cfg, rng, weather, pv_rng)"
    held = _held_by_build(build, "s1", 2)
    assert 0 < held < 1_000_000
    assert _held_by_build(build, "s1", 200) == held


def test_the_ev_itineraries_grow_by_at_most_512_bytes_an_ev_day():
    """`build_fleet` draws every EV's trips for the whole run, about 1.9
    a day, so a build grows with `days`: by 364 bytes an EV-day for the
    30 EVs of s5 from 2 to 20 days on CPython 3.11, where a trip takes
    193 bytes (241 on 3.10). The bound leaves room for 3.10's larger
    trips and fails if the growth rises by 40% on 3.11."""
    build = "build_fleet(cfg, rng)"
    small, large = (_held_by_build(build, "s5", days) for days in (2, 20))
    assert 0 < small < large
    assert (large - small) / (30 * 18) <= 512
