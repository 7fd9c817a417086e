"""Bid formulation, grid pricing and the EV bidding strategy."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness import StubContext, spy
from petgrid import substation
from petgrid.market import (Order, Side, Transaction, TransactionLog,
                            match_orders)
from petgrid.metrics import ROUND_COLUMNS
from petgrid.runner import ScenarioConfig, builtin_config, run_scenario
from petgrid.substation import (EV_BASE, EV_SELL_BASE, GRID_TRADER,
                                HVAC_BASE, LmpHistory, MAX_HOUSES, PV_BASE,
                                SubstationFederate, UNRESP_BASE, base_price,
                                clear_round, compute_lmp, ev_strategy_prices,
                                formulate_ev_bids,
                                formulate_grid_bid, formulate_house_bids)

H = 3600.0
CFG = ScenarioConfig()


@pytest.fixture
def books(monkeypatch):
    """The order book of every `match_orders` call of the substation."""
    return spy(monkeypatch, substation, "match_orders",
               record=lambda orders: orders)


def test_base_price_trough_and_peak_hours():
    hours = np.arange(0, 24, 0.25)
    values = [base_price(h * H, 0.012, 0.25) for h in hours]
    assert hours[int(np.argmin(values))] == 4.0
    assert hours[int(np.argmax(values))] == 18.0
    assert min(values) == pytest.approx(0.012 * 0.75)
    assert max(values) == pytest.approx(0.012 * 1.25)
    # halfway up the 14 h rise and down the 10 h fall: the base itself
    for hour in (11.0, 23.0):
        assert base_price(hour * H, 0.012, 0.25) == pytest.approx(0.012)


def test_trader_id_blocks_start_at_multiples_of_max_houses():
    """`clear_round` finds a fill's block as trader // MAX_HOUSES."""
    assert (GRID_TRADER, UNRESP_BASE, HVAC_BASE, PV_BASE, EV_BASE,
            EV_SELL_BASE) == tuple(k * MAX_HOUSES for k in range(6))


def test_lmp_zero_load_equals_base_price():
    t = 10 * H
    assert compute_lmp(0.0, 100_000.0, t, 0.012, 0.75, 0.25) == \
        pytest.approx(base_price(t, 0.012, 0.25))


def test_lmp_full_load_oracle():
    # u=1, alpha=0.75, flat base 0.012: 0.012 * 1.75 = 0.021
    lmp = compute_lmp(100_000.0, 100_000.0, 4 * H, 0.012, 0.75, 0.0)
    assert lmp == pytest.approx(0.021)


def test_lmp_clamps_overload_and_rejects_bad_capacity():
    t = 12 * H
    assert compute_lmp(500_000.0, 100_000.0, t, 0.012, 0.75, 0.25) == \
        compute_lmp(100_000.0, 100_000.0, t, 0.012, 0.75, 0.25)


def test_lmp_cheaper_at_night_for_equal_load():
    u_w, cap = 50_000.0, 100_000.0
    assert compute_lmp(u_w, cap, 4 * H, 0.012, 0.75, 0.25) < \
        compute_lmp(u_w, cap, 18 * H, 0.012, 0.75, 0.25)


def test_grid_bid_is_capacity_at_lmp():
    order = formulate_grid_bid(100_000, 0.0175)
    assert order.trader == GRID_TRADER
    assert order.side is Side.SELL
    assert order.quantity == 100_000
    assert order.price == 0.0175


def test_house_bids_unresponsive_hvac_pv():
    orders = formulate_house_bids([0, 0, 0, 1200], [0, 0, 0, 4000],
                                  [0, 0, 0, 4800], CFG)
    by_trader = {o.trader: o for o in orders}
    assert len(orders) == 3
    unresp = by_trader[UNRESP_BASE + 3]
    assert (unresp.side, unresp.quantity, unresp.price) == \
        (Side.BUY, 1200, 1.00)
    hvac = by_trader[HVAC_BASE + 3]
    assert (hvac.side, hvac.quantity, hvac.price) == (Side.BUY, 4000, 0.50)
    pv = by_trader[PV_BASE + 3]
    assert (pv.side, pv.quantity, pv.price) == (Side.SELL, 4800, 0.0148)


def test_house_bids_zero_quantities_omitted():
    assert formulate_house_bids([0], [0], [0], CFG) == []
    assert len(formulate_house_bids([900], [0], [0], CFG)) == 1


class StubHistory:
    def __init__(self, ma_long, ma_short, iqr_long):
        self.ma_long = ma_long
        self.ma_short = ma_short
        self.iqr_long = iqr_long


def test_ev_strategy_constant_history_degenerates_to_equality():
    hist = LmpHistory(300.0)
    for _ in range(300):
        hist.append(0.017)
    buy_p, sell_p = ev_strategy_prices(hist)
    assert buy_p == pytest.approx(0.017)
    assert sell_p == pytest.approx(0.017)


def test_ev_strategy_worked_examples():
    buy_p, sell_p = ev_strategy_prices(StubHistory(0.020, 0.030, 0.010))
    assert (buy_p, sell_p) == (0.020, pytest.approx(0.031))
    buy_p, sell_p = ev_strategy_prices(StubHistory(0.020, 0.010, 0.010))
    assert (buy_p, sell_p) == (0.020, pytest.approx(0.0205))


def test_history_windows_and_statistics():
    hist = LmpHistory(t_market_s=300.0)
    values = list(np.linspace(0.01, 0.03, 288))  # exactly 24 h of rounds
    for v in values:
        hist.append(v)
    assert hist.ma_long == pytest.approx(np.mean(values))
    assert hist.ma_short == pytest.approx(np.mean(values[-6:]))  # last 30 min
    assert hist.iqr_long == pytest.approx(
        np.percentile(values, 75) - np.percentile(values, 25))
    # ring buffer: a day later the early values must have fallen out
    for v in values:
        hist.append(v + 0.1)
    assert hist.ma_long == pytest.approx(np.mean(values) + 0.1)
    # 30 minutes of 12-minute rounds is 2.5, which rounds half to even
    hist = LmpHistory(t_market_s=720.0)
    for v in (1.0, 2.0, 3.0, 4.0, 5.0):
        hist.append(v)
    assert hist.ma_short == 4.5


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.001, 0.5), min_size=1, max_size=288))
def test_sell_price_never_below_buy_price(series):
    hist = LmpHistory(300.0)
    for v in series:
        hist.append(v)
    buy_p, sell_p = ev_strategy_prices(hist)
    assert sell_p >= buy_p
    assert buy_p == float(np.mean(series))


def test_history_statistics_match_separate_computations():
    """The shared array and the sorted window give the same bits as
    computing each statistic on its own with numpy."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 287, 288, 400):
        series = np.round(rng.uniform(0.01, 0.03, size=n), 4)
        hist = LmpHistory(300.0)
        for v in series:
            hist.append(float(v))
        window = series[-288:]
        assert hist.ma_long == float(np.mean(window))
        assert hist.ma_short == float(np.mean(window[-6:]))
        assert hist.iqr_long == float(np.percentile(window, 75)
                                      - np.percentile(window, 25))


# few distinct values, so windows hold long runs of ties and evictions
# remove values that also sit elsewhere in the window
TIED_LMPS = st.sampled_from([0.0, 0.0101, 0.0155, 0.0155, 0.02, 0.3])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
           st.lists(TIED_LMPS | st.floats(0.0, 1.0), min_size=3 * n,
                    max_size=40), st.just(n))),
       st.integers(1, 4))
def test_history_matches_numpy_bit_for_bit(series_n_long, n_short):
    # at least three windows' worth, so the ring wraps at least twice
    series, n_long = series_n_long
    assert len(series) >= 3 * n_long
    with mock.patch.multiple(substation, LONG_WINDOW_S=300.0 * n_long,
                             SHORT_WINDOW_S=300.0 * n_short):
        hist = LmpHistory(300.0)
    for k, lmp in enumerate(series):
        hist.append(lmp)
        window = np.array(series[max(k + 1 - n_long, 0):k + 1])
        q25, q75 = np.percentile(window, [25, 75])
        assert hist.iqr_long == float(q75 - q25)
        assert hist.ma_long == float(np.mean(window))
        assert hist.ma_short == float(np.mean(window[-n_short:]))


def test_transaction_log_is_every_round_in_order(books):
    result = run_scenario(builtin_config("s5", n_houses=4, n_ev=3, n_pv=2,
                                         days=2, discard_days=1))
    assert isinstance(result.transactions, TransactionLog)
    # the k-th book is round k's
    expected = [tx._replace(round_index=r) for r, orders in enumerate(books)
                for tx in match_orders(orders).transactions]
    logged = list(result.transactions)
    assert len(result.transactions) == len(expected) > 0
    assert logged == expected
    assert all(type(tx) is Transaction for tx in logged)
    assert [tuple(map(type, tx)) for tx in logged] == \
        [tuple(map(type, tx)) for tx in expected]


def test_every_order_of_a_run_passes_the_order_checks(books):
    """House and EV bids skip Order.__new__; each must equal the order
    that the checked constructor builds from its fields."""
    # low initial charge reaches the forced-charge buy below 20% SoC
    run_scenario(builtin_config("s5", n_houses=6, n_ev=6, n_pv=6, days=2,
                                discard_days=1,
                                ev_initial_soc_range=(0.1, 0.95)))
    orders = [order for book in books for order in book]
    assert all(type(order) is Order and order == Order(*order)
               and type(order.quantity) is int for order in orders)
    # house orders keep the default priority, their trader id
    assert all(order == Order(*order[:4]) for order in orders
               if order.trader < EV_BASE)
    traders = {order.trader // 1000 * 1000 for order in orders}
    assert traders == {GRID_TRADER, UNRESP_BASE, HVAC_BASE, PV_BASE, EV_BASE,
                       EV_SELL_BASE}
    forced = [order for order in orders if EV_BASE <= order.trader
              < EV_SELL_BASE and order.price == CFG.prices_unresponsive]
    assert forced


def test_ev_bids_forced_charge():
    ranges = [(0, 0)] * 4 + [(11000, 11000)]
    # equal departures: the emptiest EV, the forced one, ranks first
    orders = formulate_ev_bids(ranges, [0.9, 0.8, 0.7, 0.6, 0.15],
                               [H] * 5, (0.02, 0.03), CFG)
    assert len(orders) == 1
    o = orders[0]
    assert (o.trader, o.side, o.quantity, o.price, o.priority) == \
        (EV_BASE + 4, Side.BUY, 11000, CFG.prices_unresponsive, EV_BASE + 0)


def test_ev_bids_two_sided_with_strategy_prices():
    strategy = ev_strategy_prices(StubHistory(0.020, 0.030, 0.010))
    # the last to depart buys last; the fullest sells first
    orders = formulate_ev_bids([(0, 0), (0, 0), (-11000, 11000)],
                               [0.3, 0.5, 0.8], [H, 2 * H, 3 * H], strategy,
                               CFG)
    by_side = {o.side: o for o in orders}
    assert by_side[Side.BUY].trader == EV_BASE + 2
    assert by_side[Side.BUY].priority == EV_BASE + 2
    assert by_side[Side.BUY].quantity == 11000
    assert by_side[Side.BUY].price == 0.020
    assert by_side[Side.SELL].trader == EV_SELL_BASE + 2
    assert by_side[Side.SELL].priority == EV_SELL_BASE + 0
    assert by_side[Side.SELL].quantity == 11000
    assert by_side[Side.SELL].price == pytest.approx(0.031)


def test_ev_does_not_cross_its_own_orders_when_iqr_positive():
    """With any price spread the sell sits strictly above the buy, so an
    EV's own ask is never eligible against its own bid."""
    strategy = ev_strategy_prices(StubHistory(0.020, 0.020, 0.004))
    orders = formulate_ev_bids([(-11000, 11000)], [0.5], [H], strategy, CFG)
    assert match_orders(orders).transactions == []


def test_ev_bids_are_the_fleets_buys_then_its_sells():
    strategy = (0.02, 0.03)
    ranges = [(-11000, 0), (0, 0), (500, 11000), (-7000, 7000), (0, 3000),
              (0, 1)]   # the least range that still buys
    # buys rank by departure, EV 4 first and EV 5 last; sells by SoC,
    # which falls with the EV index
    socs = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    departs = [5 * H, 4 * H, 3 * H, 2 * H, H, 6 * H]
    orders = formulate_ev_bids(ranges, socs, departs, strategy, CFG)
    assert orders == [
        Order(EV_BASE + 4, Side.BUY, 3000, 0.02, EV_BASE + 0),
        Order(EV_BASE + 3, Side.BUY, 7000, 0.02, EV_BASE + 1),
        Order(EV_BASE + 2, Side.BUY, 500, CFG.prices_unresponsive,
              EV_BASE + 2),
        Order(EV_BASE + 5, Side.BUY, 1, 0.02, EV_BASE + 5),
        Order(EV_SELL_BASE + 0, Side.SELL, 11000, 0.03, EV_SELL_BASE + 0),
        Order(EV_SELL_BASE + 3, Side.SELL, 7000, 0.03, EV_SELL_BASE + 3)]
    assert all(type(o.quantity) is int for o in orders)
    assert formulate_ev_bids([(0, 0)] * 3, socs[:3], departs[:3], strategy,
                             CFG) == []


def test_ev_ties_serve_the_lower_ev_index_first():
    """Equal departure and SoC rank by EV index, on both sides, and a
    scarce round serves the first in rank."""
    strategy = (0.02, 0.03)
    ranges = [(0, 11000), (0, 11000), (-11000, 0), (-11000, 0)]
    orders = formulate_ev_bids(ranges, [0.5] * 4, [H] * 4, strategy, CFG)
    assert [(o.trader, o.priority) for o in orders] == [
        (EV_BASE + 0, EV_BASE + 0), (EV_BASE + 1, EV_BASE + 1),
        (EV_SELL_BASE + 2, EV_SELL_BASE + 2),
        (EV_SELL_BASE + 3, EV_SELL_BASE + 3)]
    # 11 kW of supply at the buy price fills one buyer, the lower index
    result = match_orders(orders[:2] + [Order(GRID_TRADER, Side.SELL, 11000,
                                              0.02)])
    assert result.bought == {EV_BASE + 0: 11000}
    # 11 kW of demand at the sell price fills one seller, the lower index
    result = match_orders(orders[2:] + [Order(UNRESP_BASE, Side.BUY, 11000,
                                              0.03)])
    assert result.sold == {EV_SELL_BASE + 2: 11000}


# ---------------------------------------------------------------------------
# The substation round: strategy prices once per round, EV priority
# ---------------------------------------------------------------------------

TINY_S5 = dict(n_houses=3, n_ev=3, n_pv=3, days=2, discard_days=1)


def count_strategy_rounds(monkeypatch, cfg):
    """Run `cfg`; return the round index of every `ev_strategy_prices`
    call, that of every `formulate_ev_bids` call and the number of
    rounds."""
    # `compute_lmp` runs once at the start of each round
    lmps = spy(monkeypatch, substation, "compute_lmp")
    calls = spy(monkeypatch, substation, "ev_strategy_prices",
                record=lambda hist: len(lmps))
    bid_calls = spy(monkeypatch, substation, "formulate_ev_bids",
                    record=lambda *_: len(lmps))
    run_scenario(cfg)
    return calls, bid_calls, len(lmps)


def test_strategy_prices_run_once_in_every_round(monkeypatch):
    """One EV strategy path: the prices run in every round that has EVs,
    also round 0, where every EV is idle, and rounds without two-sided
    ranges, whose orders do not read them."""
    cfg = builtin_config("s5", **TINY_S5)
    calls, _, n_rounds = count_strategy_rounds(monkeypatch, cfg)
    assert n_rounds == 2 * 288
    assert calls == list(range(1, n_rounds + 1))


def test_strategy_prices_never_run_without_evs(monkeypatch):
    cfg = builtin_config("s5", **dict(TINY_S5, n_ev=0))
    calls, _, n_rounds = count_strategy_rounds(monkeypatch, cfg)
    assert n_rounds == 2 * 288
    assert calls == []


def test_ev_bids_are_formulated_at_most_once_per_round(monkeypatch):
    _, bid_calls, _ = count_strategy_rounds(
        monkeypatch, builtin_config("s5", **TINY_S5))
    assert bid_calls == list(range(1, 2 * 288 + 1))
    _, bid_calls, _ = count_strategy_rounds(
        monkeypatch, builtin_config("s5", **dict(TINY_S5, n_ev=0)))
    assert bid_calls == []


def test_a_round_without_evs_reads_nothing_of_evs(monkeypatch):
    """The federate rounds the house topics to whole watts once, and a
    fleet without EVs reads no EV topic and calls no EV function."""
    for name in ("ev_strategy_prices", "formulate_ev_bids"):
        monkeypatch.setattr(substation, name, None)   # calling one fails
    sub = SubstationFederate(ScenarioConfig(n_houses=1, n_ev=0))
    ctx = StubContext(0.0, clearing_round=0,
                      bus={"houses/hvac_demand_w": (3999.6,),
                           "houses/unresponsive_w": (1199.6,),
                           "houses/pv_potential_w": (0.4,)})
    sub(ctx)
    assert not [key for key in ctx.reads if key.startswith("evs/")]
    assert ctx.published == {"dispatch/hvac_w": (4000,),
                             "dispatch/ev_load_w": ()}
    assert type(ctx.published["dispatch/hvac_w"][0]) is int
    assert list(sub.transactions.quantity) == [1200, 4000]
    row = {name: column[-1] for name, column in sub.rounds.items()}
    assert (row["unresponsive_load_w"], row["pv_potential_w"],
            row["imbalance_w"]) == (1200, 0, 0.0)


LMP = 0.0155
INF = float("inf")


def ev_round(grid_w, evs, hvac_w=0, unresp_w=0, pv_w=0,
             strategy=(LMP, 2 * LMP)):
    """`clear_round` of a one-house substation with a `grid_w` grid at
    `LMP` and the given EVs, each a (load_min_w, load_max_w, soc,
    next_depart_s) tuple, bidding at the `strategy` prices."""
    return clear_round(LMP, grid_w, [unresp_w], [hvac_w], [pv_w],
                       ScenarioConfig(n_houses=1, n_ev=len(evs)),
                       [(lo, hi) for lo, hi, _, _ in evs],
                       [soc for _, _, soc, _ in evs],
                       [depart for *_, depart in evs], strategy)


def violations(row):
    """The round's unserved loads, unfilled forced charges and
    |supply - load| in W."""
    return (row["unserved_unresponsive"], row["ev_unfilled_must_charge"],
            row["imbalance_w"])


def test_ev_bids_idle_range_produces_no_orders(books):
    ev_round(100_000, [(0, 0, 0.95, INF), (-11000, 11000, 0.50, INF),
                       (0, 0, 0.10, INF)])
    assert [o.trader for o in books[-1] if o.trader >= EV_BASE] == \
        [EV_BASE + 1, EV_SELL_BASE + 1]


# three forced charges tie on price; an 11 kW grid covers only one
FORCED = [(11000, 11000, 0.15, INF), (11000, 11000, 0.10, 50_000.0),
          (11000, 11000, 0.18, 3_600.0)]


def test_scarce_supply_goes_to_the_most_urgent_ev():
    result, _, ev_load_w, row = ev_round(11_000, FORCED)
    assert result.transactions == [
        Transaction(EV_BASE + 2, GRID_TRADER, 11000, LMP)]
    assert ev_load_w == (11000, 11000, 11000)
    assert violations(row) == (0, 2, 0.0)


def test_scarce_demand_is_served_by_the_fullest_ev():
    # three EVs above 90% SoC offer discharge only, below the grid's ask;
    # one 4 kW HVAC buy
    evs = [(-11000, 0, 0.92, INF), (-11000, 0, 0.97, INF),
           (-11000, 0, 0.95, INF)]
    result, hvac_w, ev_load_w, row = ev_round(100_000, evs, hvac_w=4000,
                                              strategy=(0.010, 0.012))
    assert [(tx.buyer, tx.seller, tx.quantity)
            for tx in result.transactions] == \
        [(HVAC_BASE + 0, EV_SELL_BASE + 1, 4000)]
    assert (hvac_w, ev_load_w) == ((4000,), (0, -4000, 0))
    assert (row["ev_discharge_w"], row["p_surplus_ev_w"]) == (4000, 29000)
    assert violations(row) == (0, 0, 0.0)


def test_pv_surplus_is_what_the_arrays_offered_and_did_not_sell():
    # two arrays on three houses ask less than the grid, so the 4 kW
    # HVAC packet buys 4000 W of the 4800 W they offer
    result, _, _, row = clear_round(LMP, 100_000, [0, 0, 0], [4000, 0, 0],
                                    [2400, 2400],
                                    ScenarioConfig(n_houses=3, n_pv=2))
    assert [(tx.seller, tx.quantity) for tx in result.transactions] == \
        [(PV_BASE, 2400), (PV_BASE + 1, 1600)]
    assert (row["pv_potential_w"], row["pv_supplied_w"],
            row["p_surplus_pv_w"]) == (4800, 4000, 800)
    assert violations(row) == (0, 0, 0.0)


def test_unfilled_forced_charge_is_served_through_slack():
    # the two forced charges the grid cannot cover still charge at their
    # range minimum, counted as EV charge and as out-of-market supply
    _, _, _, row = ev_round(11_000, FORCED)
    assert (row["ev_charge_w"], row["grid_supplied_w"]) == (33000, 11000)
    assert row["imbalance_w"] == 0.0


def test_an_unfilled_one_watt_appliance_load_is_unserved():
    # an appliance bid below the grid's ask never fills
    result, _, _, row = clear_round(
        LMP, 100_000, [1], [0], [0],
        ScenarioConfig(n_houses=1, prices_unresponsive=0.001))
    assert result.transactions == []
    assert violations(row) == (1, 0, 0.0)     # served through slack


def test_an_unfilled_one_watt_forced_charge_is_served_through_slack():
    # the least charger, 1 W: the 1 W grid serves the appliance load,
    # which ties on price and ranks first, and the forced charge goes
    # through slack
    result, _, ev_load_w, row = ev_round(1, [(1, 1, 0.10, INF)], unresp_w=1)
    assert [(tx.buyer, tx.quantity) for tx in result.transactions] == \
        [(UNRESP_BASE, 1)]
    assert ev_load_w == (1,)
    assert (row["p_target_w"], row["ev_charge_w"]) == (2, 1)
    assert violations(row) == (0, 1, 0.0)


def test_fractional_bus_values_trade_dispatch_and_account_in_whole_watts(
        books):
    """The federate rounds the house topics (see above); the round then
    bids, dispatches and sums the whole watts it is given. Its row holds
    every round-log column but the time and the house means."""
    # the grid covers the 1200 W appliance packet but not the forced
    # charge
    evs = [(11000, 11000, 0.10, INF), (0, 0, 0.50, INF)]
    _, hvac_w, ev_load_w, row = ev_round(1200, evs, unresp_w=1200)
    assert [(o.trader, o.quantity) for o in books[-1]] == \
        [(GRID_TRADER, 1200), (UNRESP_BASE, 1200), (EV_BASE, 11000)]
    assert ev_load_w == (11000, 0)
    assert all(type(w) is int for w in ev_load_w + hvac_w)
    assert set(row) == set(ROUND_COLUMNS) - {
        "t_s", "mean_t_air_c", "mean_setpoint_c", "mean_t_excess2"}
    assert row["p_target_w"] == 1200 + 11000
    assert (row["unresponsive_load_w"], row["ev_charge_w"]) == (1200, 11000)
    assert (row["pv_potential_w"], row["p_surplus_pv_w"]) == (0, 0)
    assert violations(row) == (0, 1, 0.0)
    # (-11000, 0) is a two-sided range that only sells, at the strategy
    # price
    ev_round(100_000, [(-11000, 0, 0.50, INF)])
    assert [(o.trader, o.side, o.price) for o in books[-1]] == \
        [(GRID_TRADER, Side.SELL, LMP), (EV_SELL_BASE, Side.SELL, 2 * LMP)]


def test_a_run_counts_each_violation_in_its_rounds(tmp_path, monkeypatch):
    """The run's substation violations are the sums of the round log's
    counts, its imbalance the column's maximum, and time_series.csv
    holds none of the three columns: on a 1 kW grid, the houses' loads
    go unserved and the nearly empty EVs' forced charges unfilled. No
    round is out of balance, so one is made so, by 2.5 W."""
    clear, calls = substation.clear_round, itertools.count(1)

    def unbalanced(*args):
        cleared = clear(*args)
        if next(calls) == 100:
            cleared[-1]["imbalance_w"] = 2.5
        return cleared

    monkeypatch.setattr(substation, "clear_round", unbalanced)
    # test_cli's starved grid, with EVs that start below the 20% gate
    result = run_scenario(builtin_config(
        "s2", n_houses=4, grid_capacity_kw=1.0, seed=2, days=2,
        discard_days=1, n_ev=4, ev_initial_soc_range=(0.05, 0.1)),
        out_dir=tmp_path)
    rounds = result.rounds
    assert result.violations["unserved_unresponsive"] == \
        sum(rounds["unserved_unresponsive"]) > 0
    assert result.violations["ev_unfilled_must_charge"] == \
        sum(rounds["ev_unfilled_must_charge"]) > 0
    assert result.max_imbalance_w == max(rounds["imbalance_w"]) == 2.5
    assert sum(rounds["imbalance_w"]) == 2.5
    assert result.violations["power_imbalance"] == 1
    with open(tmp_path / "time_series.csv") as fh:
        assert fh.readline() == (
            "t_s,lmp,round_vwap,grid_supplied_w,pv_potential_w,"
            "pv_supplied_w,ev_charge_w,ev_discharge_w,hvac_load_w,"
            "unresponsive_load_w,mean_t_air_c,mean_setpoint_c,"
            "mean_t_excess2\n")
