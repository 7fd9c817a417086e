"""Bid formulation, grid pricing and the EV bidding strategy."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petgrid import substation
from petgrid.market import Side, match_orders
from petgrid.runner import ScenarioConfig, builtin_config, run_scenario
from petgrid.substation import (EV_BASE, EV_SELL_BASE, GRID_TRADER,
                                HVAC_BASE, LmpHistory, PV_BASE, PriceBook,
                                SubstationFederate, UNRESP_BASE, base_price,
                                compute_lmp, ev_bids_two_sided,
                                ev_strategy_prices, formulate_ev_bids,
                                formulate_grid_bid, formulate_house_bids)

H = 3600.0
PRICES = PriceBook()


def test_base_price_trough_and_peak_hours():
    hours = np.arange(0, 24, 0.25)
    values = [base_price(h * H, 0.012, 0.25) for h in hours]
    assert hours[int(np.argmin(values))] == 4.0
    assert hours[int(np.argmax(values))] == 18.0
    assert min(values) == pytest.approx(0.012 * 0.75)
    assert max(values) == pytest.approx(0.012 * 1.25)


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
    assert compute_lmp(500_000.0, 100_000.0, t) == \
        compute_lmp(100_000.0, 100_000.0, t)
    with pytest.raises(ValueError):
        compute_lmp(1000.0, 0.0, t)


def test_lmp_cheaper_at_night_for_equal_load():
    u_w, cap = 50_000.0, 100_000.0
    assert compute_lmp(u_w, cap, 4 * H) < compute_lmp(u_w, cap, 18 * H)


def test_grid_bid_is_capacity_at_lmp():
    order = formulate_grid_bid(100_000.0, 0.0175)
    assert order.trader == GRID_TRADER
    assert order.side is Side.SELL
    assert order.quantity == 100_000
    assert order.price == 0.0175


def test_house_bids_unresponsive_hvac_pv():
    orders = formulate_house_bids(3, 1200.0, 4000.0, 4800.0, PRICES)
    by_trader = {o.trader: o for o in orders}
    unresp = by_trader[UNRESP_BASE + 3]
    assert (unresp.side, unresp.quantity, unresp.price) == \
        (Side.BUY, 1200, 1.00)
    assert unresp.responsive is False
    hvac = by_trader[HVAC_BASE + 3]
    assert (hvac.side, hvac.quantity, hvac.price) == (Side.BUY, 4000, 0.50)
    pv = by_trader[PV_BASE + 3]
    assert (pv.side, pv.quantity, pv.price) == (Side.SELL, 4800, 0.0148)


def test_house_bids_zero_quantities_omitted():
    assert formulate_house_bids(0, 0.0, 0.0, 0.0, PRICES) == []
    assert len(formulate_house_bids(0, 900.0, 0.0, 0.0, PRICES)) == 1


class StubHistory:
    def __init__(self, ma_long, ma_short, iqr_long):
        self.ma_long = ma_long
        self.ma_short = ma_short
        self.iqr_long = iqr_long


def test_ev_strategy_constant_history_degenerates_to_equality():
    hist = LmpHistory(300.0)
    for k in range(300):
        hist.append(k * 300.0, 0.017)
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
    for k, v in enumerate(values):
        hist.append(k * 300.0, v)
    assert hist.ma_long == pytest.approx(np.mean(values))
    assert hist.ma_short == pytest.approx(np.mean(values[-6:]))  # last 30 min
    assert hist.iqr_long == pytest.approx(
        np.percentile(values, 75) - np.percentile(values, 25))
    # ring buffer: a day later the early values must have fallen out
    for k, v in enumerate(values):
        hist.append((288 + k) * 300.0, v + 0.1)
    assert hist.ma_long == pytest.approx(np.mean(values) + 0.1)


def test_history_empty_raises():
    hist = LmpHistory()
    with pytest.raises(ValueError):
        hist.ma_long


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.001, 0.5), min_size=1, max_size=288))
def test_sell_price_never_below_buy_price(series):
    hist = LmpHistory(300.0)
    for k, v in enumerate(series):
        hist.append(k * 300.0, v)
    buy_p, sell_p = ev_strategy_prices(hist)
    assert sell_p >= buy_p
    assert buy_p == float(np.mean(series))


def test_history_statistics_match_separate_computations():
    """One shared array and one two-quantile percentile call give the
    same bits as computing each statistic on its own."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 287, 288, 400):
        series = np.round(rng.uniform(0.01, 0.03, size=n), 4)
        hist = LmpHistory(300.0)
        for k, v in enumerate(series):
            hist.append(k * 300.0, float(v))
        window = series[-288:]
        assert hist.ma_long == float(np.mean(window))
        assert hist.ma_short == float(np.mean(window[-6:]))
        assert hist.iqr_long == float(np.percentile(window, 75)
                                      - np.percentile(window, 25))


def test_ev_bids_forced_charge():
    orders = formulate_ev_bids(11000.0, 11000.0, None, 4, PRICES, 4, 4)
    assert len(orders) == 1
    o = orders[0]
    assert (o.trader, o.side, o.quantity, o.price) == \
        (EV_BASE + 4, Side.BUY, 11000, PRICES.unresponsive)


def test_ev_bids_must_discharge_at_floor():
    orders = formulate_ev_bids(-11000.0, -11000.0, None, 4, PRICES, 4, 4)
    assert len(orders) == 1
    o = orders[0]
    assert (o.trader, o.side, o.quantity, o.price) == \
        (EV_SELL_BASE + 4, Side.SELL, 11000, PRICES.ev_floor)


def test_ev_bids_two_sided_with_strategy_prices():
    strategy = ev_strategy_prices(StubHistory(0.020, 0.030, 0.010))
    orders = formulate_ev_bids(-11000.0, 11000.0, strategy, 2, PRICES,
                               buy_rank=5, sell_rank=7)
    by_side = {o.side: o for o in orders}
    assert by_side[Side.BUY].trader == EV_BASE + 2
    assert by_side[Side.BUY].priority == EV_BASE + 5
    assert by_side[Side.BUY].quantity == 11000
    assert by_side[Side.BUY].price == 0.020
    assert by_side[Side.SELL].trader == EV_SELL_BASE + 2
    assert by_side[Side.SELL].priority == EV_SELL_BASE + 7
    assert by_side[Side.SELL].quantity == 11000
    assert by_side[Side.SELL].price == pytest.approx(0.031)


def test_ev_bids_idle_range_produces_no_orders():
    assert formulate_ev_bids(0.0, 0.0, None, 0, PRICES, 0, 0) == []


def test_two_sided_classification():
    assert ev_bids_two_sided(-11000.0, 11000.0)
    assert ev_bids_two_sided(0.0, 11000.0)
    assert ev_bids_two_sided(-11000.0, 0.2)
    assert not ev_bids_two_sided(0.0, 0.4)       # idle after rounding
    assert not ev_bids_two_sided(500.0, 11000.0)  # forced charge
    assert not ev_bids_two_sided(-11000.0, -500.0)  # forced discharge


def test_ev_does_not_cross_its_own_orders_when_iqr_positive():
    """With any price spread the sell sits strictly above the buy, so an
    EV's own ask is never eligible against its own bid."""
    strategy = ev_strategy_prices(StubHistory(0.020, 0.020, 0.004))
    orders = formulate_ev_bids(-11000.0, 11000.0, strategy, 0, PRICES, 0, 0)
    assert match_orders(orders).transactions == []


# ---------------------------------------------------------------------------
# The substation round: strategy prices once per round, EV priority
# ---------------------------------------------------------------------------

TINY_S5 = dict(n_houses=3, n_ev=3, n_pv=3, days=2, discard_days=1)


def count_strategy_rounds(monkeypatch, cfg):
    """Run `cfg`; return the round index of every `ev_strategy_prices`
    call and the rounds in which some EV bid two-sided."""
    calls, two_sided, n_rounds = [], set(), 0
    lmp, strategy, bids = (substation.compute_lmp,
                           substation.ev_strategy_prices,
                           substation.formulate_ev_bids)

    def counting_lmp(*args):        # runs once at the start of each round
        nonlocal n_rounds
        n_rounds += 1
        return lmp(*args)

    def counting_strategy(hist):
        calls.append(n_rounds)
        return strategy(hist)

    def recording_bids(lo, hi, *args):
        if ev_bids_two_sided(lo, hi):
            two_sided.add(n_rounds)
        return bids(lo, hi, *args)

    monkeypatch.setattr(substation, "compute_lmp", counting_lmp)
    monkeypatch.setattr(substation, "ev_strategy_prices", counting_strategy)
    monkeypatch.setattr(substation, "formulate_ev_bids", recording_bids)
    run_scenario(cfg)
    return calls, two_sided, n_rounds


def test_strategy_prices_run_at_most_once_per_round(monkeypatch):
    cfg = builtin_config("s5", **TINY_S5)
    calls, two_sided, n_rounds = count_strategy_rounds(monkeypatch, cfg)
    assert n_rounds == 2 * 288
    assert max(Counter(calls).values()) == 1
    # and only in rounds where at least one EV bids two-sided
    assert set(calls) == two_sided
    assert 0 < len(calls) <= n_rounds


def test_strategy_prices_never_run_without_evs(monkeypatch):
    cfg = builtin_config("s5", **dict(TINY_S5, n_ev=0))
    calls, two_sided, n_rounds = count_strategy_rounds(monkeypatch, cfg)
    assert n_rounds == 2 * 288
    assert calls == [] and two_sided == set()


class StubContext:
    """One round's bus: reads come from `values`, publishes are kept."""

    def __init__(self, values, t=0.0):
        self.t = t
        self.values = values
        self.published = {}

    def read(self, key, default=0.0):
        return self.values.get(key, default)

    def publish(self, key, value):
        self.published[key] = value


def ev_round(grid_kw, evs, hvac_w=0.0):
    """Clear one round of a one-house substation with the given EVs,
    each a (load_min_w, load_max_w, soc, next_depart_s) tuple."""
    values = {"houses/hvac_demand_w": (hvac_w,),
              "evs/load_range_w": tuple((lo, hi) for lo, hi, _, _ in evs),
              "evs/soc": tuple(soc for _, _, soc, _ in evs),
              "evs/next_depart_s": tuple(depart for *_, depart in evs)}
    sub = SubstationFederate(ScenarioConfig(grid_capacity_kw=grid_kw), 1,
                             len(evs), PRICES)
    ctx = StubContext(values)
    sub(ctx)
    return sub, ctx


def test_scarce_supply_goes_to_the_most_urgent_ev():
    # three forced charges tie on price; the grid covers only one of them
    evs = [(11000.0, 11000.0, 0.15, float("inf")),
           (11000.0, 11000.0, 0.10, 50_000.0),
           (11000.0, 11000.0, 0.18, 3_600.0)]
    sub, ctx = ev_round(11.0, evs)
    assert [(tx.buyer, tx.seller, tx.quantity) for tx in sub.transactions] \
        == [(EV_BASE + 2, GRID_TRADER, 11000)]
    assert ctx.published["dispatch/ev_load_w"] == (11000.0, 11000.0, 11000.0)
    assert sub.ev_unfilled_must_charge == 2


def test_scarce_demand_is_served_by_the_fullest_ev():
    # three forced discharges at the floor price, one 4 kW HVAC buy
    evs = [(-11000.0, -11000.0, 0.92, float("inf")),
           (-11000.0, -11000.0, 0.97, float("inf")),
           (-11000.0, -11000.0, 0.95, float("inf"))]
    sub, ctx = ev_round(100.0, evs, hvac_w=4000.0)
    assert [(tx.buyer, tx.seller, tx.quantity) for tx in sub.transactions] \
        == [(HVAC_BASE + 0, EV_SELL_BASE + 1, 4000)]
    assert ctx.published["dispatch/ev_load_w"] == (0.0, -4000.0, 0.0)
    assert ctx.published["dispatch/hvac_w"] == (4000.0,)


def test_unfilled_forced_charge_is_served_through_slack():
    # the two forced charges the grid cannot cover still charge at their
    # range minimum, counted as EV charge and as out-of-market supply
    evs = [(11000.0, 11000.0, 0.15, float("inf")),
           (11000.0, 11000.0, 0.10, 50_000.0),
           (11000.0, 11000.0, 0.18, 3_600.0)]
    sub, _ = ev_round(11.0, evs)
    sample = sub.samples[-1]
    assert sample.ev_charge_w == 33000.0
    assert sample.grid_supplied_w == 11000.0
    assert sub.max_imbalance_w == 0.0
