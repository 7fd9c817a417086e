"""Metric formulas and analysis-window aggregation."""

import numpy as np
import pytest

from petgrid.market import MarketResult, Transaction, TransactionLog, vwap
from petgrid.metrics import MetricsSample, average_day, summarize, t_excess2


def test_t_excess2_formula():
    assert t_excess2(26.0, 24.0) == 4.0
    assert t_excess2(23.0, 24.0) == 0.0
    assert t_excess2(24.0, 24.0) == 0.0


def sample(t, ex2=0.0, vwap=None, **kw):
    fields = dict.fromkeys(
        ("p_target_w", "p_supplied_w", "p_surplus_pv_w", "p_surplus_ev_w",
         "grid_supplied_w", "pv_potential_w", "pv_supplied_w", "ev_charge_w",
         "ev_discharge_w", "hvac_load_w", "unresponsive_load_w",
         "mean_t_air_c", "mean_setpoint_c"), 0.0)
    return MetricsSample(t=t, mean_t_excess2=ex2, round_vwap=vwap,
                         **fields | {"lmp": 0.015} | kw)


def fill_log(txs=()):
    """The fills as a run's log holds them: in round order."""
    log = TransactionLog()
    log.extend(sorted(txs, key=lambda tx: tx.round_index))
    return log


def test_constant_integrand_average():
    samples = [sample(t, ex2=4.0) for t in np.arange(0.0, 3600.0, 300.0)]
    out = summarize(samples, fill_log(), 0.0, 3600.0, 300.0)
    assert out.t_excess2_bar == pytest.approx(4.0)


def test_two_segment_trapezoid_average():
    # value 2.0 on the first half, 4.0 on the second: time average 3.0
    samples = [sample(0.0, ex2=2.0), sample(1000.0, ex2=2.0),
               sample(1000.0, ex2=4.0), sample(2000.0, ex2=4.0)]
    out = summarize(samples, fill_log(), 0.0, 2000.0, 300.0)
    assert out.t_excess2_bar == pytest.approx(3.0)


def test_window_filtering_excludes_warmup():
    samples = [sample(t, ex2=100.0) for t in np.arange(0.0, 1000.0, 100.0)]
    samples += [sample(t, ex2=1.0) for t in np.arange(1000.0, 2100.0, 100.0)]
    out = summarize(samples, fill_log(), 1000.0, 2000.0, 300.0)
    assert out.t_excess2_bar == pytest.approx(1.0)


def test_empty_window_rejected():
    with pytest.raises(ValueError, match="empty"):
        summarize([sample(0.0)], fill_log(), 5000.0, 6000.0, 300.0)


def test_vwap_volume_weighted_over_window_transactions():
    txs = [Transaction(1, 2, 2000, 0.010, round_index=10),
           Transaction(1, 3, 1000, 0.016, round_index=11),
           Transaction(1, 3, 9999, 0.500, round_index=0)]  # before window
    samples = [sample(t) for t in np.arange(3000.0, 3700.0, 300.0)]
    out = summarize(samples, fill_log(txs), 3000.0, 3600.0, 300.0)
    assert out.vwap_bar == pytest.approx(0.012)


def test_vwap_bar_is_the_market_vwap_of_the_window():
    txs = [Transaction(1, 2, 1, 1e16, round_index=1),
           Transaction(1, 3, 1, 1.0, round_index=2),
           Transaction(1, 4, 1, 1.0, round_index=3)]
    samples = [sample(t) for t in np.arange(0.0, 1200.0, 300.0)]
    out = summarize(samples, fill_log(txs), 0.0, 900.0, 300.0)
    assert out.vwap_bar == MarketResult(txs).round_vwap == \
        ((1e16 + 1.0) + 1.0) / 3


def test_vwap_bounded_by_window_prices():
    rng = np.random.default_rng(0)
    txs = [Transaction(1, 2, int(rng.integers(1, 5000)),
                       float(rng.uniform(0.01, 0.03)), round_index=k)
           for k in range(20)]
    samples = [sample(t) for t in np.arange(0.0, 6300.0, 300.0)]
    out = summarize(samples, fill_log(txs), 0.0, 6000.0, 300.0)
    prices = [tx.price for tx in txs]
    assert min(prices) <= out.vwap_bar <= max(prices)


def test_vwap_bar_from_a_log_equals_the_materialised_window():
    rng = np.random.default_rng(3)
    log, txs = fill_log(), []
    for k in range(40):
        fills = [Transaction(int(rng.integers(1000, 6000)),
                             int(rng.integers(0, 6000)),
                             int(rng.integers(1, 12_000)),
                             float(rng.uniform(0.001, 1.0)), k)
                 for _ in range(int(rng.integers(0, 6)))]
        log.extend(fills)
        txs.extend(fills)
    samples = [sample(t) for t in np.arange(0.0, 12_000.0, 300.0)]
    for start, end in ((0.0, 11_700.0), (3000.0, 9000.0), (3100.0, 3500.0)):
        window = [tx for tx in txs if start <= tx.round_index * 300.0 <= end]
        assert summarize(samples, log, start, end, 300.0).vwap_bar == \
            vwap([tx.quantity for tx in window], [tx.price for tx in window])


def test_vwap_no_trade_marker():
    samples = [sample(0.0, vwap=0.010), sample(300.0, vwap=None),
               sample(600.0, vwap=0.020)]
    out = summarize(samples, fill_log(), 0.0, 600.0, 300.0)
    assert out.vwap_bar is None  # no transactions in the window


def test_violation_count_totalled():
    out = summarize([sample(0.0)], fill_log(), 0.0, 0.0, 300.0,
                    violations={"a": 2, "b": 3})
    assert out.violation_count == 5
    assert out.violations == {"a": 2, "b": 3}


def test_average_day_slot_means():
    # two days of samples; slot values differ by day, averages split them
    day = 86400.0
    samples = []
    for d in range(2):
        for k in range(288):
            t = d * day + k * 300.0
            samples.append(sample(t, lmp=0.01 * (d + 1),
                                  grid_supplied_w=float(k)))
    tod, cols = average_day(samples, 300.0, 0.0, 2 * day)
    assert len(tod) == 288
    assert tod[1] == 300.0
    assert cols["lmp"][0] == pytest.approx(0.015)
    assert cols["grid_supplied_w"][42] == pytest.approx(42.0)


def test_average_day_additivity_against_summary():
    """The mean of the average-day curve equals the plain mean of the
    window samples when every slot has equal coverage."""
    rng = np.random.default_rng(1)
    day = 86400.0
    values = rng.uniform(0.0, 5.0, size=(3, 288))
    samples = [sample(d * day + k * 300.0, grid_supplied_w=values[d, k])
               for d in range(3) for k in range(288)]
    _, cols = average_day(samples, 300.0, 0.0, 3 * day)
    assert np.mean(cols["grid_supplied_w"]) == pytest.approx(values.mean())
