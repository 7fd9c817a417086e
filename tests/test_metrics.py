"""Metric formulas and analysis-window aggregation."""

import numpy as np
import pytest

from petgrid.market import Transaction
from petgrid.metrics import MetricsSample, average_day, summarize, t_excess2


def test_t_excess2_formula():
    assert t_excess2(26.0, 24.0) == 4.0
    assert t_excess2(23.0, 24.0) == 0.0
    assert t_excess2(24.0, 24.0) == 0.0


def sample(t, ex2=0.0, vwap=None, **kw):
    defaults = dict(p_target_w=0.0, p_supplied_w=0.0, p_surplus_pv_w=0.0,
                    p_surplus_ev_w=0.0, lmp=0.015)
    defaults.update(kw)
    return MetricsSample(t=t, mean_t_excess2=ex2, round_vwap=vwap, **defaults)


def test_constant_integrand_average():
    samples = [sample(t, ex2=4.0) for t in np.arange(0.0, 3600.0, 300.0)]
    out = summarize(samples, [], 0.0, 3600.0)
    assert out.t_excess2_bar == pytest.approx(4.0)


def test_two_segment_trapezoid_average():
    # value 2.0 on the first half, 4.0 on the second: time average 3.0
    samples = [sample(0.0, ex2=2.0), sample(1000.0, ex2=2.0),
               sample(1000.0, ex2=4.0), sample(2000.0, ex2=4.0)]
    out = summarize(samples, [], 0.0, 2000.0)
    assert out.t_excess2_bar == pytest.approx(3.0)


def test_window_filtering_excludes_warmup():
    samples = [sample(t, ex2=100.0) for t in np.arange(0.0, 1000.0, 100.0)]
    samples += [sample(t, ex2=1.0) for t in np.arange(1000.0, 2100.0, 100.0)]
    out = summarize(samples, [], 1000.0, 2000.0)
    assert out.t_excess2_bar == pytest.approx(1.0)


def test_empty_window_rejected():
    with pytest.raises(ValueError, match="empty"):
        summarize([sample(0.0)], [], 5000.0, 6000.0)


def test_vwap_volume_weighted_over_window_transactions():
    txs = [Transaction(1, 2, 2000, 0.010, round_index=10),
           Transaction(1, 3, 1000, 0.016, round_index=11),
           Transaction(1, 3, 9999, 0.500, round_index=0)]  # before window
    samples = [sample(t) for t in np.arange(3000.0, 3700.0, 300.0)]
    out = summarize(samples, txs, 3000.0, 3600.0)
    assert out.vwap_bar == pytest.approx(0.012)


def test_vwap_bounded_by_window_prices():
    rng = np.random.default_rng(0)
    txs = [Transaction(1, 2, int(rng.integers(1, 5000)),
                       float(rng.uniform(0.01, 0.03)), round_index=k)
           for k in range(20)]
    samples = [sample(t) for t in np.arange(0.0, 6300.0, 300.0)]
    out = summarize(samples, txs, 0.0, 6000.0)
    prices = [tx.price for tx in txs]
    assert min(prices) <= out.vwap_bar <= max(prices)


def test_vwap_round_mean_mode_and_no_trade_marker():
    samples = [sample(0.0, vwap=0.010), sample(300.0, vwap=None),
               sample(600.0, vwap=0.020)]
    out = summarize(samples, [], 0.0, 600.0, vwap_mode="round_mean")
    assert out.vwap_bar == pytest.approx(0.015)
    out = summarize(samples, [], 0.0, 600.0)
    assert out.vwap_bar is None  # volume mode with no transactions
    with pytest.raises(ValueError):
        summarize(samples, [], 0.0, 600.0, vwap_mode="median")


def test_violation_count_totalled():
    out = summarize([sample(0.0)], [], 0.0, 0.0,
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
