"""Evaluation metrics: QoS temperature excess, supply utilization, cost.

Summaries are computed over the analysis window (after the discarded
warm-up days) with trapezoidal time averages and a volume-weighted
average transaction price.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .market import TransactionLog, vwap
from .weather import DAY_S


def t_excess2(t_air: float, t_setpoint: float) -> float:
    """Squared positive deviation of air temperature above the setpoint."""
    return max(t_air - t_setpoint, 0.0) ** 2


@dataclass
class MetricsSample:
    """One market round's worth of fleet-level observations."""

    t: float
    mean_t_excess2: float
    p_target_w: float
    p_supplied_w: float
    p_surplus_pv_w: float
    p_surplus_ev_w: float
    round_vwap: float | None
    lmp: float
    grid_supplied_w: float
    pv_potential_w: float
    pv_supplied_w: float
    ev_charge_w: float
    ev_discharge_w: float
    hvac_load_w: float
    unresponsive_load_w: float
    mean_t_air_c: float
    mean_setpoint_c: float


@dataclass
class ScenarioSummary:
    t_excess2_bar: float
    vwap_bar: float | None
    p_target_bar_w: float
    p_supplied_bar_w: float
    p_surplus_pv_bar_w: float
    p_surplus_ev_bar_w: float
    violation_count: int
    violations: dict = field(default_factory=dict)


def _trapz_mean(ts: np.ndarray, vs: np.ndarray) -> float:
    if len(ts) == 1:
        return float(vs[0])
    span = ts[-1] - ts[0]
    return float(np.trapezoid(vs, ts) / span)


def summarize(samples: list[MetricsSample], transactions: TransactionLog,
              window_start_s: float, window_end_s: float, t_market_s: float,
              violations: dict | None = None) -> ScenarioSummary:
    """Aggregate round samples and transactions over the analysis window.

    The VWAP weights every window transaction by its quantity. The log's
    rounds are in clearing order, so the window's fills are one slice,
    found by bisection and read through memoryviews without a copy.
    """
    window = [s for s in samples if window_start_s <= s.t <= window_end_s]
    if not window:
        raise ValueError("empty analysis window")
    ts = np.array([s.t for s in window])

    def bar(getter):
        return _trapz_mean(ts, np.array([getter(s) for s in window]))

    rounds = transactions.round_index
    lo = bisect_left(rounds, window_start_s, key=lambda r: r * t_market_s)
    hi = bisect_right(rounds, window_end_s, key=lambda r: r * t_market_s)
    violations = dict(violations or {})
    return ScenarioSummary(
        t_excess2_bar=bar(lambda s: s.mean_t_excess2),
        vwap_bar=vwap(memoryview(transactions.quantity)[lo:hi],
                      memoryview(transactions.price)[lo:hi]),
        p_target_bar_w=bar(lambda s: s.p_target_w),
        p_supplied_bar_w=bar(lambda s: s.p_supplied_w),
        p_surplus_pv_bar_w=bar(lambda s: s.p_surplus_pv_w),
        p_surplus_ev_bar_w=bar(lambda s: s.p_surplus_ev_w),
        violation_count=int(sum(violations.values())),
        violations=violations,
    )


def average_day(samples: list[MetricsSample], t_market_s: float,
                window_start_s: float, window_end_s: float):
    """Average each time-of-day slot across the analysis days.

    Returns (time_of_day_s, {column: values}) with one row per market
    round slot in a day.
    """
    slots = int(DAY_S / t_market_s)
    columns = ["lmp", "grid_supplied_w", "pv_potential_w", "pv_supplied_w",
               "ev_charge_w", "ev_discharge_w", "hvac_load_w",
               "unresponsive_load_w", "p_target_w", "p_supplied_w",
               "p_surplus_pv_w", "mean_t_air_c", "mean_setpoint_c",
               "mean_t_excess2"]
    sums = {c: np.zeros(slots) for c in columns}
    counts = np.zeros(slots)
    for s in samples:
        if not (window_start_s <= s.t <= window_end_s):
            continue
        slot = int((s.t % DAY_S) / t_market_s)
        counts[slot] += 1
        for c in columns:
            sums[c][slot] += getattr(s, c)
    counts = np.maximum(counts, 1)
    tod = np.arange(slots) * t_market_s
    return tod, {c: sums[c] / counts for c in columns}
