"""Evaluation metrics: QoS temperature excess, supply utilization, cost.

Summaries are computed over the analysis window (after the discarded
warm-up days) with trapezoidal time averages and a volume-weighted
average transaction price.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .market import TransactionLog, vwap
from .weather import DAY_S


def t_excess2(t_air: float, t_setpoint: float) -> float:
    """Squared positive deviation of air temperature above the setpoint."""
    d = t_air - t_setpoint
    # d ** 2, not d * d, which differs from it in the last bit for some d
    return d ** 2 if d > 0.0 else 0.0


# time_series.csv's columns in file order, then the power sums that only
# the summary reads: the round log's columns, in this order
TIME_SERIES_COLUMNS = (
    "t_s", "lmp", "round_vwap", "grid_supplied_w", "pv_potential_w",
    "pv_supplied_w", "ev_charge_w", "ev_discharge_w", "hvac_load_w",
    "unresponsive_load_w", "mean_t_air_c", "mean_setpoint_c", "mean_t_excess2")
ROUND_COLUMNS = TIME_SERIES_COLUMNS + (
    "p_target_w", "p_supplied_w", "p_surplus_pv_w", "p_surplus_ev_w")
AVERAGE_DAY_COLUMNS = (
    "lmp", "grid_supplied_w", "pv_potential_w", "pv_supplied_w",
    "ev_charge_w", "ev_discharge_w", "hvac_load_w", "unresponsive_load_w",
    "p_target_w", "p_supplied_w", "p_surplus_pv_w", "mean_t_air_c",
    "mean_setpoint_c", "mean_t_excess2")


def round_log() -> dict:
    """An empty round log: one column per name in ROUND_COLUMNS, to hold
    one value per market round in round order. time_series.csv formats a
    value by its type: the grid's fill stays the int the matcher sold, a
    round without fills has a None VWAP, and the rest are floats."""
    return {name: [] if name == "round_vwap"
            else array("q" if name == "grid_supplied_w" else "d")
            for name in ROUND_COLUMNS}


def append_round(log: dict, **values) -> None:
    """Append one round's observations, one keyword per column."""
    for name, column in log.items():
        column.append(values[name])


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
    if len(ts) == 1:    # one round a day and one analysis day
        return float(vs[0])
    span = ts[-1] - ts[0]
    return float(np.trapezoid(vs, ts) / span)


def _window(t_s, start_s: float, end_s: float) -> slice:
    """The rounds within [start_s, end_s], which are in time order."""
    return slice(bisect_left(t_s, start_s), bisect_right(t_s, end_s))


def summarize(rounds: dict, transactions: TransactionLog,
              window_start_s: float, window_end_s: float,
              violations: dict | None = None) -> ScenarioSummary:
    """Aggregate the round log and transactions over the analysis window.

    The VWAP weights every window transaction by its quantity. Row r of
    the round log is round r, so the window's fills are those of its rows'
    rounds: one slice, found by bisecting the log's round entries and
    read through memoryviews.
    """
    window = _window(rounds["t_s"], window_start_s, window_end_s)
    ts = np.array(rounds["t_s"][window])

    def bar(name):
        return _trapz_mean(ts, np.array(rounds[name][window]))

    lo, hi = map(transactions.first_fill, (window.start, window.stop))
    violations = dict(violations or {})
    return ScenarioSummary(
        t_excess2_bar=bar("mean_t_excess2"),
        vwap_bar=vwap(memoryview(transactions.quantity)[lo:hi],
                      memoryview(transactions.price)[lo:hi]),
        p_target_bar_w=bar("p_target_w"),
        p_supplied_bar_w=bar("p_supplied_w"),
        p_surplus_pv_bar_w=bar("p_surplus_pv_w"),
        p_surplus_ev_bar_w=bar("p_surplus_ev_w"),
        violation_count=int(sum(violations.values())),
        violations=violations,
    )


def average_day(rounds: dict, t_market_s: float,
                window_start_s: float, window_end_s: float):
    """Average each time-of-day slot across the analysis days.

    Returns (time_of_day_s, {column: values}) with one row per market
    round slot in a day. `np.bincount` adds each slot's values in round
    order starting from 0.0, so every sum is the left-to-right one.
    """
    slots = int(DAY_S / t_market_s)
    window = _window(rounds["t_s"], window_start_s, window_end_s)
    slot = (np.array(rounds["t_s"][window]) % DAY_S / t_market_s).astype(int)
    counts = np.maximum(np.bincount(slot, minlength=slots), 1)
    tod = np.arange(slots) * t_market_s
    return tod, {c: np.bincount(slot, np.array(rounds[c][window]), slots)
                 / counts for c in AVERAGE_DAY_COLUMNS}
