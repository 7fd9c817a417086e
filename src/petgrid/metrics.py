"""Evaluation metrics: QoS temperature excess, supply utilization, cost.

Summaries are computed over the analysis window (after the discarded
warm-up days) with trapezoidal time averages and a volume-weighted
average transaction price.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .market import TransactionLog, vwap


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


def summarize(rounds: dict, transactions: TransactionLog, start: int,
              stop: int, violations: dict | None = None) -> ScenarioSummary:
    """Aggregate the round log and transactions over the analysis window,
    rows start .. stop - 1. Row r is round r, so the VWAP weights the
    fills of those rounds by quantity: one slice of the fill log, read
    through memoryviews."""
    ts = np.array(rounds["t_s"][start:stop])

    def bar(name):
        return _trapz_mean(ts, np.array(rounds[name][start:stop]))

    lo, hi = transactions.first_fill(start), transactions.first_fill(stop)
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


def average_day(rounds: dict, t_market_s: float, rounds_per_day: int,
                start: int, stop: int):
    """Average each time-of-day slot over the analysis window, rows
    start .. stop - 1, where row r is in slot r % rounds_per_day.
    Returns (time_of_day_s, {column: values}), one value per slot.
    `np.bincount` adds each slot's values in round order starting from
    0.0, so every sum is the left-to-right one."""
    slot = np.arange(start, stop) % rounds_per_day
    counts = np.maximum(np.bincount(slot, minlength=rounds_per_day), 1)
    tod = np.arange(rounds_per_day) * t_market_s
    return tod, {c: np.bincount(slot, np.array(rounds[c][start:stop]),
                                rounds_per_day) / counts
                 for c in AVERAGE_DAY_COLUMNS}
