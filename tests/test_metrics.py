"""Metric formulas and analysis-window aggregation."""

import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from petgrid.kernel import whole_steps
from petgrid.market import MarketResult, Transaction, TransactionLog, vwap
from petgrid.metrics import (AVERAGE_DAY_COLUMNS, ROUND_COLUMNS, append_round,
                             average_day, round_log, summarize, t_excess2)
from petgrid.runner import (BUILTIN_SCENARIOS, ScenarioConfig, builtin_config,
                            run_scenario, write_outputs)
from petgrid.weather import DAY_S


def test_t_excess2_formula():
    assert t_excess2(26.0, 24.0) == 4.0
    assert t_excess2(23.0, 24.0) == 0.0
    assert t_excess2(24.0, 24.0) == 0.0


def test_t_excess2_squares_as_the_power_operator_does():
    """The excess is squared with `** 2`, as it always was: on some
    platforms `d * d` rounds differently, as for the first two values
    below on glibc 2.36."""
    rng = np.random.default_rng(3)
    excess = [float.fromhex("0x1.240e3863d630cp-2"),
              float.fromhex("0x1.2b09e601ac549p+2"), 0.0, -0.0, -1.5,
              *rng.uniform(-5.0, 5.0, 2000).tolist()]
    for d in excess:
        got = t_excess2(d, 0.0)
        assert got == max(d, 0.0) ** 2
        assert str(got) != "-0.0"


def sample(t, ex2=0.0, vwap=None, **kw):
    """One round's observations, as the substation appends them."""
    values = dict.fromkeys(ROUND_COLUMNS, 0.0) | {"grid_supplied_w": 0}
    return values | {"t_s": t, "mean_t_excess2": ex2, "round_vwap": vwap,
                     "lmp": 0.015} | kw


def rounds_of(samples):
    """The round log holding `samples` in order."""
    rounds = round_log()
    for values in samples:
        append_round(rounds, **values)
    return rounds


def extend(log, txs):
    """Append `txs`, Transactions in round order, one round at a time."""
    for k, fills in groupby(txs, key=lambda tx: tx.round_index):
        fills = list(fills)
        log.extend(k, *([tx[i] for tx in fills] for i in range(4)))


def fill_log(txs=()):
    """The fills as a run's log holds them: in round order."""
    log = TransactionLog()
    extend(log, sorted(txs, key=lambda tx: tx.round_index))
    return log


def test_constant_integrand_average():
    samples = [sample(t, ex2=4.0) for t in np.arange(0.0, 3600.0, 300.0)]
    out = summarize(rounds_of(samples), fill_log(), 0, 12)
    assert out.t_excess2_bar == pytest.approx(4.0)


def test_two_segment_trapezoid_average():
    # value 2.0 on the first half, 4.0 on the second: time average 3.0
    samples = [sample(0.0, ex2=2.0), sample(1000.0, ex2=2.0),
               sample(1000.0, ex2=4.0), sample(2000.0, ex2=4.0)]
    out = summarize(rounds_of(samples), fill_log(), 0, 4)
    assert out.t_excess2_bar == pytest.approx(3.0)


def test_window_filtering_excludes_warmup():
    samples = [sample(t, ex2=100.0) for t in np.arange(0.0, 1000.0, 100.0)]
    samples += [sample(t, ex2=1.0) for t in np.arange(1000.0, 2100.0, 100.0)]
    out = summarize(rounds_of(samples), fill_log(), 10, 21)
    assert out.t_excess2_bar == pytest.approx(1.0)


def test_vwap_volume_weighted_over_window_transactions():
    txs = [Transaction(1, 2, 2000, 0.010, round_index=10),
           Transaction(1, 3, 1000, 0.016, round_index=11),
           Transaction(1, 3, 9999, 0.500, round_index=0)]  # before window
    # row r of a run's round log is round r, so the log starts at round 0
    samples = [sample(t) for t in np.arange(0.0, 3700.0, 300.0)]
    out = summarize(rounds_of(samples), fill_log(txs), 10, 13)
    assert out.vwap_bar == pytest.approx(0.012)


def test_vwap_bar_is_the_market_vwap_of_the_window():
    txs = [Transaction(1, 2, 1, 1e16, round_index=1),
           Transaction(1, 3, 1, 1.0, round_index=2),
           Transaction(1, 4, 1, 1.0, round_index=3)]
    samples = [sample(t) for t in np.arange(0.0, 1200.0, 300.0)]
    out = summarize(rounds_of(samples), fill_log(txs), 0, 4)
    result = MarketResult(0, *([tx[i] for tx in txs] for i in range(4)))
    assert out.vwap_bar == result.round_vwap == \
        ((1e16 + 1.0) + 1.0) / 3


def test_vwap_bounded_by_window_prices():
    rng = np.random.default_rng(0)
    txs = [Transaction(1, 2, int(rng.integers(1, 5000)),
                       float(rng.uniform(0.01, 0.03)), round_index=k)
           for k in range(20)]
    samples = [sample(t) for t in np.arange(0.0, 6300.0, 300.0)]
    out = summarize(rounds_of(samples), fill_log(txs), 0, 21)
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
        extend(log, fills)
        txs.extend(fills)
    rounds = rounds_of([sample(t) for t in np.arange(0.0, 12_000.0, 300.0)])
    for start, stop in ((0, 40), (10, 31), (11, 12)):
        window = [tx for tx in txs if start <= tx.round_index < stop]
        assert summarize(rounds, log, start, stop).vwap_bar == \
            vwap([tx.quantity for tx in window], [tx.price for tx in window])


# (round id, fills) per `extend`, in a run's order: round 2 and the last
# round 7 extend with no fills, round 4 extends twice, and rounds 5, 9, 10
# and 11 have no entry
LOG_ENTRIES = [
    (0, [Transaction(1000, 0, 500, 0.9, 0)]),
    (1, [Transaction(1001, 0, 400, 0.8, 1),
         Transaction(1001, 3000, 1, 0.1, 1)]),
    (2, []),
    (3, [Transaction(2000, 5000, 300, 0.02, 3)]),
    (4, [Transaction(1000, 0, 200, 0.03, 4)]),
    (4, [Transaction(2001, 5001, 100, 0.05, 4),
         Transaction(2001, 0, 700, 0.04, 4)]),
    (6, [Transaction(4000, 3001, 900, 0.01, 6)]),
    (7, []),
    (8, [Transaction(1000, 0, 600, 0.7, 8)]),
    (8, []),
]


def log_of(entries):
    """The log one `extend` per entry builds."""
    log = TransactionLog()
    for k, fills in entries:
        log.extend(k, *([tx[i] for tx in fills] for i in range(4)))
    return log


@pytest.mark.parametrize("entries", [
    LOG_ENTRIES, [entry for entry in LOG_ENTRIES if entry[1]]],
    ids=["empty-rounds-logged", "empty-rounds-unlogged"])
def test_window_fills_across_empty_repeated_and_gapped_rounds(entries):
    """The window's fills are found from the round entries whether the
    rounds at its edges have an empty entry or none, a round id repeats,
    or the window lies before, across or after every entry."""
    log = log_of(entries)
    txs = [tx for _, fills in entries for tx in fills]
    assert list(log) == txs
    rounds = rounds_of([sample(t) for t in np.arange(0.0, 3600.0, 300.0)])
    for start, stop in ((2, 8), (0, 12), (3, 5), (4, 7), (5, 6), (0, 1),
                        (8, 12), (9, 12)):
        window = [tx for tx in txs if start <= tx.round_index < stop]
        assert summarize(rounds, log, start, stop).vwap_bar == \
            vwap([tx.quantity for tx in window], [tx.price for tx in window])
    assert summarize(rounds, log, 9, 12).vwap_bar is None
    assert summarize(rounds, log, 2, 3).vwap_bar is None


def test_vwap_no_trade_marker():
    samples = [sample(0.0, vwap=0.010), sample(300.0, vwap=None),
               sample(600.0, vwap=0.020)]
    out = summarize(rounds_of(samples), fill_log(), 0, 3)
    assert out.vwap_bar is None  # no transactions in the window


def test_violation_count_totalled():
    out = summarize(rounds_of([sample(0.0)]), fill_log(), 0, 1,
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
            samples.append(sample(t, lmp=0.01 * (d + 1), grid_supplied_w=k))
    tod, cols = average_day(rounds_of(samples), 300.0, 288, 0, 2 * 288)
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
    samples = [sample(d * day + k * 300.0, pv_supplied_w=values[d, k])
               for d in range(3) for k in range(288)]
    _, cols = average_day(rounds_of(samples), 300.0, 288, 0, 3 * 288)
    assert np.mean(cols["pv_supplied_w"]) == pytest.approx(values.mean())


def per_sample_average_day(rounds, t_market_s, slots, start, stop):
    """average_day as the loop over per-round objects computed it: rows
    start .. stop - 1, row k in slot k % slots."""
    sums = {c: np.zeros(slots) for c in AVERAGE_DAY_COLUMNS}
    counts = np.zeros(slots)
    for k in range(start, stop):
        slot = k % slots
        counts[slot] += 1
        for c in AVERAGE_DAY_COLUMNS:
            sums[c][slot] += rounds[c][k]
    counts = np.maximum(counts, 1)
    tod = np.arange(slots) * t_market_s
    return tod, {c: sums[c] / counts for c in AVERAGE_DAY_COLUMNS}


@pytest.mark.parametrize("t_market_s", [300.0, 900.0, 3600.0])
def test_average_day_equals_the_per_sample_loop_bit_for_bit(t_market_s):
    # values spanning many magnitudes make every slot sum depend on its
    # order; signed zeros and windows that start and end mid-day (so
    # slots differ in count) check the start value and the counts
    rng = np.random.default_rng(int(t_market_s))
    per_day = round(DAY_S / t_market_s)
    n = 5 * per_day // 2
    samples = []
    for k in range(n):
        values = {c: float(rng.normal() * 10.0 ** rng.integers(-8, 9))
                  for c in ROUND_COLUMNS}
        for c in rng.choice(ROUND_COLUMNS, size=4):
            values[c] = float(rng.choice([0.0, -0.0]))
        values |= {"t_s": k * t_market_s, "round_vwap": None,
                   "grid_supplied_w": int(rng.integers(-2**40, 2**40))}
        samples.append(values)
    rounds = rounds_of(samples)
    # rows from 0.3 to 2.2 days and from round 10 to 1.5 days + 7 rounds
    for start, stop in ((0, n),
                        (3 * per_day // 10 + 1, 22 * per_day // 10 + 1),
                        (10, 3 * per_day // 2 + 8)):
        tod, cols = average_day(rounds, t_market_s, per_day, start, stop)
        ref_tod, ref_cols = per_sample_average_day(rounds, t_market_s,
                                                   per_day, start, stop)
        assert tod.tobytes() == ref_tod.tobytes()
        assert list(cols) == list(AVERAGE_DAY_COLUMNS)
        for c in AVERAGE_DAY_COLUMNS:
            assert cols[c].tobytes() == ref_cols[c].tobytes(), (start, c)


def check_window(result, per_day):
    """The run's summary and average day are those of its analysis
    window, rows discard_days * N .. days * N - 1, with row r in slot
    r % N, and the average day has N slots."""
    cfg, rounds = result.config, result.rounds
    start, stop = cfg.discard_days * per_day, cfg.days * per_day
    assert len(rounds["t_s"]) == stop
    assert result.summary == summarize(rounds, result.transactions, start,
                                       stop, violations=result.violations)
    tod, cols = result.average_day
    ref_tod, ref_cols = per_sample_average_day(rounds, cfg.t_market_s,
                                               per_day, start, stop)
    assert tod.tobytes() == ref_tod.tobytes()
    assert list(cols) == list(AVERAGE_DAY_COLUMNS)
    for c in AVERAGE_DAY_COLUMNS:
        assert cols[c].tobytes() == ref_cols[c].tobytes(), c


def test_the_window_starts_at_the_first_round_of_its_day(tmp_path):
    """At 13 rounds a day, round 78 opens day 6 though its time, 78 *
    6646.153846153846 s, falls just short of 6 days: the window is rows
    78 .. 116 and each of the 13 slots averages 3 of them, so no slot of
    average_day.csv is empty and none holds 5 or 6 rounds."""
    cfg = builtin_config("s1", n_houses=3, days=9, discard_days=6,
                         t_market_s=6646.153846153846,
                         step_s=830.7692307692307)
    result = run_scenario(cfg, out_dir=tmp_path)
    assert result.rounds["t_s"][78] == 518399.99999999994 < 6 * DAY_S
    check_window(result, 13)
    lines = (tmp_path / "average_day.csv").read_text().splitlines()
    assert len(lines) == 14
    assert all(float(line.split(",")[1]) > 0.0 for line in lines[1:])


def test_a_period_one_ulp_above_a_thirteenth_of_a_day_has_13_slots(
        tmp_path):
    """6646.153846153847 s is 13 rounds a day, though int(DAY_S / t) is
    12: the average day has 13 times and 13 rows, and writing one whose
    times and columns differ in length raises."""
    cfg = builtin_config("s1", n_houses=3, days=2, discard_days=1,
                         t_market_s=6646.153846153847,
                         step_s=6646.153846153847)
    result = run_scenario(cfg, out_dir=tmp_path / "run")
    check_window(result, 13)
    lines = (tmp_path / "run" / "average_day.csv").read_text().splitlines()
    assert len(lines) == 14
    tod, cols = result.average_day
    result.average_day = tod[:-1], cols
    with pytest.raises(ValueError):
        write_outputs(result, tmp_path / "short")


def near(x: float) -> list[float]:
    """x and the floats one ulp either side of it."""
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


@st.composite
def schedules(draw):
    """An s1 config of 3 houses with N rounds a day and m steps a round,
    taking at most 240 steps: its t_market_s is DAY_S / N or one ulp
    either side, of those that are N rounds a day, and its step_s
    t_market_s / m or one ulp either side, of those that are m steps a
    round. Kept if validate() accepts it. Returns the config, m and N."""
    per_day, per_round = draw(st.integers(1, 48)), draw(st.integers(1, 4))
    days = draw(st.integers(2, 4))
    assume(days * per_day * per_round <= 240)
    periods = [t for t in near(DAY_S / per_day)
               if whole_steps(DAY_S, t) == per_day]
    assume(periods)
    t_market_s = draw(st.sampled_from(periods))
    steps = [s for s in near(t_market_s / per_round)
             if whole_steps(t_market_s, s) == per_round]
    assume(steps)
    cfg = ScenarioConfig(**(BUILTIN_SCENARIOS["s1"] | dict(
        n_houses=3, days=days, discard_days=draw(st.integers(1, days - 1)),
        t_market_s=t_market_s, step_s=draw(st.sampled_from(steps)))))
    try:
        cfg.validate()
    except ValueError:
        assume(False)
    return cfg, per_round, per_day


@settings(max_examples=40, deadline=None, derandomize=True)
@given(schedules())
def test_every_valid_schedule_runs_its_whole_rounds(schedule):
    """A config validate() accepts runs days * N rounds of m steps, and
    its analysis window and time-of-day slots go by round index."""
    cfg, per_round, per_day = schedule
    assert cfg.schedule() == (per_round, per_day)
    check_window(run_scenario(cfg), per_day)
