"""Core invariants on randomized small configs, and reruns in fresh
processes."""

import hashlib
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from harness import run_child
from petgrid.runner import builtin_config, run_scenario
from petgrid.substation import EV_BASE, EV_SELL_BASE

OUTPUT_FILES = ("time_series.csv", "transactions.csv", "average_day.csv",
                "summary.json")


@st.composite
def small_configs(draw):
    n_houses = draw(st.integers(1, 5))
    overrides = dict(
        n_houses=n_houses,
        n_ev=draw(st.integers(0, n_houses)),
        n_pv=draw(st.integers(0, n_houses)),
        days=2, discard_days=1,
        seed=draw(st.integers(0, 2**32 - 1)),
        t_market_s=draw(st.sampled_from([60.0, 120.0, 180.0, 300.0, 600.0,
                                         900.0])),
    )
    # low initial charge reaches the forced-charge gate below 20% SoC
    soc_lo = draw(st.floats(0.05, 0.9))
    overrides["ev_initial_soc_range"] = (soc_lo, draw(st.floats(soc_lo, 0.95)))
    scarce_kw = draw(st.none() | st.floats(1.0, 40.0))
    if scarce_kw is not None:
        overrides["grid_capacity_kw"] = scarce_kw
    return overrides


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_configs())
# an EV below 20% SoC whose forced-charge buy does not clear
@example(dict(n_houses=3, n_ev=1, n_pv=0, days=2, discard_days=1,
              seed=478825, t_market_s=900.0, grid_capacity_kw=10.0))
# one step per round: EV ranges must be those the round cleared against
@example(dict(n_houses=4, n_ev=4, n_pv=4, days=2, discard_days=1,
              t_market_s=60.0))
# a rating of 7200.5 W: the fleet's whole-watt ranges, which its dispatch
# is checked against exactly, must be those the substation bid
@example(dict(n_houses=4, n_ev=4, n_pv=4, days=2, discard_days=1,
              ev_charger_kw=7.2005))
def test_invariants_hold_on_random_small_configs(overrides):
    result = run_scenario(builtin_config("s5", **overrides))
    assert result.max_imbalance_w <= 1.0
    assert 0.0 <= result.soc_min <= 1.0 and 0.0 <= result.soc_max <= 1.0
    assert result.violations["ev_range"] == 0
    for tx in result.transactions:
        if EV_BASE <= tx.buyer < EV_SELL_BASE:
            assert tx.seller != tx.buyer - EV_BASE + EV_SELL_BASE, tx


def run_in_fresh_process(out: Path, hash_seed: str) -> dict[str, str]:
    proc = run_child(
        "-m", "petgrid.cli", "run", "--scenario", "s5", "--days", "2",
        "--seed", "7", "--out", str(out), "--set", "scenario.discard_days=1",
        "--set", "houses.count=4", "--set", "ev.count=3",
        "--set", "scenario.n_pv=3", timeout=300, PYTHONHASHSEED=hash_seed)
    assert proc.returncode in (0, 2), proc.stderr
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES}


def test_reruns_in_fresh_processes_are_byte_identical(tmp_path):
    first = run_in_fresh_process(tmp_path / "a", "0")
    second = run_in_fresh_process(tmp_path / "b", "4242")
    assert first == second
