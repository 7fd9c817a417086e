"""Accounting checks of the benchmark's tracer on a tiny scenario.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from petgrid import builtin_config, evfleet, household, kernel, run_scenario  # noqa: E402
from petgrid import substation  # noqa: E402

import tracer  # noqa: E402

TINY = dict(n_houses=3, n_ev=3, n_pv=3, days=2, discard_days=1)
COUNTS = [
    "kernel.steps", "kernel.reads", "kernel.publishes", "kernel.topics",
    "weather.samples", "household.step_thermal_calls",
    "evfleet.step_battery_calls", "substation.rounds",
    "substation.ev_strategy_calls", "market.orders_per_round",
    "market.sell_orders_per_round", "market.fills", "market.buy_fill_ratio",
]
PHASES = ["substation.lmp_s", "substation.bids_s", "substation.ev_strategy_s",
          "market.match_s", "substation.dispatch_s"]


def traced_run(tmp_path, name):
    cfg = builtin_config("s5", **TINY)
    out = tmp_path / name
    with tracer.Tracer() as tr:
        run_scenario(cfg, out_dir=out)
    return tr, tr.layer_metrics(cfg.n_houses, cfg.n_ev), out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    return traced_run(tmp, "a"), traced_run(tmp, "b")


def test_tracing_leaves_the_outputs_unchanged(tmp_path, runs):
    run_scenario(builtin_config("s5", **TINY), out_dir=tmp_path)
    traced = runs[0][2]
    for name in ("time_series.csv", "transactions.csv", "average_day.csv",
                 "summary.json"):
        assert (tmp_path / name).read_bytes() == (traced / name).read_bytes()


def test_every_target_is_traced(runs):
    tr = runs[0][0]
    assert tr.missing == []


def test_federates_and_kernel_self_time_make_up_the_run(runs):
    m = runs[0][1]
    busy = sum(m[f"{layer}.busy_s"]
               for layer in ("weather", "household", "evfleet", "substation"))
    assert m["kernel.self_s"] >= 0
    assert busy + m["kernel.self_s"] == pytest.approx(m["kernel.run_s"],
                                                      rel=1e-9, abs=1e-9)


def test_substation_phases_sum_to_its_busy_time(runs):
    m = runs[0][1]
    assert all(m[p] >= 0 for p in PHASES)
    assert sum(m[p] for p in PHASES) == pytest.approx(
        m["substation.busy_s"], rel=1e-9, abs=1e-9)


def test_no_span_has_negative_self_time(runs):
    tr = runs[0][0]
    spans = tr.by_name()
    assert set(spans) >= {"kernel.run", "market.match_orders",
                          "household.step_thermal", "runner.write_outputs"}
    for name, s in spans.items():
        assert s["min_self_s"] >= -1e-9, name
        assert 0 <= s["self_s"] <= s["incl_s"] + 1e-9, name


def test_counts_repeat_exactly(runs):
    a, b = runs[0][1], runs[1][1]
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}


def test_every_house_and_ev_step_is_seen(runs):
    m = runs[0][1]
    steps = 2 * 86400 // 60
    assert m["kernel.steps"] == steps
    assert m["household.step_thermal_calls"] == TINY["n_houses"] * steps
    assert m["evfleet.step_battery_calls"] == TINY["n_ev"] * steps
    assert m["substation.rounds"] == steps // 5


def test_wrappers_are_removed(tmp_path):
    originals = [(kernel.Federation, "run", kernel.Federation.run),
                 (household, "step_thermal", household.step_thermal),
                 (substation, "match_orders", substation.match_orders),
                 (evfleet.EvFederate, "__call__", evfleet.EvFederate.__call__),
                 (kernel.StepContext, "read", kernel.StepContext.read)]
    with tracer.Tracer():
        assert household.step_thermal is not originals[1][2]
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn


def test_spans_are_written(tmp_path, runs):
    tr = runs[0][0]
    path = tmp_path / "spans.npz"
    tr.save(path)
    with np.load(path) as data:
        assert len(data["start"]) == len(tr.name_id)
        assert (data["end"] >= data["start"]).all()
        assert set(data["names"]) == set(tr.names)
