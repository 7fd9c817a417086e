"""Scenario configuration, end-to-end runs and output files."""

import hashlib
import json

import pytest

from petgrid import kernel
from petgrid.runner import (BUILTIN_SCENARIOS, ScenarioConfig, UNCAPPED_KW,
                            apply_settings, builtin_config, list_scenarios,
                            load_config_file, run_scenario)
from petgrid.weather import DAY_S


def test_builtin_s1_is_uncapped_grid_only():
    cfg = builtin_config("s1")
    assert (cfg.n_ev, cfg.n_pv) == (0, 0)
    assert cfg.grid_capacity_kw == UNCAPPED_KW


def test_builtin_s5_full_der_mix():
    cfg = builtin_config("s5")
    assert (cfg.n_ev, cfg.n_pv, cfg.grid_capacity_kw) == (30, 30, 100.0)


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_config("s9")


def test_builtins_differ_only_in_der_knobs():
    keys = {k for params in BUILTIN_SCENARIOS.values() for k in params}
    assert keys == {"name", "n_ev", "n_pv", "grid_capacity_kw"}


def test_validation_errors():
    with pytest.raises(ValueError):
        ScenarioConfig(n_ev=31, n_houses=30).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(n_pv=-1).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(days=4, discard_days=4).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(step_s=70.0, t_market_s=300.0).validate()
    # configs that would fail only once stepping (or the whole run) is done
    for bad in (dict(step_s=0.0), dict(step_s=-60.0), dict(t_market_s=420.0),
                dict(t_market_s=0.0), dict(n_houses=0),
                dict(grid_capacity_kw=0.0), dict(lmp_reference_capacity_kw=-1.0),
                dict(vwap_mode="bogus"), dict(weather_mode="bogus"),
                dict(weather_mode="csv"), dict(lmp_alpha=float("nan")),
                dict(houses_cop=float("inf")), dict(discard_days=-1),
                dict(houses_rc_hours_range=(float("nan"), 2.0)),
                dict(houses_rc_hours_range=(3.0, 1.5)),
                dict(houses_rc_hours_range=(0.0, 1.5)),
                dict(houses_ua_w_per_k_range=(-1.0, 700.0)),
                dict(houses_ua_w_per_k_range=(550.0,)),
                dict(pv_panels_range=(0, 20)),
                dict(pv_panels_range=(8.5, 9.5)),
                dict(pv_panels_range=(8, 20, 30)),
                dict(pv_panels_range=("8", "20")),
                dict(ev_initial_soc_range=(0.5, 1.5)),
                dict(ev_initial_soc_range=(-0.1, 0.5))):
        with pytest.raises(ValueError):
            ScenarioConfig(**bad).validate()


def test_apply_settings_coercion():
    cfg = ScenarioConfig()
    apply_settings(cfg, {
        "scenario.days": "6",
        "grid.capacity_kw": "80",
        "pv.panels_range": "8,14",
        "weather.mode": "synthetic",
        "ev_worker_ratio": "0.5",       # bare attribute names also accepted
    })
    assert cfg.days == 6
    assert cfg.grid_capacity_kw == 80.0
    assert cfg.pv_panels_range == (8.0, 14.0)
    assert cfg.ev_worker_ratio == 0.5


def test_apply_settings_coerces_by_declared_type():
    cfg = ScenarioConfig()
    apply_settings(cfg, {"ev.seed": "5", "weather.csv_path": "a,b.csv"})
    assert cfg.ev_seed == 5 and isinstance(cfg.ev_seed, int)
    assert cfg.weather_csv_path == "a,b.csv"
    apply_settings(cfg, {"ev.seed": "none"})
    assert cfg.ev_seed is None
    with pytest.raises(ValueError):
        apply_settings(cfg, {"ev.seed": "five"})


def test_ev_seed_setting_runs():
    cfg = ScenarioConfig(n_houses=2, n_ev=2, days=2, discard_days=1)
    apply_settings(cfg, {"ev.seed": "5"})
    a = run_scenario(cfg)
    apply_settings(cfg, {"scenario.seed": "6"})
    b = run_scenario(cfg)
    # the EV fleet follows ev.seed, not the scenario seed
    assert [ev.itinerary.trips for ev in a.fleet] == \
        [ev.itinerary.trips for ev in b.fleet]


def test_apply_settings_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        apply_settings(ScenarioConfig(), {"grid.capacity_mw": "1"})


def test_load_config_file_nested_yaml(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(
        "scenario:\n  days: 5\n  seed: 9\nev:\n  count: 2\n"
        "grid:\n  capacity_kw: 50\n"
    )
    cfg = load_config_file(path)
    assert cfg.name == "mini"
    assert (cfg.days, cfg.seed, cfg.n_ev, cfg.grid_capacity_kw) == \
        (5, 9, 2, 50.0)


def test_load_config_file_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="mapping"):
        load_config_file(path)


def test_list_scenarios_shows_all_builtins_with_knobs():
    lines = list_scenarios()
    assert len(lines) == 5
    for name in ("s1", "s2", "s3", "s4", "s5"):
        assert any(line.startswith(name) for line in lines)
    assert any("uncapped" in line for line in lines)
    assert all("n_ev=" in line and "n_pv=" in line for line in lines)


def tiny_config(**kw):
    cfg = ScenarioConfig(name="tiny", n_houses=4, n_ev=2, n_pv=2,
                         days=5, discard_days=4, seed=3,
                         grid_capacity_kw=40.0)
    for k, v in kw.items():
        setattr(cfg, k, v)
    cfg.validate()
    return cfg


def test_run_scenario_outputs(tmp_path):
    out = tmp_path / "run"
    result = run_scenario(tiny_config(), out_dir=out)
    ts = (out / "time_series.csv").read_text().splitlines()
    assert ts[0].startswith("t_s,lmp,round_vwap,grid_supplied_w")
    assert len(ts) - 1 == int(5 * DAY_S / 300.0)

    avg = (out / "average_day.csv").read_text().splitlines()
    assert len(avg) - 1 == int(DAY_S / 300.0)

    tx_lines = (out / "transactions.csv").read_text().splitlines()
    assert tx_lines[0] == "round,buyer,seller,quantity_w,price_usd_per_kwh"
    assert len(tx_lines) > 1

    payload = json.loads((out / "summary.json").read_text())
    assert payload["scenario"] == "tiny"
    assert payload["t_excess2_bar"] == pytest.approx(
        result.summary.t_excess2_bar)
    assert payload["violation_count"] == result.summary.violation_count


def test_run_scenario_deterministic_digest(tmp_path):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_scenario(tiny_config(), out_dir=out)
        digests.append(hashlib.sha256(
            (out / "time_series.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_seed_changes_output(tmp_path):
    r1 = run_scenario(tiny_config(seed=3))
    r2 = run_scenario(tiny_config(seed=4))
    assert r1.summary.t_excess2_bar != r2.summary.t_excess2_bar


def test_run_scenario_balances_and_safety_small():
    result = run_scenario(tiny_config())
    assert result.max_imbalance_w <= 1.0
    assert 0.0 <= result.soc_min <= result.soc_max <= 1.0
    assert result.violations["ev_range"] == 0


def test_bus_carries_one_topic_per_fleet_quantity(monkeypatch):
    """Every fleet quantity is one topic whose value is a tuple in fleet
    order; every other topic carries a float."""
    cfg = builtin_config("s5", n_houses=4, n_ev=3, n_pv=2, days=2,
                         discard_days=1)
    per_house = ("houses/hvac_demand_w", "houses/unresponsive_w",
                 "houses/pv_potential_w", "dispatch/hvac_w")
    per_ev = ("evs/load_range_w", "evs/soc", "evs/next_depart_s",
              "dispatch/ev_load_w")
    scalars = ("weather/temp_c", "houses/mean_t_air_c",
               "houses/mean_t_set_c", "houses/mean_t_excess2")
    published = {}
    publish = kernel.StepContext.publish

    def recording(ctx, key, value):
        published.setdefault(key, []).append(value)
        publish(ctx, key, value)

    monkeypatch.setattr(kernel.StepContext, "publish", recording)
    run_scenario(cfg)
    assert set(published) == {*per_house, *per_ev, *scalars}
    for key in scalars:
        assert all(isinstance(v, float) for v in published[key]), key
    for keys, n in ((per_house, cfg.n_houses), (per_ev, cfg.n_ev)):
        for key in keys:
            assert all(isinstance(v, tuple) and len(v) == n
                       for v in published[key]), key
    ranges = {r for v in published["evs/load_range_w"] for r in v}
    assert all(len(r) == 2 and r[0] <= r[1] for r in ranges)
    assert any(r != (0.0, 0.0) for r in ranges)
