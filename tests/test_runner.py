"""Scenario configuration, end-to-end runs and output files."""

import dataclasses
import hashlib
import json
import math
import random
from array import array
from itertools import islice

import numpy as np
import pytest

from harness import run_child, spy
from petgrid import evfleet, kernel, substation
from petgrid.market import Transaction, TransactionLog
from petgrid.metrics import ROUND_COLUMNS
from petgrid.runner import (BUILTIN_SCENARIOS, DOMAINS, ScenarioConfig,
                            UNCAPPED_KW, _fmt, apply_settings, builtin_config,
                            list_scenarios, load_config_file, run_scenario,
                            write_outputs)
from petgrid.substation import (EV_BASE, PV_BASE, SubstationFederate,
                                 formulate_grid_bid)
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
                dict(t_market_s=0.0), dict(n_houses=0), dict(n_houses=1001),
                dict(grid_capacity_kw=0.0), dict(lmp_reference_capacity_kw=-1.0),
                dict(weather_mode="bogus"),
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
                dict(ev_initial_soc_range=(-0.1, 0.5)),
                # zero heat removal, and order prices that would go
                # negative: each fails mid-run or breaks the physics
                dict(houses_hvac_kw=0.0), dict(houses_cop=-3.0),
                dict(prices_unresponsive=-1.0), dict(prices_hvac=-0.5),
                dict(prices_pv_sell=-0.01),
                dict(lmp_p_base=-0.01), dict(lmp_alpha=-5.0),
                dict(lmp_diurnal_amplitude=3.0),
                dict(lmp_diurnal_amplitude=-0.1),
                dict(ev_efficiency=0.0), dict(ev_efficiency=1.5),
                dict(ev_speed_kmh=0.0), dict(ev_charger_kw=-5.0),
                dict(ev_charger_kw=0.0), dict(ev_drive_kwh_per_km=-0.1),
                # a division by zero in the CSV reader, or loads, panels
                # and deadbands that run to exit 0 with broken physics
                dict(weather_rated_irradiance_wm2=0.0, weather_mode="csv",
                     weather_csv_path="weather.csv"),
                dict(houses_unresponsive_mean_kw=-1.0),
                dict(pv_panel_w=-480.0), dict(houses_deadband_c=-2.0),
                # noise above 1 drives loads below 0 W
                dict(houses_unresponsive_noise_frac=5.0),
                dict(houses_unresponsive_noise_frac=-0.1),
                # shares and weights outside [0, 1], and an inverted
                # temperature range, that all ran to exit 0
                dict(ev_worker_ratio=-1.0), dict(ev_worker_ratio=3.0),
                dict(lmp_demand_ema=5.0), dict(lmp_demand_ema=-0.5),
                dict(weather_temp_min_c=40.0),
                # config files bypass the --set coercion, so a YAML float
                # or bool reaches an int field
                dict(n_houses=3.5), dict(seed=1.5),
                dict(days=2.5, discard_days=1), dict(n_ev=2.0),
                dict(n_pv=True), dict(discard_days=1.0), dict(ev_seed=5.0),
                # ... and a bool in a range, or a non-string in a string
                dict(houses_rc_hours_range=(True, 2.0)), dict(name=None),
                dict(weather_mode=0)):
        with pytest.raises(ValueError):
            ScenarioConfig(**bad).validate()
    # numpy numbers are numbers, and ev_seed may be None
    ScenarioConfig(seed=np.int64(3), ev_seed=np.uint32(7),
                   houses_cop=np.float64(2.5)).validate()
    ScenarioConfig(ev_seed=None).validate()


@pytest.mark.parametrize("step_s, t_market_s, valid", [
    (0.1, 300.0, True), (0.2, 300.0, True), (0.001, 300.0, True),
    (0.25, 300.0, True), (60.0, DAY_S, True),
    (70.0, 300.0, False), (7.0, 300.0, False), (0.07, 300.0, False),
    (60.0, 250.0, False), (60.0, 90.0, False), (60.0, 420.0, False),
    # 3 * 0.3 != 0.9: clearing times k * 0.3 would fall short of r * 0.9
    (0.3, 0.9, False), (5e-324, 300.0, False)])
def test_step_and_period_must_be_whole_multiples(step_s, t_market_s, valid):
    cfg = ScenarioConfig(step_s=step_s, t_market_s=t_market_s)
    if valid:
        cfg.validate()
    else:
        with pytest.raises(ValueError, match="multiple of step_s"):
            cfg.validate()


# fields that a rule orders against a partner, and the partner's offset
# from the edge that lets the rule hold: the temperature bounds may meet,
# and days must exceed discard_days
PARTNERS = {"weather_temp_min_c": ("weather_temp_max_c", 0),
            "weather_temp_max_c": ("weather_temp_min_c", 0),
            "days": ("discard_days", -1)}
FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def test_every_number_field_has_a_domain():
    numeric = {key for key, kind in FIELD_TYPES.items()
               if not kind.startswith("str")}
    assert set(DOMAINS) == numeric


@pytest.mark.parametrize("key", sorted(DOMAINS))
def test_each_domain_edge_is_accepted_exactly_when_closed(key):
    """Each finite end of a field's domain, and the value just outside,
    which for an int field is one past it."""
    lo, hi, lo_allowed = DOMAINS[key]
    whole = FIELD_TYPES[key].startswith("int")
    default = getattr(ScenarioConfig(), key)

    def validate(value, end, edge):
        if isinstance(default, tuple):      # the given end of a range
            value = (value, default[1]) if end == 0 else (default[0], value)
        partner, offset = PARTNERS.get(key, (None, 0))
        fields = {partner: edge + offset} if partner else {}
        ScenarioConfig(**fields, **{key: value}).validate()

    edges = [(lo, 0, lo_allowed, -1)] + ([(hi, 1, True, 1)]
                                         if hi < math.inf else [])
    for edge, end, closed, out in edges:
        outside = (edge + out if whole
                   else math.nextafter(edge, out * math.inf))
        edge = edge if whole else float(edge)
        if closed:
            validate(edge, end, edge)
        else:
            with pytest.raises(ValueError, match=f"^{key} must be"):
                validate(edge, end, edge)
        with pytest.raises(ValueError, match=f"^{key} must be"):
            validate(outside, end, edge)


def test_a_grid_capacity_is_valid_exactly_when_its_order_is_1_w():
    # the substation rounds the capacity to whole watts once, at build
    least = ScenarioConfig(grid_capacity_kw=math.nextafter(0.0005, 1.0))
    least.validate()
    capacity_w = SubstationFederate(least).capacity_w
    assert type(capacity_w) is int and capacity_w == 1
    assert formulate_grid_bid(capacity_w, 0.02).quantity == 1
    half_watt = ScenarioConfig(grid_capacity_kw=0.0005)
    with pytest.raises(ValueError, match="^grid_capacity_kw must be"):
        half_watt.validate()
    assert SubstationFederate(half_watt).capacity_w == 0
    with pytest.raises(ValueError):         # a 0 W order
        formulate_grid_bid(0, 0.02)


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


def test_ev_seed_setting_runs(monkeypatch):
    builds = spy(monkeypatch, evfleet, "build_fleet")
    cfg = ScenarioConfig(n_houses=2, n_ev=2, days=2, discard_days=1)
    apply_settings(cfg, {"ev.seed": "5"})
    run_scenario(cfg)
    apply_settings(cfg, {"scenario.seed": "6"})
    run_scenario(cfg)
    # the EV fleet follows ev.seed, not the scenario seed
    a, b = (call.result for call in builds)
    assert [it.trips for it in a.itineraries] == \
        [it.trips for it in b.itineraries]


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


def test_only_a_config_file_imports_yaml(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text("houses:\n  count: 3\n")
    code = ("import sys\nimport petgrid\n"
            "assert 'yaml' not in sys.modules\n"
            "from petgrid.runner import load_config_file\n"
            f"assert load_config_file({str(path)!r}).n_houses == 3\n"
            "assert 'yaml' in sys.modules\n")
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_only_a_csv_wrap_imports_logging(tmp_path):
    """A run imports no `logging`; a CSV sample past the data's period
    does, to warn."""
    path = tmp_path / "day.csv"
    path.write_text("timestamp,temp_c,irradiance_wm2\n"
                    "00:00,30,0\n12:00,35,900\n")
    code = ("import sys\nimport petgrid\n"
            "from petgrid import weather\n"
            "cfg = petgrid.builtin_config('s5', n_houses=2, n_ev=2, n_pv=2,"
            " days=2, discard_days=1)\n"
            "petgrid.run_scenario(cfg)\n"
            f"csv = weather.CsvWeather.from_csv({str(path)!r}, 1000.0)\n"
            "csv.sample(3600.0)\n"
            "assert 'logging' not in sys.modules\n"
            "csv.sample(90000.0)\n"         # a day and an hour in
            "assert 'logging' in sys.modules\n")
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "outside CSV period" in proc.stderr


def test_whole_number_step_and_period_write_the_same_outputs(tmp_path):
    """A config file may give step_s and t_market_s as YAML ints; the
    round log's float columns keep t_s formatted as the floats give it."""
    digests = []
    for name, step, period in (("ints", "60", "300"),
                               ("floats", "60.0", "300.0")):
        path = tmp_path / f"{name}.yaml"
        path.write_text("scenario: {days: 2, discard_days: 1}\n"
                        "houses: {count: 2}\n"
                        f"kernel: {{step_s: {step}}}\n"
                        f"market: {{t_market_s: {period}}}\n")
        write_outputs(run_scenario(load_config_file(path)), tmp_path / name)
        digests.append([hashlib.sha256((tmp_path / name / f).read_bytes())
                        .hexdigest() for f in ("time_series.csv",
                                               "average_day.csv")])
    assert digests[0] == digests[1]


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


def test_every_sample_field_keeps_its_type():
    """time_series.csv formats a value by its type, so the whole-watt
    sums must not turn a float column into an int: the grid's fill stays
    the int the matcher sold, every other power total a float. The
    round's two violation counts are ints and its imbalance a float in
    watts. Every column holds one value per round, in typed arrays but
    for the VWAP, which is None in a round without fills."""
    result = run_scenario(builtin_config("s5", n_houses=4, n_ev=4, n_pv=4,
                                         days=2, discard_days=1))
    rounds = result.rounds
    assert tuple(rounds) == ROUND_COLUMNS
    assert ROUND_COLUMNS[-3:] == ("unserved_unresponsive",
                                  "ev_unfilled_must_charge", "imbalance_w")
    n_rounds = int(2 * DAY_S / 300.0)
    assert {len(column) for column in rounds.values()} == {n_rounds}
    assert rounds["t_s"] == array("d", [k * 300.0 for k in range(n_rounds)])
    counts = ("grid_supplied_w", "unserved_unresponsive",
              "ev_unfilled_must_charge")
    types = {name: {type(v) for v in column}
             for name, column in rounds.items()}
    assert types.pop("round_vwap") <= {float, type(None)}
    assert [types.pop(name) for name in counts] == [{int}] * 3
    assert types == {name: {float} for name in types}
    typecodes = {name: getattr(column, "typecode", None)
                 for name, column in rounds.items()}
    assert typecodes.pop("round_vwap") is None
    assert [typecodes.pop(name) for name in counts] == ["q"] * 3
    assert typecodes == dict.fromkeys(typecodes, "d")
    assert "imbalance_w" in typecodes


def test_one_round_a_day_summarizes_its_single_analysis_round():
    """With one round a day and one analysis day, each time average is
    the value of the window's one round, not 0/0."""
    result = run_scenario(builtin_config("s5", n_houses=3, n_ev=3, n_pv=3,
                                         days=2, discard_days=1,
                                         t_market_s=DAY_S))
    rounds, s = result.rounds, result.summary
    assert list(rounds["t_s"]) == [0.0, DAY_S]
    assert (s.t_excess2_bar, s.p_target_bar_w, s.p_supplied_bar_w,
            s.p_surplus_pv_bar_w, s.p_surplus_ev_bar_w) == tuple(
        rounds[c][1] for c in ("mean_t_excess2", "p_target_w", "p_supplied_w",
                               "p_surplus_pv_w", "p_surplus_ev_w"))
    assert all(math.isfinite(v) for v in dataclasses.astuple(s)
               if isinstance(v, float))
    assert result.average_day[1]["p_target_w"].tolist() == \
        [rounds["p_target_w"][1]]


def test_a_run_is_its_days_rounds_of_whole_steps():
    """At 11 rounds a day of one step each, 3 days are 33 steps, though
    33 steps of 7854.545454545454 s are not exactly 3 days."""
    cfg = builtin_config("s1", n_houses=3, days=3, discard_days=1,
                         t_market_s=7854.545454545454,
                         step_s=7854.545454545454)
    assert cfg.schedule() == (1, 11)
    assert kernel.whole_steps(3 * DAY_S, cfg.step_s) == 0
    result = run_scenario(cfg)
    assert len(result.rounds["t_s"]) == 33
    assert len(result.average_day[0]) == 11


def per_row_transactions_csv(transactions) -> str:
    """transactions.csv as the per-fill writer formatted it."""
    lines = ["round,buyer,seller,quantity_w,price_usd_per_kwh\n"]
    for tx in transactions:
        lines.append(f"{tx.round_index},{tx.buyer},{tx.seller},"
                     f"{tx.quantity},{_fmt(tx.price)}\n")
    return "".join(lines)


def test_transactions_csv_matches_the_per_row_writer(tmp_path):
    rng = random.Random(8)
    edge_prices = [0.0, -0.0, 5e-7, 1.5e-6, 2.5e-6, 0.0155, 0.0000125, 1.0,
                   123.4567895, 1e16, 2.0 ** -30]
    log = TransactionLog()
    for k in range(300):
        n = rng.randrange(4)
        log.extend([rng.randrange(5000) for _ in range(n)],
                   [rng.randrange(6000) for _ in range(n)],
                   [rng.randrange(1, 2 ** 31) for _ in range(n)],
                   [rng.choice(edge_prices + [rng.random()])
                    for _ in range(n)])
    # equal as floats, different as text, in either order in one log;
    # ids at the edge of the log's int16 columns, watts at that of int32
    log.extend([2 ** 15 - 1, -5], [-5, 2 ** 15 - 1], [7, 2 ** 31 - 1],
               [-0.0, 0.0])
    log.extend([-5], [-5], [9], [-0.0])
    result = run_scenario(builtin_config("s1", n_houses=2, days=2,
                                         discard_days=1))
    write_outputs(dataclasses.replace(result, transactions=log), tmp_path)
    assert len(log) > 300
    assert (tmp_path / "transactions.csv").read_text() == \
        per_row_transactions_csv(log)


# each round's fills in a run's order, entry r round r: round 0 has none,
# round 2 three, rounds 3 to 5 none, and the last round 7 none
ROUND_FILLS = [
    [],
    [Transaction(1000, 0, 500, 0.9)],
    [Transaction(1001, 0, 400, 0.8), Transaction(1001, 3000, 1, 0.1),
     Transaction(2000, 5000, 300, -0.0)],
    [], [], [],
    [Transaction(4000, 3001, 900, 0.01)],
    [],
]


@pytest.mark.parametrize("rounds", [
    ROUND_FILLS, [fills for fills in ROUND_FILLS if fills],
    [[], []] + ROUND_FILLS[1:] + [[]], [[]], []],
    ids=["logged", "unlogged", "edges", "empty", "none"])
def test_transactions_csv_over_empty_repeated_and_gapped_rounds(rounds,
                                                               tmp_path):
    """The round column repeats each round's index over exactly its
    fills and skips the rounds without any, whether those lie at the
    log's start or end, between filled rounds, or nowhere."""
    log = TransactionLog()
    for fills in rounds:
        log.extend(*([tx[i] for tx in fills] for i in range(4)))
    result = run_scenario(builtin_config("s1", n_houses=2, days=2,
                                         discard_days=1))
    write_outputs(dataclasses.replace(result, transactions=log), tmp_path)
    text = (tmp_path / "transactions.csv").read_text()
    assert text == per_row_transactions_csv(
        tx._replace(round_index=r)
        for r, fills in enumerate(rounds) for tx in fills)
    assert text.count("\n") == 1 + len(log)


def test_the_fill_log_has_one_entry_per_round_log_row(monkeypatch,
                                                      tmp_path):
    """Entry r of the fill log holds the fills the matcher cleared in
    round r, row r of the round log, and their rows of transactions.csv
    give r as their round."""
    matches = spy(monkeypatch, substation, "match_orders")
    result = run_scenario(builtin_config("s5", n_houses=3, n_ev=3, n_pv=3,
                                         days=2, discard_days=1),
                          out_dir=tmp_path)
    log = result.transactions
    cleared = [call.result for call in matches]
    rows = len(result.rounds["t_s"])
    assert len(log.round_starts) == rows == len(cleared) == 2 * 288
    assert [log.first_fill(r + 1) - log.first_fill(r)
            for r in range(rows)] == [len(res.buyer) for res in cleared]
    with open(tmp_path / "transactions.csv") as fh:
        rounds = [line.partition(",")[0] for line in islice(fh, 1, None)]
    assert rounds == [str(r) for r, res in enumerate(cleared)
                      for _ in res.buyer]
    assert len(rounds) == len(log) > 1000


def test_bus_carries_one_topic_per_fleet_quantity(monkeypatch):
    """Every fleet quantity is one topic whose value is a tuple in fleet
    order, with one entry per PV array for the PV topic; every other
    topic carries a float."""
    cfg = builtin_config("s5", n_houses=4, n_ev=3, n_pv=2, days=2,
                         discard_days=1)
    per_house = ("houses/hvac_demand_w", "houses/unresponsive_w",
                 "dispatch/hvac_w")
    per_pv = ("houses/pv_potential_w",)
    per_ev = ("evs/load_range_w", "evs/soc", "evs/next_depart_s",
              "dispatch/ev_load_w")
    scalars = ("weather/temp_c", "houses/mean_t_air_c",
               "houses/mean_t_set_c", "houses/mean_t_excess2")
    publications = spy(monkeypatch, kernel.StepContext, "publish",
                       record=lambda ctx, key, value: (key, value))
    pv_traders = spy(monkeypatch, substation, "match_orders",
                     record=lambda orders: [o.trader for o in orders
                                            if PV_BASE <= o.trader < EV_BASE])
    run_scenario(cfg)
    published = {}
    for key, value in publications:
        published.setdefault(key, []).append(value)
    assert set(published) == {*per_house, *per_pv, *per_ev, *scalars}
    for key in scalars:
        assert all(isinstance(v, float) for v in published[key]), key
    for keys, n in ((per_house, cfg.n_houses), (per_pv, cfg.n_pv),
                    (per_ev, cfg.n_ev)):
        for key in keys:
            assert all(isinstance(v, tuple) and len(v) == n
                       for v in published[key]), key
    assert {t for traders in pv_traders for t in traders} == \
        {PV_BASE, PV_BASE + 1}
    ranges = {r for v in published["evs/load_range_w"] for r in v}
    assert all(len(r) == 2 and r[0] <= r[1] for r in ranges)
    assert any(r != (0, 0) for r in ranges)
    # the fleet's ranges and the substation's dispatch are whole watts
    watts = [w for r in ranges for w in r] + [
        w for key in ("dispatch/hvac_w", "dispatch/ev_load_w")
        for v in published[key] for w in v]
    assert all(type(w) is int for w in watts)
    # no arrays: the PV topic is empty and the round builds no PV order
    publications.clear()
    pv_traders.clear()
    run_scenario(dataclasses.replace(cfg, n_pv=0))
    pv_potential = [value for key, value in publications
                    if key == "houses/pv_potential_w"]
    assert pv_potential
    assert all(v == () for v in pv_potential)
    assert not any(pv_traders)


def test_round_0_clears_against_the_bus_defaults():
    """Round 0 clears before any household has published, so its row
    reads 0 for the fleet means and the appliance load (see the README's
    Outputs section); from round 1 on the houses' values arrive."""
    rounds = run_scenario(builtin_config("s1", n_houses=3, days=2,
                                         discard_days=1)).rounds
    for name in ("mean_t_air_c", "mean_setpoint_c", "mean_t_excess2",
                 "unresponsive_load_w"):
        assert rounds[name][0] == 0.0, name
    assert rounds["mean_t_air_c"][1] > 20.0
    assert rounds["unresponsive_load_w"][1] > 0.0


def test_a_run_without_evs_publishes_no_ev_topic(monkeypatch):
    published = spy(monkeypatch, kernel.StepContext, "publish",
                    record=lambda ctx, key, value: key)
    result = run_scenario(builtin_config("s1", n_houses=3, days=2,
                                         discard_days=1))
    assert not [key for key in published if key.startswith("evs/")]
    assert "dispatch/ev_load_w" in published
    assert (result.soc_min, result.soc_max) == (1.0, 0.0)


def _weather_csv(path, temp_offset_c: float) -> str:
    rows = [f"{h * 3600},{28.0 + temp_offset_c + (h % 12) / 2},"
            f"{max(0.0, 900.0 - abs(h - 12) * 150.0)}" for h in range(25)]
    path.write_text("timestamp,temp_c,irradiance_wm2\n"
                    + "\n".join(rows) + "\n")
    return str(path)


# one changed value per config field; prices cross another order's price
LIVE_VALUES = {
    "name": "other", "n_houses": 5, "n_ev": 2, "n_pv": 2, "days": 3,
    "discard_days": 0, "seed": 2, "grid_capacity_kw": 15.0, "step_s": 30.0,
    "t_market_s": 600.0, "weather_mode": "csv",
    "weather_csv_path": "other.csv", "weather_rated_irradiance_wm2": 500.0,
    "weather_temp_min_c": 22.0, "weather_temp_max_c": 38.0,
    "houses_rc_hours_range": (1.0, 2.0),
    "houses_ua_w_per_k_range": (400.0, 600.0), "houses_hvac_kw": 3.0,
    "houses_cop": 2.5, "houses_deadband_c": 2.0,
    "houses_unresponsive_mean_kw": 2.0, "houses_unresponsive_noise_frac": 0.3,
    "pv_panels_range": (2, 4), "pv_panel_w": 300.0, "ev_charger_kw": 7.0,
    "ev_efficiency": 0.9, "ev_worker_ratio": 0.0, "ev_drive_kwh_per_km": 0.3,
    "ev_speed_kmh": 60.0, "ev_initial_soc_range": (0.2, 0.4), "ev_seed": 7,
    "lmp_p_base": 0.02, "lmp_alpha": 2.0, "lmp_diurnal_amplitude": 0.5,
    "lmp_reference_capacity_kw": 20.0, "lmp_demand_ema": 0.5,
    "prices_unresponsive": 0.001,   # below every ask: never fills
    "prices_hvac": 0.001,
    "prices_pv_sell": 0.5,          # above the grid and EV asks
}
# fields read only in csv mode
CSV_FIELDS = ("weather_csv_path", "weather_rated_irradiance_wm2")


def test_every_config_field_changes_the_outputs(tmp_path):
    assert set(LIVE_VALUES) == {f.name for f in
                                dataclasses.fields(ScenarioConfig)}
    base = dict(n_houses=4, n_ev=4, n_pv=4, days=2, discard_days=1,
                weather_csv_path=_weather_csv(tmp_path / "base.csv", 0.0))
    values = dict(LIVE_VALUES, weather_csv_path=_weather_csv(
        tmp_path / LIVE_VALUES["weather_csv_path"], 4.0))

    def outputs(out, overrides):
        run_scenario(dataclasses.replace(builtin_config("s5", **base),
                                         **overrides), out_dir=out)
        return {f.name: f.read_bytes() for f in out.iterdir()}

    def mode(key):
        return "csv" if key in CSV_FIELDS else "synthetic"

    bases = {m: outputs(tmp_path / m, {"weather_mode": m})
             for m in ("synthetic", "csv")}
    dead = [key for key, value in values.items()
            if outputs(tmp_path / key, {"weather_mode": mode(key), key: value})
            == bases[mode(key)]]
    assert dead == []
