"""Command-line interface: subcommands, overrides and exit codes."""

import csv
import json
import math

import pytest

from petgrid import __version__, household, kernel, runner
from petgrid.cli import main


def test_version_command(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_scenarios_list(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == ["s1", "s2", "s3", "s4", "s5"]


def test_run_unknown_scenario_is_usage_error(capsys):
    assert main(["run", "--scenario", "s99"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_run_malformed_set_flag(capsys):
    assert main(["run", "--scenario", "s1", "--set", "oops"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_run_unknown_set_key(capsys):
    assert main(["run", "--scenario", "s1", "--set", "bogus.key=1"]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_run_invalid_config_value(capsys):
    code = main(["run", "--scenario", "s1", "--days", "2"])
    assert code == 1
    assert "days" in capsys.readouterr().err


def fails_before_any_step(args, capsys, monkeypatch, tmp_path) -> str:
    """Run `petgrid run *args` with a federation that must not step;
    check that it exits 1 with one `error:` line and no outputs, and
    return that line."""
    def no_stepping(*_):
        raise AssertionError("the federation must not run")

    monkeypatch.setattr(kernel.Federation, "run", no_stepping)
    code = main(["run", *args, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 6.44 GiB for an array"),
     "error: Unable to allocate 6.44 GiB for an array\n"),
    (MemoryError(), "error: MemoryError\n")])
def test_out_of_memory_is_one_error_line(error, line, capsys, monkeypatch,
                                         tmp_path):
    """A valid run too large to build (say `--days 100000`) ends in one
    `error:` line; the build raises here without allocating."""
    def too_large(*_):
        raise error

    monkeypatch.setattr(household, "build_houses", too_large)
    assert fails_before_any_step(["--scenario", "s1", "--days", "100000"],
                                 capsys, monkeypatch, tmp_path) == line


def test_more_rounds_than_the_fill_log_holds_fail_before_any_step(
        capsys, monkeypatch, tmp_path):
    """Round ids past 2**31 would not fit the fill log, and a run that
    long would step for ever."""
    err = fails_before_any_step(["--scenario", "s1", "--days", "1000000000"],
                                capsys, monkeypatch, tmp_path)
    assert err == ("error: days must not exceed 7456540 at t_market_s 300: "
                   "the fill log's int32 round ids hold 2**31 rounds\n")


def _probe(setting, *extra):
    return pytest.param(setting, list(extra), id=setting)


# 2 days, 3 houses, each with an EV and PV
TINY_FLEET = ("--days", "2", "--set", "scenario.discard_days=1",
              "--set", "houses.count=3", "--set", "ev.count=3",
              "--set", "scenario.n_pv=3")


@pytest.mark.parametrize("setting, extra", [
    _probe("kernel.step_s=0"),
    _probe("market.t_market_s=420"),    # a multiple of step_s, not of a day
    _probe("houses.count=0"),
    _probe("houses.count=1001"),        # trader ids would collide
    _probe("grid.capacity_kw=-5"),
    _probe("grid.capacity_kw=0.0004", "--days", "2",   # a 0 W grid order
           "--set", "scenario.discard_days=1", "--set", "houses.count=3"),
    _probe("grid.capacity_kw=0.0005"),
    # a 1e23 W fill would overflow the transaction log's int32 watts
    _probe("grid.capacity_kw=1e20", "--set", "houses.hvac_kw=1e20",
           *TINY_FLEET),
    _probe("lmp.p_base=1e306", *TINY_FLEET),     # an infinite VWAP
    _probe("lmp.reference_capacity_kw=0"),
    _probe("metrics.vwap_mode=bogus"),
    _probe("weather.mode=bogus"),
    _probe("weather.mode=csv"),         # without weather.csv_path
    _probe("grid.capacity_kw=nan"),
    _probe("prices.hvac=nan"),
    _probe("houses.rc_hours_range=nan,2"),
    _probe("houses.rc_hours_range=3,1.5"),
    _probe("houses.ua_w_per_k_range=0,700"),
    _probe("pv.panels_range=0,20"),
    _probe("pv.panels_range=8"),
    _probe("ev.initial_soc_range=0.5,1.5"),
    _probe("scenario.discard_days=-1", "--days", "1"),
    _probe("houses.hvac_kw=0"),
    _probe("houses.cop=0"),
    _probe("prices.unresponsive=-1"),
    _probe("prices.hvac=-0.5"),
    _probe("prices.pv_sell=-0.01"),
    _probe("lmp.p_base=-0.01"),
    _probe("lmp.alpha=-5"),
    _probe("lmp.diurnal_amplitude=3"),
    _probe("ev.efficiency=0"),
    _probe("ev.efficiency=1.5"),
    _probe("ev.speed_kmh=0"),
    _probe("ev.charger_kw=-5"),
    # a 0 W charger: an EV under the 20% gate has no forced charge
    _probe("ev.charger_kw=0.0004", *TINY_FLEET),
    _probe("ev.drive_kwh_per_km=-0.1"),
    _probe("weather.rated_irradiance_wm2=0", "--set", "weather.mode=csv",
           "--set", "weather.csv_path=weather.csv"),
    _probe("houses.unresponsive_mean_kw=-1"),
    _probe("pv.panel_w=-480"),
    _probe("houses.deadband_c=-2"),
    _probe("houses.unresponsive_noise_frac=5"),     # loads below 0 W
    _probe("houses.unresponsive_noise_frac=-0.1"),
    _probe("ev.worker_ratio=-1"),
    _probe("ev.worker_ratio=3"),
    _probe("lmp.demand_ema=5"),
    _probe("weather.temp_min_c=40"),    # above weather.temp_max_c
    # the substation would round infinite watts at the first round
    _probe("houses.hvac_kw=1e306", *TINY_FLEET),
    _probe("houses.unresponsive_mean_kw=1e306", *TINY_FLEET),
    # a zone temperature whose squared excess overflows at t=240 s
    _probe("weather.temp_max_c=1e160", *TINY_FLEET),
    _probe("houses.ua_w_per_k_range=1e-300,1e-300", *TINY_FLEET),
    # an infinite heat removal, which ran to exit 0 with NaN temperatures
    _probe("houses.cop=1e306", *TINY_FLEET),
])
def test_invalid_config_fails_before_any_step(setting, extra, capsys,
                                              monkeypatch, tmp_path):
    fails_before_any_step(["--scenario", "s1", "--set", setting, *extra],
                          capsys, monkeypatch, tmp_path)


@pytest.mark.parametrize("text", [
    "houses: {count: 3.5}\n",
    "scenario: {seed: 1.5}\n",
    # ran 2.5 days, averaging some day slots over one day, some over two
    "scenario: {days: 2.5, discard_days: 1}\n",
], ids=["houses-count-3.5", "seed-1.5", "days-2.5"])
def test_non_integer_in_a_config_file_fails_before_any_step(
        text, capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "fractional.yaml"
    cfg.write_text(text)
    err = fails_before_any_step(["--scenario", str(cfg)], capsys,
                                monkeypatch, tmp_path)
    assert "must be an integer" in err


# a config file passes YAML nulls, lists and bools to validate()
# uncoerced: each in an int, float and range field, and more in other
# number and string fields
WRONG_TYPES = [
    (f"{section}: {{{name}: {value}}}", f"{key} must be ")
    for section, name, key in (("houses", "count", "n_houses"),
                               ("grid", "capacity_kw", "grid_capacity_kw"),
                               ("pv", "panels_range", "pv_panels_range"))
    for value in ("null", "[1]", "true")
] + [
    ("scenario: {step_s: null}", "step_s must be a finite number"),
    ("market: {t_market_s: null}", "t_market_s must be a finite number"),
    ("weather: {temp_min_c: null}", "weather_temp_min_c must be a finite"),
    ("lmp: {demand_ema: [0.1]}", "lmp_demand_ema must be a finite number"),
    ("weather: {mode: csv, csv_path: 5}", "weather_csv_path must be a string"),
]


@pytest.mark.parametrize("text, message", WRONG_TYPES,
                         ids=[text for text, _ in WRONG_TYPES])
def test_wrong_type_in_a_config_file_fails_before_any_step(
        text, message, capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "typed.yaml"
    cfg.write_text(text + "\n")
    err = fails_before_any_step(["--scenario", str(cfg)], capsys,
                                monkeypatch, tmp_path)
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("rows, extra", [
    (["0,20,0", "3600,nan,0"], []),
    (["0,20,nan", "3600,21,0"], []),
    (["0,20,0", "3600,21,inf"], []),
    (["0,20,0", "3600,21,500"], ["--set", "weather.rated_irradiance_wm2=0"]),
    (["0,20,0", "1:2:3:4,21,0"], []),
    # a zone temperature whose squared excess overflows at t=39,840 s
    (["0,30,0", "43200,1e160,0"], []),
    (["0,-273.16,0"], []),                  # below absolute zero
], ids=["nan-temp", "nan-irradiance", "inf-irradiance", "zero-rating",
        "four-part-timestamp", "hot-temp", "cold-temp"])
def test_bad_weather_csv_fails_before_any_step(rows, extra, capsys,
                                               monkeypatch, tmp_path):
    csv_path = tmp_path / "weather.csv"
    csv_path.write_text("timestamp,temp_c,irradiance_wm2\n"
                        + "\n".join(rows) + "\n")
    fails_before_any_step(
        ["--scenario", "s5", "--days", "2",
         "--set", "scenario.discard_days=1", "--set", "houses.count=3",
         "--set", "ev.count=3", "--set", "scenario.n_pv=3",
         "--set", "weather.mode=csv",
         "--set", f"weather.csv_path={csv_path}", *extra],
        capsys, monkeypatch, tmp_path)


def write_hourly_weather_csv(path) -> None:
    """One day of hourly samples: 26-35 °C, sunlit from 07:00 to 20:00."""
    rows = [f"{h * 3600},{30.5 - 4.5 * math.cos((h - 3) * math.pi / 12):.2f},"
            f"{max(0.0, 900.0 * math.sin((h - 6) * math.pi / 14)):.1f}"
            for h in range(24)]
    path.write_text("timestamp,temp_c,irradiance_wm2\n" + "\n".join(rows)
                    + "\n")


def test_a_csv_weather_scenario_runs_end_to_end(tmp_path, capsys,
                                                monkeypatch):
    csv_path, out = tmp_path / "weather.csv", tmp_path / "out"
    write_hourly_weather_csv(csv_path)
    results = []
    run = runner.run_scenario
    monkeypatch.setattr(runner, "run_scenario",
                        lambda *a, **kw: results.append(run(*a, **kw))
                        or results[-1])
    code = main(["run", "--scenario", "s5", "--days", "2", "--out", str(out),
                 "--set", "scenario.discard_days=1", "--set", "houses.count=3",
                 "--set", "ev.count=3", "--set", "scenario.n_pv=3",
                 "--set", "weather.mode=csv",
                 "--set", f"weather.csv_path={csv_path}"])
    assert code == 0
    for name in ("time_series.csv", "transactions.csv", "average_day.csv",
                 "summary.json"):
        assert (out / name).exists()
    (result,) = results
    assert result.max_imbalance_w <= 1.0
    # the CSV's sun, which sets at 20:00, drives the PV; the synthetic
    # sun would still shine until 21:30
    rounds = result.rounds
    evening = [p for t, p in zip(rounds["t_s"], rounds["pv_potential_w"])
               if 20 * 3600 <= t % 86400 <= 21 * 3600]
    assert len(evening) == 2 * 13 and not any(evening)
    assert max(rounds["pv_supplied_w"]) > 0


def test_the_least_valid_grid_capacity_runs(tmp_path, capsys):
    # 0.0005 kW rounds to a 0 W grid order; the next float up bids 1 W
    out = tmp_path / "out"
    code = main(["run", "--scenario", "s1", "--days", "2", "--out", str(out),
                 "--set", "scenario.discard_days=1", "--set", "houses.count=3",
                 "--set", f"grid.capacity_kw={math.nextafter(0.0005, 1)!r}"])
    assert code == 2        # a 1 W grid cannot serve the houses
    assert json.loads((out / "summary.json").read_text())[
        "grid_capacity_kw"] == math.nextafter(0.0005, 1)


def _at_edge(key: str, end: int) -> tuple[str, str]:
    """`--set` of `key` at the lower (`end` 0) or upper (1) edge of its
    field's DOMAINS entry, at both ends of a range field."""
    field = key.replace(".", "_")
    value = repr(runner.DOMAINS[field][end])
    if field.endswith("_range"):
        value = f"{value},{value}"
    return "--set", f"{key}={value}"


def test_sellers_and_asks_at_their_upper_edges_run(tmp_path, capsys):
    """Every field that sets a seller's watts or ask at the highest
    value validate() accepts: the fills fit the transaction log and the
    summary is finite. So is every bound on the houses and the weather,
    with the grid at its cap and the default asks, so that the HVAC
    packets clear and cool at the highest COP, and the appliance
    packets at full noise reach their highest watts."""
    sellers = (*_at_edge("grid.capacity_kw", 1), *_at_edge("ev.charger_kw", 1),
               *_at_edge("pv.panel_w", 1), *_at_edge("pv.panels_range", 1),
               *_at_edge("lmp.p_base", 1), *_at_edge("lmp.alpha", 1),
               *_at_edge("prices.pv_sell", 1))
    houses = (*_at_edge("houses.hvac_kw", 1),
              *_at_edge("houses.unresponsive_mean_kw", 1),
              *_at_edge("houses.unresponsive_noise_frac", 1),
              *_at_edge("houses.cop", 1),
              *_at_edge("houses.ua_w_per_k_range", 0),
              *_at_edge("weather.temp_min_c", 0),
              *_at_edge("weather.temp_max_c", 1),
              *_at_edge("grid.capacity_kw", 1))
    for name, settings in (("sellers", sellers), ("houses", houses)):
        out = tmp_path / name
        code = main(["run", "--scenario", "s5", "--out", str(out),
                     *TINY_FLEET, *settings])
        assert code in (0, 2), name
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        numbers = [v for v in summary.values() if isinstance(v, (int, float))]
        numbers += [v for v in summary["violations"].values()]
        assert all(math.isfinite(v) for v in numbers), name
        assert summary["vwap_bar"] > 0, name
        with open(out / "time_series.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert not [v for row in rows for v in row.values()
                    if v and not math.isfinite(float(v))], name
    # the HVAC packets cleared, so the 1e6 COP cooled the zones
    assert any(float(row["hvac_load_w"]) > 0 for row in rows)
    # the largest appliance packet traded came within 10% of 2**31 W
    with open(out / "transactions.csv", newline="") as f:
        top = max(int(row["quantity_w"]) for row in csv.DictReader(f)
                  if 1000 <= int(row["buyer"]) < 2000)
    assert 0.9 * 2**31 < top < 2**31


def test_run_with_ev_seed_override(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", "s4", "--days", "2", "--out", str(out),
                 "--set", "scenario.discard_days=1", "--set", "houses.count=2",
                 "--set", "ev.count=2", "--set", "ev.seed=5"])
    assert code in (0, 2)
    assert (out / "summary.json").exists()


def _run_tiny(tmp_path, capsys, *extra):
    out = tmp_path / "out"
    code = main(["run", "--scenario", "s1", "--days", "5", "--seed", "2",
                 "--out", str(out),
                 "--set", "houses.count=4", *extra])
    return code, out, capsys.readouterr().out


def test_run_builtin_clean_exit_and_outputs(tmp_path, capsys):
    code, out, stdout = _run_tiny(tmp_path, capsys)
    assert code == 0
    for name in ("time_series.csv", "transactions.csv", "average_day.csv",
                 "summary.json"):
        assert (out / name).exists()
    assert "T_excess2_bar=" in stdout
    assert "violations=0" in stdout


def test_run_with_violations_exits_two(tmp_path, capsys):
    out = tmp_path / "starved"
    # four houses on a 1 kW grid cannot serve their unresponsive load
    code = main(["run", "--scenario", "s2", "--days", "5", "--seed", "2",
                 "--out", str(out),
                 "--set", "houses.count=4", "--set", "grid.capacity_kw=1"])
    assert code == 2
    payload = json.loads((out / "summary.json").read_text())
    assert payload["violations"]["unserved_unresponsive"] > 0


def test_run_custom_config_file(tmp_path, capsys):
    cfg = tmp_path / "custom.yaml"
    cfg.write_text(
        "scenario:\n  days: 5\n  seed: 1\nhouses:\n  count: 3\n"
        "grid:\n  capacity_kw: 30\n"
    )
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(cfg), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["scenario"] == "custom"
    assert payload["n_houses"] == 3


def test_config_file_is_validated_after_the_overrides(tmp_path, capsys):
    """A file value that only the command line makes valid runs, and an
    invalid final config still fails with one error line."""
    cfg = tmp_path / "short.yaml"
    cfg.write_text("scenario:\n  days: 2\nhouses:\n  count: 3\n")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: days must exceed discard_days\n"
    assert not out.exists()
    code = main(["run", "--scenario", str(cfg), "--out", str(out),
                 "--set", "scenario.discard_days=1"])
    assert code == 0
    payload = json.loads((out / "summary.json").read_text())
    assert (payload["days"], payload["discard_days"]) == (2, 1)
