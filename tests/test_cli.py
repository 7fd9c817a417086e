"""Command-line interface: subcommands, overrides and exit codes."""

import json

import pytest

from petgrid import __version__, kernel
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


def _probe(setting, *extra):
    return pytest.param(setting, list(extra), id=setting)


@pytest.mark.parametrize("setting, extra", [
    _probe("kernel.step_s=0"),
    _probe("market.t_market_s=420"),    # a multiple of step_s, not of a day
    _probe("houses.count=0"),
    _probe("grid.capacity_kw=-5"),
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
])
def test_invalid_config_fails_before_any_step(setting, extra, capsys,
                                              monkeypatch, tmp_path):
    def no_stepping(*args):
        raise AssertionError("the federation must not run")

    monkeypatch.setattr(kernel.Federation, "run", no_stepping)
    code = main(["run", "--scenario", "s1", "--out", str(tmp_path / "out"),
                 "--set", setting, *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
