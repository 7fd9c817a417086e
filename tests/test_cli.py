"""Command-line interface: subcommands, overrides and exit codes.

Most tests here are generated from the table of runs in `cli_cases.py`,
one test for each name in `CASES`, which runs its rows in process."""

import csv
import json
import math

import pytest

import cli_cases
from cli_cases import FLEET, Case
from petgrid import household, kernel, runner
from petgrid.cli import main


def no_stepping(*_):
    raise AssertionError("the federation must not run")


def run_case(case: Case, monkeypatch, tmp_path) -> None:
    """Run `case` in process in `tmp_path` and check it. A case that
    must exit 1 must also fail before the federation steps, leave its
    files as they were and write no output directory."""
    if case.exit == 1:
        monkeypatch.setattr(kernel.Federation, "run", no_stepping)
    code, stdout, stderr = cli_cases.run_in_process(case, tmp_path)
    assert cli_cases.check(case, code, stderr) == [], stderr
    if case.exit == 1:
        assert not (tmp_path / "out").exists()
        for name, text in case.files.items():
            assert (tmp_path / name).read_text() == text
    elif case.expect:
        case.expect(tmp_path / "out", stdout)


def _test_of(cases: list[Case]):
    """A test that runs `cases`: parametrized by their ids, or a plain
    test for a lone case without one."""
    if cases[0].id is None:
        (case,) = cases

        def test(monkeypatch, tmp_path):
            run_case(case, monkeypatch, tmp_path)
        return test

    @pytest.mark.parametrize("case", cases, ids=[c.id for c in cases])
    def test(case, monkeypatch, tmp_path):
        run_case(case, monkeypatch, tmp_path)
    return test


globals().update({name: _test_of(cases)
                  for name, cases in cli_cases.CASES.items()})


def test_check_reports_each_mismatch():
    """The check that Tier-1 and the console-script run share refuses
    every way a run can differ from its row."""
    case = Case(None, ("run",), exit=1, error="error: days must ")
    line = "error: days must exceed discard_days\n"
    assert cli_cases.check(case, 1, line) == []
    assert cli_cases.check(case, 2, line) == ["exit code 2, expected 1"]
    assert cli_cases.check(case, 1, line + line) == [
        "2 stderr lines, expected 1"]
    assert cli_cases.check(case, 1, "Traceback: " + line) == [
        "a traceback on stderr",
        "stderr does not start with 'error: days must '"]
    assert cli_cases.check(case, 1, "error: seed must be an integer\n") == [
        "stderr does not start with 'error: days must '"]
    assert cli_cases.check(Case(None, ("version",)), 0, "Traceback\n") == [
        "a traceback on stderr"]


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 6.44 GiB for an array"),
     "error: Unable to allocate 6.44 GiB for an array\n"),
    (MemoryError(), "error: MemoryError\n")])
def test_out_of_memory_is_one_error_line(error, line, monkeypatch, tmp_path):
    """A valid run too large to build (say ten years, `--days 3653`, on
    a small machine) ends in one `error:` line; the build raises here
    without allocating."""
    def too_large(*_):
        raise error

    monkeypatch.setattr(household, "build_houses", too_large)
    run_case(Case(None, ("run", "--scenario", "s1", "--days", "3653"),
                  exit=1, error=line), monkeypatch, tmp_path)


def test_a_key_in_two_mappings_is_no_repeat(tmp_path):
    cfg = tmp_path / "counts.yaml"
    cfg.write_text("houses: {count: 2}\nev: {count: 1}\n")
    loaded = runner.load_config_file(cfg)
    assert (loaded.n_houses, loaded.n_ev) == (2, 1)


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
                     *FLEET, *settings])
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
