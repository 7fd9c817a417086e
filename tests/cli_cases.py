"""The program's own runs, as one table that three consumers read.

Each row (a `Case`) is one run of the `petgrid` console script, or of a
demo script, with the files it needs, the exit code it must give and,
for exit 1, the start of its one `error:` line. `CASES` maps the name of
a Tier-1 test in `tests/test_cli.py` to its rows. Three consumers run
every row, each in a fresh working directory:

- `tests/test_cli.py` runs each row in process through `petgrid.cli.main`;
- `tools/line_reach.py` runs each row in process under its tracer;
- this module, run as a script, runs each row in a child process through
  the `petgrid` on PATH and fails on the first mismatch:

      python3 tests/cli_cases.py

`check` judges a run the same way in process and in a child process. A
new reproducer is one more row.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import runpy
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@dataclass(frozen=True)
class Case:
    """One run: `argv` goes to `petgrid`, or to the demo `script` under
    `demos/`, in a directory that holds `files` (name: text) and nothing
    else. The run writes its outputs to `out`, the CLI's default. A
    case that must exit 1 must print exactly one stderr line, which
    starts with `error` (is `error`, when that ends in a newline)."""
    id: str | None          # the test's parameter id; None for a lone case
    argv: tuple[str, ...]
    files: dict[str, str] = field(default_factory=dict)
    exit: int = 0
    error: str = "error: "
    # asserts on the output directory and stdout of a run that exits 0 or 2
    expect: Callable[[Path, str], None] | None = None
    script: str | None = None
    # the child's address-space cap in bytes, so that a run which would
    # allocate for ever stops instead of exhausting the machine
    address_space: int | None = None


def check(case: Case, code: int, stderr: str) -> list[str]:
    """What is wrong with a run of `case` that exited `code` and printed
    `stderr`; empty when nothing is."""
    problems = []
    if code != case.exit:
        problems.append(f"exit code {code}, expected {case.exit}")
    if "Traceback" in stderr:
        problems.append("a traceback on stderr")
    if case.exit == 1:
        lines = len(stderr.splitlines())
        if lines != 1:
            problems.append(f"{lines} stderr lines, expected 1")
        if not stderr.startswith(case.error):
            problems.append(f"stderr does not start with {case.error!r}")
    return problems


def run_in_process(case: Case, directory: Path) -> tuple[int, str, str]:
    """Run `case` in this process with `directory` as the working
    directory; return its exit code, stdout and stderr."""
    from petgrid.cli import main
    for name, text in case.files.items():
        (directory / name).write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd, argv = os.getcwd(), sys.argv
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            if case.script:
                sys.argv = [str(DEMOS / case.script), *case.argv]
                runpy.run_path(sys.argv[0], run_name="__main__")
                code = 0
            else:
                code = main(list(case.argv))
    finally:
        os.chdir(cwd)
        sys.argv = argv
    return code, stdout.getvalue(), stderr.getvalue()


def run_console(case: Case, directory: Path) -> tuple[int, str, str]:
    """Run `case` in a child process, through the `petgrid` on PATH or
    the demo script under this interpreter, with `directory` as the
    working directory; return its exit code, stdout and stderr."""
    for name, text in case.files.items():
        (directory / name).write_text(text)
    command = ([sys.executable, str(DEMOS / case.script)] if case.script
               else ["petgrid"])

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (case.address_space,) * 2)

    proc = subprocess.run(
        [*command, *case.argv], cwd=directory, capture_output=True,
        text=True, timeout=600,
        preexec_fn=cap_address_space if case.address_space else None)
    return proc.returncode, proc.stdout, proc.stderr


def _wrote_outputs(out: Path, stdout: str = "") -> None:
    for name in ("time_series.csv", "transactions.csv", "average_day.csv",
                 "summary.json"):
        assert (out / name).stat().st_size > 0, name


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def _prints_version(out: Path, stdout: str) -> None:
    from petgrid import __version__
    assert stdout.strip() == __version__


def _lists_the_builtins(out: Path, stdout: str) -> None:
    names = [line.split()[0] for line in stdout.strip().splitlines()]
    assert names == ["s1", "s2", "s3", "s4", "s5"]


def _prints_the_summary(out: Path, stdout: str) -> None:
    _wrote_outputs(out)
    assert "T_excess2_bar=" in stdout and "violations=0" in stdout


def _starves_the_appliances(out: Path, stdout: str) -> None:
    assert _summary(out)["violations"]["unserved_unresponsive"] > 0


def _names_the_run(scenario: str, houses: int):
    """An `expect`: the summary names `scenario` and `houses` houses."""
    def expect(out: Path, stdout: str) -> None:
        summary = _summary(out)
        assert (summary["scenario"], summary["n_houses"]) == (scenario, houses)
    return expect


def _leaves_a_forced_charge_unfilled(out: Path, stdout: str) -> None:
    assert _summary(out)["violations"]["ev_unfilled_must_charge"] > 0


def _has_no_nan(out: Path, stdout: str) -> None:
    assert "NaN" not in (out / "summary.json").read_text()


def _has_13_slots(out: Path, stdout: str) -> None:
    # a header and 13 slots, though int(86400 / t_market_s) is 12
    assert len((out / "average_day.csv").read_text().splitlines()) == 14


def _bids_1_w(out: Path, stdout: str) -> None:
    assert _summary(out)["grid_capacity_kw"] == math.nextafter(0.0005, 1)


def _follows_the_csv_sun(out: Path, stdout: str) -> None:
    _wrote_outputs(out)
    # the CSV's sun, which sets at 20:00, drives the PV; the synthetic
    # sun would still shine until 21:30
    with open(out / "time_series.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    evening = [float(row["pv_potential_w"]) for row in rows
               if 20 * 3600 <= float(row["t_s"]) % 86400 <= 21 * 3600]
    assert len(evening) == 2 * 13 and not any(evening)
    assert max(float(row["pv_supplied_w"]) for row in rows) > 0


def _prints_something(out: Path, stdout: str) -> None:
    assert stdout


# one day of hourly samples: 26-35 °C, sunlit from 07:00 to 20:00
HOURLY_WEATHER = "timestamp,temp_c,irradiance_wm2\n" + "".join(
    f"{h * 3600},{30.5 - 4.5 * math.cos((h - 3) * math.pi / 12):.2f},"
    f"{max(0.0, 900.0 * math.sin((h - 6) * math.pi / 14)):.1f}\n"
    for h in range(24))


# 2 days, 3 houses; FLEET gives each an EV and PV
TINY = ("--days", "2", "--set", "scenario.discard_days=1",
        "--set", "houses.count=3")
FLEET = (*TINY, "--set", "ev.count=3", "--set", "scenario.n_pv=3")


def run(id, *args, **fields) -> Case:
    """`petgrid run --scenario *args`."""
    return Case(id, ("run", "--scenario", *args), **fields)


def refused(id, *args, **fields) -> Case:
    """A run that must exit 1 with one `error:` line."""
    return run(id, *args, exit=1, **fields)


def probe(setting, *args, scenario="s1", **fields) -> Case:
    """`--set setting` on `scenario`, which must be refused."""
    return refused(setting, scenario, "--set", setting, *args, **fields)


def from_file(id, name, text, *args, **fields) -> Case:
    """A run of the config file `name` that holds `text`."""
    return run(id, name, *args, files={name: text}, **fields)


def bad_weather(id, rows, *args) -> Case:
    """An s5 run on a weather CSV of `rows`, which must be refused."""
    return refused(id, "s5", *FLEET, "--set", "weather.mode=csv",
                   "--set", "weather.csv_path=weather.csv", *args,
                   files={"weather.csv": "timestamp,temp_c,irradiance_wm2\n"
                          + "\n".join(rows) + "\n"})


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


CASES: dict[str, list[Case]] = {
    "test_version_command": [Case(None, ("version",), expect=_prints_version)],
    "test_scenarios_list": [
        Case(None, ("scenarios", "list"), expect=_lists_the_builtins)],
    "test_run_builtin_clean_exit_and_outputs": [
        run(None, "s1", "--days", "5", "--seed", "2",
            "--set", "houses.count=4", expect=_prints_the_summary)],
    # four houses on a 1 kW grid cannot serve their appliance loads
    "test_run_with_violations_exits_two": [
        run(None, "s2", "--days", "5", "--seed", "2",
            "--set", "houses.count=4", "--set", "grid.capacity_kw=1",
            exit=2, expect=_starves_the_appliances)],
    "test_run_custom_config_file": [
        from_file(None, "custom.yaml",
                  "scenario:\n  days: 5\n  seed: 1\nhouses:\n  count: 3\n"
                  "grid:\n  capacity_kw: 30\n",
                  expect=_names_the_run("custom", 3))],
    "test_an_empty_config_file_means_no_settings": [
        from_file(None, "empty.yaml", "", *TINY,
                  expect=_names_the_run("empty", 3))],
    # --seed, and an EV seed apart from the run's
    "test_run_with_ev_seed_override": [
        run(None, "s5", "--seed", "2", *FLEET, "--set", "ev.seed=7",
            expect=_wrote_outputs)],
    # weather from a CSV: one day of hourly samples, wrapped for a second day
    "test_a_csv_weather_scenario_runs_end_to_end": [
        run(None, "s5", *FLEET, "--set", "weather.mode=csv",
            "--set", "weather.csv_path=weather.csv",
            files={"weather.csv": HOURLY_WEATHER},
            expect=_follows_the_csv_sun)],
    # 0.0005 kW rounds to a 0 W grid order; the next float up bids 1 W,
    # which cannot serve the houses
    "test_the_least_valid_grid_capacity_runs": [
        run(None, "s1", *TINY,
            "--set", f"grid.capacity_kw={math.nextafter(0.0005, 1)!r}",
            exit=2, expect=_bids_1_w)],
    "test_small_runs_exit_cleanly": [
        # no EVs: the EV fleet neither reads nor publishes
        run("s1", "s1", *TINY),
        run("s2", "s2", *TINY),
        run("s3", "s3", *TINY, "--set", "scenario.n_pv=3"),
        run("s4", "s4", *TINY, "--set", "ev.count=3"),
        run("s5", "s5", *FLEET),
        # PV on two of three houses: the PV topic and the substation's PV
        # dispatch block hold one entry per array, not per house
        run("pv-on-2-of-3", "s3", *TINY, "--set", "scenario.n_pv=2"),
        # one step per round: the fleets rebuild their per-round inputs
        # at every step
        run("one-step-rounds", "s5", *FLEET, "--set", "market.t_market_s=60"),
        # one round a day: each summary average is the analysis window's
        # single round, which must not come out as NaN
        run("one-round-a-day", "s5", *FLEET,
            "--set", "market.t_market_s=86400", expect=_has_no_nan),
        # 11 rounds a day of one step: 3 days are 33 steps, though 33
        # steps of 7854.545454545454 s are not exactly 3 days
        run("11-rounds-a-day", "s1", *TINY, "--days", "3",
            "--set", "market.t_market_s=7854.545454545454",
            "--set", "kernel.step_s=7854.545454545454"),
        run("13-rounds-a-day", "s1", *TINY,
            "--set", "market.t_market_s=6646.153846153847",
            "--set", "kernel.step_s=6646.153846153847", expect=_has_13_slots),
        # a half-watt charger rating: the EV fleet's whole-watt ranges
        # are the ones the substation bids, so no command is out of range
        run("half-watt-rating", "s5", *FLEET, "--set", "ev.charger_kw=7.2005"),
        # a YAML list is a range, and `none` clears an optional field
        from_file("yaml-range-and-none", "range.yaml",
                  "houses: {count: 3, rc_hours_range: [1.5, 2.0]}\n"
                  "ev: {count: 3}\n",
                  "--days", "2", "--set", "scenario.discard_days=1",
                  "--set", "ev.seed=none"),
    ],
    # the branches that the small runs above skip
    "test_rare_device_branches_run": [
        # test_invariants.py's draw of an EV below 20% SoC whose forced
        # charge the 10 kW grid does not fill
        run("unfilled-forced-charge", "s5", "--days", "2", "--seed", "478825",
            "--set", "scenario.discard_days=1", "--set", "houses.count=3",
            "--set", "ev.count=1", "--set", "scenario.n_pv=0",
            "--set", "market.t_market_s=900", "--set", "grid.capacity_kw=10",
            exit=2, expect=_leaves_a_forced_charge_unfilled),
        # nearly empty packs that drive 1.5 kWh a km: step_battery clamps
        # the pack energy at 0
        run("empty-pack", "s5", *FLEET, "--set", "ev.initial_soc_range=0,0.05",
            "--set", "ev.drive_kwh_per_km=1.5"),
        # a 500 kW charger on a 10 MW grid fills a pack within a step
        run("full-pack", "s5", *FLEET, "--set", "ev.charger_kw=500",
            "--set", "grid.capacity_kw=10000"),
    ],
    "test_demo_runs": [
        Case("walkthrough", (), script="market_round_walkthrough.py",
             expect=_prints_something),
        Case("all-scenarios", ("--days", "2"), script="run_all_scenarios.py",
             expect=_prints_something),
        Case("ev-day", (), script="ev_day_in_the_life.py",
             expect=_prints_something),
    ],
    # argparse's own usage errors give one `error:` line and exit 1, as
    # every other bad input does; argparse alone prints a usage block and
    # exits 2, the code of a run with violations
    "test_a_usage_error_is_one_error_line": [
        refused("fractional-days", "s1", "--days", "2.5",
                error="error: argument --days: invalid int value: '2.5'\n"),
        refused("unknown-flag", "s1", "--bogus",
                error="error: unrecognized arguments: --bogus\n"),
        Case("run-without-scenario", ("run",), exit=1,
             error="error: the following arguments are required: "
             "--scenario\n"),
        Case("no-command", (), exit=1, error="error: the following "
             "arguments are required: command\n"),
    ],
    "test_run_unknown_scenario_is_usage_error": [
        refused(None, "s99", error="error: unknown scenario 's99'\n")],
    "test_run_malformed_set_flag": [
        refused(None, "s1", "--set", "oops",
                error="error: --set expects KEY=VALUE, got 'oops'\n")],
    "test_run_unknown_set_key": [
        refused(None, "s1", "--set", "bogus.key=1",
                error="error: unknown config key 'bogus.key'\n")],
    "test_run_invalid_config_value": [
        refused(None, "s1", "--days", "2",
                error="error: days must exceed discard_days\n")],
    # a billion days are 2.88e11 rounds, whose logs would outgrow any
    # memory, and a run that long would step for ever: `days`'s domain
    # refuses it before the build, under a 4 GB cap in a child process
    "test_more_rounds_than_the_fill_log_holds_fail_before_any_step": [
        refused(None, "s1", "--days", "1000000000",
                error="error: days must be an integer within [1, 3653]\n",
                address_space=4_000_000 * 1024)],
    # a round of 2**52 steps is a whole number of steps, but two days of
    # them are 2**53, which the kernel refuses to count: validate() makes
    # the kernel's check on the same horizon, before the build
    "test_a_run_of_2_53_steps_fails_before_any_step": [
        refused(None, "s1", *TINY, "--set", "market.t_market_s=86400",
                "--set", "kernel.step_s=1.9184653865522705e-11",
                error=f"error: a run of {2**53} steps is too long")],
    # an --out that names a file fails after the build, before the first
    # step, and leaves the file as it was
    "test_an_unusable_out_fails_before_any_step": [
        refused(None, "s1", *TINY, "--out", "taken",
                files={"taken": "kept"})],
    "test_invalid_config_fails_before_any_step": [
        probe("kernel.step_s=0"),
        probe("market.t_market_s=420"),     # a multiple of step_s only
        probe("houses.count=0"),
        probe("houses.count=1001"),         # trader ids would collide
        probe("grid.capacity_kw=-5"),
        probe("grid.capacity_kw=0.0004", *TINY),    # a 0 W grid order
        probe("grid.capacity_kw=0.0005"),
        # a 1e23 W fill would overflow the transaction log's int32 watts
        probe("grid.capacity_kw=1e20", "--set", "houses.hvac_kw=1e20",
              *FLEET),
        probe("lmp.p_base=1e306", *FLEET),  # an infinite VWAP
        probe("lmp.reference_capacity_kw=0"),
        probe("metrics.vwap_mode=bogus"),
        probe("weather.mode=bogus"),
        probe("weather.mode=csv"),          # without weather.csv_path
        probe("grid.capacity_kw=nan"),
        probe("prices.hvac=nan"),
        probe("houses.rc_hours_range=nan,2"),
        probe("houses.rc_hours_range=3,1.5"),
        probe("houses.ua_w_per_k_range=0,700"),
        probe("pv.panels_range=0,20"),
        probe("pv.panels_range=8"),
        probe("ev.initial_soc_range=0.5,1.5"),
        probe("ev.count=4", *TINY, error="error: n_ev and n_pv must not "
              "exceed n_houses\n"),
        probe("pv.panels_range=8.5,9.5",
              error="error: pv_panels_range must be whole numbers\n"),
        probe("scenario.discard_days=-1", "--days", "1"),
        probe("houses.hvac_kw=0"),
        # a 0.4 W HVAC packet rounds to 0 W, so the HVAC never buys or runs
        probe("houses.hvac_kw=0.0004", *TINY),
        probe("houses.cop=0"),
        probe("prices.unresponsive=-1"),
        probe("prices.hvac=-0.5"),
        probe("prices.pv_sell=-0.01"),
        probe("lmp.p_base=-0.01"),
        probe("lmp.alpha=-5"),
        probe("lmp.diurnal_amplitude=3"),
        probe("ev.efficiency=0"),
        probe("ev.efficiency=1.5"),
        probe("ev.speed_kmh=0"),
        probe("ev.charger_kw=-5"),
        # a 0 W charger: an EV under the 20% gate has no forced charge
        probe("ev.charger_kw=0.0004", *FLEET),
        probe("ev.drive_kwh_per_km=-0.1"),
        probe("weather.rated_irradiance_wm2=0", "--set", "weather.mode=csv",
              "--set", "weather.csv_path=weather.csv"),
        probe("houses.unresponsive_mean_kw=-1"),
        probe("pv.panel_w=-480"),
        probe("houses.deadband_c=-2"),
        probe("houses.unresponsive_noise_frac=5"),      # loads below 0 W
        probe("houses.unresponsive_noise_frac=-0.1"),
        probe("ev.worker_ratio=-1"),
        probe("ev.worker_ratio=3"),
        probe("lmp.demand_ema=5"),
        probe("lmp.demand_ema=2", "--days", "2",
              "--set", "scenario.discard_days=1", scenario="s5"),
        probe("weather.temp_min_c=40"),     # above weather.temp_max_c
        # the substation would round infinite watts at the first round
        probe("houses.hvac_kw=1e306", *FLEET),
        probe("houses.unresponsive_mean_kw=1e306", *FLEET),
        # a zone temperature whose squared excess overflows at t=240 s
        probe("weather.temp_max_c=1e160", *FLEET),
        probe("houses.ua_w_per_k_range=1e-300,1e-300", *FLEET),
        # an infinite heat removal, which ran to exit 0 with NaN temperatures
        probe("houses.cop=1e306", *FLEET),
        # a --set value that does not parse names its key
        probe("houses.count=3.0", error="error: houses.count: invalid "
              "literal for int() with base 10: '3.0'\n"),
        probe("scenario.seed=1e3", error="error: scenario.seed: invalid "
              "literal for int() with base 10: '1e3'\n"),
        probe("houses.rc_hours_range=a,b", error="error: "
              "houses.rc_hours_range: could not convert string to float: "
              "'a'\n"),
    ],
    # a config file is not coerced like --set: a YAML float in an int
    # field is refused
    "test_non_integer_in_a_config_file_fails_before_any_step": [
        from_file("houses-count-3.5", "fractional.yaml",
                  "houses: {count: 3.5}\n", exit=1,
                  error="error: n_houses must be an integer"),
        from_file("seed-1.5", "fractional.yaml", "scenario: {seed: 1.5}\n",
                  exit=1, error="error: seed must be an integer"),
        # ran 2.5 days, averaging some day slots over one day, some over two
        from_file("days-2.5", "fractional.yaml",
                  "scenario: {days: 2.5, discard_days: 1}\n", exit=1,
                  error="error: days must be an integer"),
    ],
    "test_wrong_type_in_a_config_file_fails_before_any_step": [
        from_file(text, "typed.yaml", text + "\n", exit=1,
                  error=f"error: {message}")
        for text, message in WRONG_TYPES],
    # a YAML syntax error is one line naming the file, not the parser's
    # traceback
    "test_malformed_yaml_is_one_error_line_naming_the_file": [
        from_file(None, "bad.yaml", "houses: {count: 2}\n- x\n", exit=1,
                  error="error: config file bad.yaml is not valid YAML at "
                  "line 2\n")],
    # only an empty document means no settings: a falsy one that is no
    # mapping fails, and does not run the defaults
    "test_a_falsy_document_that_is_no_mapping_fails_before_any_step": [
        from_file(document, "falsy.yaml", document + "\n", *TINY, exit=1,
                  error="error: config file must contain a mapping\n")
        for document in ("[]", "0", "false", "''")],
    # YAML keeps the last of a repeated key, so a file that repeats one
    # would run a value its reader may not see; it fails instead
    "test_a_repeated_config_key_fails_before_any_step": [
        from_file(id, "repeated.yaml", text, *TINY, exit=1,
                  error=f"error: config file repeated.yaml repeats key "
                  f"{key!r}\n")
        for id, text, key in (
            ("top-level", "houses: {count: 2}\nhouses: {count: 3}\n",
             "houses"),
            ("flow", "houses: {count: 2, count: 3}\n", "count"),
            ("block", "scenario:\n  days: 2\n  seed: 1\n  days: 3\n", "days"),
            ("depth-3", "a:\n  b:\n    c: 1\n    c: 2\n", "c"))],
    "test_bad_weather_csv_fails_before_any_step": [
        bad_weather("nan-temp", ["0,20,0", "3600,nan,0"]),
        bad_weather("nan-irradiance", ["0,20,nan", "3600,21,0"]),
        bad_weather("inf-irradiance", ["0,20,0", "3600,21,inf"]),
        bad_weather("zero-rating", ["0,20,0", "3600,21,500"],
                    "--set", "weather.rated_irradiance_wm2=0"),
        bad_weather("four-part-timestamp", ["0,20,0", "1:2:3:4,21,0"]),
        # a zone temperature whose squared excess overflows at t=39,840 s
        bad_weather("hot-temp", ["0,30,0", "43200,1e160,0"]),
        bad_weather("cold-temp", ["0,-273.16,0"]),  # below absolute zero
    ],
}


def main() -> int:
    """Run every case through the console script, each in a fresh
    directory; stop at the first mismatch."""
    for name, cases in CASES.items():
        for case in cases:
            label = name if case.id is None else f"{name}[{case.id}]"
            with tempfile.TemporaryDirectory() as tmp:
                code, stdout, stderr = run_console(case, Path(tmp))
                problems = check(case, code, stderr)
                if not problems and case.expect:
                    try:
                        case.expect(Path(tmp) / "out", stdout)
                    except (AssertionError, OSError) as exc:
                        problems.append(f"output check failed: {exc!r}")
            if problems:
                print(f"FAIL {label}: {'; '.join(problems)}\n{stderr}",
                      file=sys.stderr)
                return 1
            print(f"ok {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
