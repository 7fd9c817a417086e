"""Print every line of `src/petgrid` that the program's own runs never reach.

    python3 tools/line_reach.py

A by-hand probe of which code small runs leave unexercised; it is not
part of the test suite. In one process, under `sys.settrace`, it runs
small s1-s5 scenarios, the console-script runs and must-fail configs of
`.github/workflows/tier1.yml`, CLI reproducers of validate()'s rules and
the three demos. Then it prints each executable line of each module that
none of them reached, as `path:line: source`, and a count. A line is
executable when the compiled module maps an instruction to it. A
function's lines count as reached when it is called or when its line
runs, so a line listed here ran in none of these runs. Outputs go to a
temporary directory, and the runs' console output is discarded. Uses
only the standard library.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import runpy
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "petgrid"

# 2 days, 3 houses; FLEET gives each an EV and PV
TINY = ["--days", "2", "--set", "scenario.discard_days=1",
        "--set", "houses.count=3"]
FLEET = TINY + ["--set", "ev.count=3", "--set", "scenario.n_pv=3"]


def cli_runs(tmp: Path) -> list[list[str]]:
    """`petgrid` argument lists: version and list, the builtins, the CI
    runs, then the configs that must fail."""
    weather_csv, empty, fractional, null, bad, taken, ranged, dupkey = (
        tmp / name for name in ("weather.csv", "empty.yaml", "fractional.yaml",
                                "null.yaml", "bad.yaml", "taken",
                                "range.yaml", "dupkey.yaml"))
    weather_csv.write_text("timestamp,temp_c,irradiance_wm2\n" + "".join(
        f"{h * 3600},{30.5 - 4.5 * math.cos((h - 3) * math.pi / 12):.2f},"
        f"{max(0.0, 900.0 * math.sin((h - 6) * math.pi / 14)):.1f}\n"
        for h in range(24)))
    fractional.write_text("houses: {count: 3.5}\n")
    empty.touch()
    null.write_text("grid: {capacity_kw: null}\n")
    bad.write_text("houses: {count: 2}\n- x\n")
    ranged.write_text("houses: {count: 3, rc_hours_range: [1.5, 2.0]}\n"
                      "ev: {count: 3}\n")
    dupkey.write_text("houses: {count: 2}\nhouses: {count: 3}\n")
    taken.touch()
    falsy = [tmp / f"falsy-{i}.yaml" for i in range(4)]
    for path, document in zip(falsy, ["[]", "0", "false", "''"]):
        path.write_text(document + "\n")
    runs = [
        ["s1", *TINY], ["s2", *TINY],
        ["s3", *TINY, "--set", "scenario.n_pv=3"],
        ["s4", *TINY, "--set", "ev.count=3"], ["s5", *FLEET],
        ["s3", *TINY, "--set", "scenario.n_pv=2"],
        ["s5", *FLEET, "--set", "market.t_market_s=60"],
        ["s5", *FLEET, "--set", "market.t_market_s=86400"],
        ["s1", *TINY, "--days", "3",
         "--set", "market.t_market_s=7854.545454545454",
         "--set", "kernel.step_s=7854.545454545454"],
        ["s1", *TINY, "--set", "market.t_market_s=6646.153846153847",
         "--set", "kernel.step_s=6646.153846153847"],
        ["s5", *FLEET, "--set", "weather.mode=csv",
         "--set", f"weather.csv_path={weather_csv}"],
        ["s5", *FLEET, "--set", "ev.charger_kw=7.2005"],
        [str(empty), *TINY],
        ["s5", "--seed", "2", *FLEET, "--set", "ev.seed=7"],
        [str(ranged), "--days", "2", "--set", "scenario.discard_days=1",
         "--set", "ev.seed=none"],
        # configs that must fail with one `error:` line
        ["s5", *TINY, "--set", "lmp.demand_ema=2"],
        ["s1", "--set", "bogus.key=1"], ["s1", "--set", "oops"], ["nope"],
        [str(fractional)], [str(null)], [str(bad)],
        [str(dupkey), "--days", "2", "--set", "scenario.discard_days=1"],
        *([str(path), *TINY] for path in falsy),
        ["s1", *TINY, "--set", "grid.capacity_kw=0.0004"],
        ["s1", *TINY, "--set", "houses.hvac_kw=0.0004"],
        ["s1", *TINY, "--set", "market.t_market_s=86400",
         "--set", "kernel.step_s=1.9184653865522705e-11"],
        ["s5", *FLEET, "--set", "grid.capacity_kw=1e20",
         "--set", "houses.hvac_kw=1e20"],
        ["s5", *FLEET, "--set", "houses.hvac_kw=1e306"],
        ["s5", *FLEET, "--set", "houses.unresponsive_mean_kw=1e306"],
        ["s5", *FLEET, "--set", "weather.temp_max_c=1e160"],
        ["s5", *FLEET, "--set", "houses.ua_w_per_k_range=1e-300,1e-300"],
        ["s5", *FLEET, "--set", "houses.cop=1e306"],
        ["s1", "--days", "1000000000"],
    ]
    return [["version"], ["scenarios", "list"]] + [
        ["run", "--scenario", *args, "--out", str(tmp / f"run-{i}")]
        for i, args in enumerate(runs)] + [
        # an --out that names a file
        ["run", "--scenario", "s1", *TINY, "--out", str(taken)]]


DEMOS = [("market_round_walkthrough.py", []),
         ("run_all_scenarios.py", ["--days", "2"]),
         ("ev_day_in_the_life.py", [])]


def run_everything(tmp: Path) -> None:
    from petgrid.cli import main
    for argv in cli_runs(tmp):
        main(argv)
    for script, args in DEMOS:
        path = ROOT / "demos" / script
        sys.argv = [str(path), *args]
        runpy.run_path(str(path), run_name="__main__")


def executable_lines(path: Path) -> set[int]:
    """The lines the compiled module, and every code object in it, maps
    an instruction to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + os.sep
    reached: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return trace_lines(frame, event, arg)

    with (tempfile.TemporaryDirectory() as tmp,
          contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        argv = sys.argv
        sys.settrace(trace_calls)
        try:
            run_everything(Path(tmp))
        finally:
            sys.settrace(None)
            sys.argv = argv

    unreached = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in reached:
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{line}: "
                      f"{source[line - 1].strip()}")
    print(f"{unreached} of {total} executable lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
