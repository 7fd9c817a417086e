"""Print every line of `src/petgrid` that the program's own runs never reach.

    python3 tools/line_reach.py

A by-hand probe of which code small runs leave unexercised; it is not
part of the test suite. In one process, under `sys.settrace`, it runs
every row of the table in `tests/cli_cases.py`: small s1-s5 scenarios,
the console-script runs, the configs that must fail and the three demos.
Then it prints each executable line of each module that none of them
reached, as `path:line: source`, and a count. A line is executable when
the compiled module maps an instruction to it. A function's lines count
as reached when it is called or when its line runs, so a line listed
here ran in none of these runs. Outputs go to a temporary directory, and
the runs' console output is discarded. Uses only the standard library.

It reports lines, not branches: a condition inside a comprehension or a
conditional expression counts as reached whenever its line runs, so a
branch that no run takes is not listed when it shares its line with code
that runs.
"""

from __future__ import annotations

import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "petgrid"


def run_everything(tmp: Path) -> None:
    """Run every row of the table in `tests/cli_cases.py`, each in its
    own directory under `tmp`."""
    sys.path.insert(0, str(ROOT / "tests"))
    import cli_cases
    for name, cases in cli_cases.CASES.items():
        for i, case in enumerate(cases):
            directory = tmp / f"{name}-{i}"
            directory.mkdir()
            cli_cases.run_in_process(case, directory)


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

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(trace_calls)
        try:
            run_everything(Path(tmp))
        finally:
            sys.settrace(None)

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
