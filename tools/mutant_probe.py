"""Sample AST mutants of one module and report those no test kills.

    python3 tools/mutant_probe.py src/petgrid/market.py \
        tests/test_market.py tests/test_memory.py

A by-hand probe of how tightly the tests pin a module; it is not part of
the test suite. It copies the repository's `src/`, `tests/`, `demos/`
and `perfbench/` into a temporary directory and first runs
`python -m pytest -x -q` on the given test paths against the unmutated
copy: it stops with an error unless they pass. Then for each sampled
mutant it writes the mutated module there and runs the same tests. A
mutant survives when that run passes and is killed when a test fails or
cannot be collected (pytest exit 1 or 2) or the run outlasts TIMEOUT_S
seconds, as a mutant that loops forever does; any other exit (internal
error, usage error, no tests collected) stops the probe, since it says
nothing of the mutant. Each pytest run's address space is capped at
MEMORY_LIMIT_B bytes, so a mutant that sizes an array from a swapped
operator raises `MemoryError`, fails its test and is killed, instead of
exhausting the machine's memory. Test paths must lie in the copied
directories. The checkout itself is never written.

Mutation sites, in source order:
- a comparison made strict or non-strict (`<` and `<=`, `>` and `>=`),
  or negated (`==` and `!=`, `is` and `is not`, `in` and `not in`);
- `+` and `-` swapped, and `*` and `/` swapped, in binary and augmented
  assignments;
- a numeric constant plus 1 (booleans excluded).

COUNT sites are drawn with `random.Random(SEED).sample`. Each
mutant is written with `ast.unparse`; the line printed for it is the
source's, while a failing test's traceback numbers the unparsed text.
Uses only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml")
COUNT = 30
SEED = 7
TIMEOUT_S = 600.0
MEMORY_LIMIT_B = 4_000_000 * 1024      # `ulimit -v 4000000`
# pytest exit codes: 1 a test failed, 2 collection failed or interrupted
KILLED = (1, 2)
FLIP_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
                ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
                ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
                ast.NotIn: ast.In}
SWAP_BINOP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
              ast.Div: ast.Mult}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
          ast.In: "in", ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-",
          ast.Mult: "*", ast.Div: "/"}


def sites(tree: ast.AST) -> list[tuple[int, str, int]]:
    """Every mutation site as (node number, kind, operand index), where
    the node number counts `ast.walk` order."""
    found = []
    for n, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            found += [(n, "compare", i) for i, op in enumerate(node.ops)
                      if type(op) in FLIP_COMPARE]
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and type(node.op) in SWAP_BINOP):
            found.append((n, "binop", 0))
        elif (isinstance(node, ast.Constant)
              and type(node.value) in (int, float)):
            found.append((n, "constant", 0))
    return found


def mutate(tree: ast.AST, site: tuple[int, str, int]) -> tuple[ast.AST, str]:
    """A mutated copy of `tree` and a one-line description."""
    tree = copy.deepcopy(tree)
    n, kind, i = site
    node = next(node for k, node in enumerate(ast.walk(tree)) if k == n)
    if kind == "compare":
        old = type(node.ops[i])
        node.ops[i] = FLIP_COMPARE[old]()
        change = f"{SYMBOL[old]} -> {SYMBOL[FLIP_COMPARE[old]]}"
    elif kind == "binop":
        old = type(node.op)
        node.op = SWAP_BINOP[old]()
        change = f"{SYMBOL[old]} -> {SYMBOL[SWAP_BINOP[old]]}"
    else:
        change = f"{node.value!r} -> {node.value + 1!r}"
        node.value += 1
    return ast.fix_missing_locations(tree), f"line {node.lineno}: {change}"


def _bound_memory() -> None:
    """Cap this (child) process's address space at MEMORY_LIMIT_B, or
    keep its limit if that is lower."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limits = [x for x in (soft, hard) if x != resource.RLIM_INFINITY]
    resource.setrlimit(resource.RLIMIT_AS,
                       (min(limits + [MEMORY_LIMIT_B]), hard))


def run_tests(work: Path, tests: list[str]) -> int | None:
    """pytest's exit code for `tests` on the copy in `work`, or None when
    the run timed out."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S, preexec_fn=_bound_memory).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("module", type=Path, help="module to mutate, e.g. "
                    "src/petgrid/market.py")
    ap.add_argument("tests", nargs="+", help="pytest paths or node ids")
    args = ap.parse_args()

    module = args.module.resolve().relative_to(ROOT)
    for test in args.tests:
        path = (ROOT / test.split("::")[0]).resolve()
        if (not path.exists() or not path.is_relative_to(ROOT)
                or path.relative_to(ROOT).parts[0] not in COPIED):
            sys.exit(f"error: {test} is not a path in {', '.join(COPIED)}")
    source = (ROOT / module).read_text()
    tree = ast.parse(source)
    every = sites(tree)
    chosen = random.Random(SEED).sample(every, min(COUNT, len(every)))
    print(f"{module}: {len(every)} sites, {len(chosen)} sampled")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutant-probe-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.
                                ignore_patterns("__pycache__", ".hypothesis"))
            elif src.exists():
                shutil.copy2(src, work / name)
        code = run_tests(work, args.tests)
        if code != 0:
            why = "timed out" if code is None else f"pytest exit {code}"
            sys.exit(f"error: the tests do not pass unmutated ({why}); no "
                     f"mutant can be judged")
        for site in chosen:
            mutant, what = mutate(tree, site)
            (work / module).write_text(ast.unparse(mutant) + "\n")
            code = run_tests(work, args.tests)
            if code not in (0, None, *KILLED):
                sys.exit(f"error: pytest exit {code} on {what}")
            killed = code != 0
            print(f"{'killed  ' if killed else 'SURVIVED'} {what}",
                  flush=True)
            if not killed:
                survivors.append(what)
    print(f"{len(survivors)} of {len(chosen)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
