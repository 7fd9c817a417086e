"""Run one petgrid scenario in this process and print what it measured.

    python3 perfbench/worker.py --workload s5-8d --seed 1 --out DIR
        [--setup-only | --trace SPANS.npz]

The last line of standard output is one JSON object. `setup_s` runs
from the start of this script, before `import petgrid`, to the first
federation step. `--setup-only` stops there; otherwise the scenario
runs through `run_scenario(cfg, out_dir=DIR)` and the object also holds
the wall time of that call, the peak RSS, the sha256 of each output file
and the values the output check needs. With `--trace` the run is traced
and the per-layer metrics are included.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402
import petgrid  # noqa: E402
from petgrid import kernel, run_scenario  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

OUTPUT_FILES = ("time_series.csv", "transactions.csv", "average_day.csv",
                "summary.json")


class SetupDone(Exception):
    """Stops a --setup-only run at its first federation step."""


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", type=Path, default=None,
                      help="trace the run and write its spans to this file")
    args = ap.parse_args()

    cfg = workloads.config(args.workload, args.seed)
    first_step = []

    def timed_run(run):
        def wrapper(fed, until_s):
            first_step.append(time.perf_counter())
            if args.setup_only:
                raise SetupDone
            return run(fed, until_s)
        return wrapper

    with tracer.patched(kernel.Federation, "run", timed_run):
        if args.setup_only:
            try:
                run_scenario(cfg)
            except SetupDone:
                pass
            print(json.dumps({"setup_s": first_step[0] - T_START}))
            return
        if args.trace is not None:
            with tracer.Tracer() as tr:
                t0 = time.perf_counter()
                result = run_scenario(cfg, out_dir=args.out)
                wall_s = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            result = run_scenario(cfg, out_dir=args.out)
            wall_s = time.perf_counter() - t0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    files = [args.out / name for name in OUTPUT_FILES]
    report = {
        "setup_s": first_step[0] - T_START,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "digests": {p.name: sha256(p) for p in files},
        "output_bytes": sum(p.stat().st_size for p in files),
        "max_imbalance_w": result.max_imbalance_w,
        "soc_min": result.soc_min,
        "soc_max": result.soc_max,
        "ev_range": result.violations["ev_range"],
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__,
                     "petgrid": petgrid.__version__},
    }
    if args.trace is not None:
        tr.save(args.trace)
        layers = tr.layer_metrics(cfg.n_houses, cfg.n_ev)
        layers["runner.output_bytes"] = report["output_bytes"]
        report["layers"] = layers
        report["untraced_targets"] = tr.missing
    print(json.dumps(report))


if __name__ == "__main__":
    main()
