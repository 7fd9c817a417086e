"""Command line interface.

Exit codes: 0 clean run, 2 completed with violations, 1 usage or
runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, runner


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # one `error:` line and exit 1, not 2
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="petgrid",
        description="Packetized energy trading microgrid simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario")
    run_p.add_argument("--scenario", required=True,
                       help="builtin name (s1..s5) or path to a config file")
    run_p.add_argument("--days", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--set", dest="settings", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    scen_p = sub.add_parser("scenarios", help="scenario utilities")
    scen_sub = scen_p.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser("list", help="list builtin scenarios")

    sub.add_parser("version", help="print version")
    return parser


def _cmd_run(args) -> int:
    if args.scenario in runner.BUILTIN_SCENARIOS:
        cfg = runner.builtin_config(args.scenario)
    elif Path(args.scenario).exists():
        cfg = runner.load_config_file(args.scenario)
    else:
        raise ValueError(f"unknown scenario {args.scenario!r}")
    if args.days is not None:
        cfg.days = args.days
    if args.seed is not None:
        cfg.seed = args.seed
    settings = {}
    for item in args.settings:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        settings[key] = value
    # run_scenario validates the final config before its first step
    runner.apply_settings(cfg, settings)

    result = runner.run_scenario(cfg, out_dir=args.out)
    s = result.summary
    print(f"scenario {cfg.name} seed {cfg.seed}: "
          f"T_excess2_bar={s.t_excess2_bar:.4f} "
          f"vwap_bar={s.vwap_bar if s.vwap_bar is None else round(s.vwap_bar, 5)} "
          f"P_target_bar={s.p_target_bar_w / 1000:.1f}kW "
          f"violations={s.violation_count}")
    print(f"outputs written to {args.out}/")
    return 2 if s.violation_count > 0 else 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
    # MemoryError: a valid config too large to build, e.g. a huge `days`
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    if args.command == "version":
        print(__version__)
        return 0
    for line in runner.list_scenarios():    # argparse leaves "scenarios"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
