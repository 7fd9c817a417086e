#!/usr/bin/env python3
"""Run the five builtin scenarios and compare their headline metrics.

The scenarios share one 30-house microgrid and differ only in which
distributed resources exist and whether the grid connection is capped:

  s1  uncapped grid, no PV, no EVs (comfort baseline)
  s2  100 kW cap only (supply deficit: comfort collapses)
  s3  100 kW cap + rooftop PV everywhere
  s4  100 kW cap + V2G EVs everywhere
  s5  100 kW cap + PV and V2G EVs everywhere

Expected picture: the cap alone (s2) sends the squared temperature
excess through the roof; PV (s3) recovers part of it and drags the
average price paid below the grid tariff; EVs (s4) restore comfort to
the uncapped baseline by shifting load into the night; PV+EVs (s5) do
both while soaking up most of the PV that houses cannot use.
"""

import argparse

from petgrid.runner import builtin_config, run_scenario

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--seed", type=int, default=1)
parser.add_argument("--days", type=int, default=8)
args = parser.parse_args()

header = (f"{'scenario':<9}{'T_excess2':>10}{'VWAP $/kWh':>12}"
          f"{'grid kW':>9}{'PV surplus kW':>15}{'violations':>12}")
print(header)
print("-" * len(header))
for name in ("s1", "s2", "s3", "s4", "s5"):
    cfg = builtin_config(name, seed=args.seed, days=args.days,
                         discard_days=args.days // 2)
    res = run_scenario(cfg)
    s = res.summary
    grid_kw = max(res.rounds["grid_supplied_w"]) / 1000.0
    print(f"{name:<9}{s.t_excess2_bar:>10.3f}{s.vwap_bar:>12.5f}"
          f"{grid_kw:>9.0f}{s.p_surplus_pv_bar_w / 1000.0:>15.2f}"
          f"{s.violation_count:>12d}")
