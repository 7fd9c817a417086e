#!/usr/bin/env python3
"""Follow the EV fleet through an average day of the PV+V2G scenario.

Runs scenario s5 and prints an hour-by-hour picture of when the fleet
charges, when it discharges back to the grid, and where the energy came
from (rooftop PV vs the grid connection), averaged over the analysis
days.
"""

import argparse

import numpy as np

from petgrid.runner import builtin_config, run_scenario
from petgrid.substation import EV_BASE, EV_SELL_BASE, GRID_TRADER, PV_BASE

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--seed", type=int, default=1)
args = parser.parse_args()

cfg = builtin_config("s5", seed=args.seed)
res = run_scenario(cfg)

_, rounds_per_day = cfg.schedule()
analysis_days = cfg.days - cfg.discard_days
dt_h = cfg.t_market_s / 3600.0

from_pv = np.zeros(24)
from_grid = np.zeros(24)
sold = np.zeros(24)
for tx in res.transactions:
    if tx.round_index < cfg.discard_days * rounds_per_day:
        continue
    hour = int((tx.round_index % rounds_per_day) * dt_h)
    kwh = tx.quantity / 1000.0 * dt_h / analysis_days
    if EV_BASE <= tx.buyer < EV_SELL_BASE:
        if tx.seller == GRID_TRADER:
            from_grid[hour] += kwh
        elif PV_BASE <= tx.seller < EV_BASE:
            from_pv[hour] += kwh
    elif tx.seller >= EV_SELL_BASE:
        sold[hour] += kwh

tod, cols = res.average_day
print(f"{'hour':>4}  {'bought from PV':>14}  {'bought from grid':>16}  "
      f"{'sold back':>9}   (fleet kWh per day)")
for h in range(24):
    bar = "#" * int(from_pv[h] + from_grid[h]) + "-" * int(sold[h])
    print(f"{h:>4}  {from_pv[h]:>14.1f}  {from_grid[h]:>16.1f}  "
          f"{sold[h]:>9.1f}   {bar}")

print(f"\ntotals: {from_pv.sum():.0f} kWh/day from PV, "
      f"{from_grid.sum():.0f} kWh/day from the grid, "
      f"{sold.sum():.0f} kWh/day discharged back")
print(f"fleet SoC stayed within [{res.soc_min:.2f}, {res.soc_max:.2f}]")
print("the pattern to look for: grid purchases in the cheap small hours,")
print("PV purchases through late morning, discharge into the evening peak.")
