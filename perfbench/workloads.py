"""The benchmark's workloads, as overrides of petgrid's builtin scenarios.

README.md beside this file gives the reason for each one.
"""

from __future__ import annotations

WORKLOADS = {
    # 30 houses on an uncapped grid, no EVs or PV: households and the
    # kernel dominate, and the EV path never runs.
    "s1-8d": ("s1", {}),
    # The paper's headline scenario: 30 houses, 30 V2G EVs, 30 PV, 100 kW.
    "s5-8d": ("s5", {}),
    # s5 scaled x4 over 2 days: the same house and EV steps as s5-8d,
    # but each round's order book is four times larger.
    "s5-x4-2d": ("s5", dict(n_houses=120, n_ev=120, n_pv=120, days=2,
                            discard_days=1, grid_capacity_kw=400.0,
                            lmp_reference_capacity_kw=480.0)),
}


def config(workload: str, seed: int):
    """The ScenarioConfig of `workload` with the given scenario seed."""
    # imported here so that run.py can list the workloads without petgrid
    from petgrid import builtin_config

    scenario, overrides = WORKLOADS[workload]
    return builtin_config(scenario, seed=seed, **overrides)
