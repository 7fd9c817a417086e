"""Scenario configuration, federation wiring and output files."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import evfleet, household, metrics, substation, weather
from .kernel import Federation
from .weather import DAY_S


WEATHER_MODES = ("synthetic", "csv")
RANGE_FIELDS = ("houses_rc_hours_range", "houses_ua_w_per_k_range",
                "pv_panels_range", "ev_initial_soc_range")


@dataclass
class ScenarioConfig:
    name: str = "custom"
    n_houses: int = 30
    n_ev: int = 0
    n_pv: int = 0
    days: int = 8
    discard_days: int = 4
    seed: int = 1
    grid_capacity_kw: float = 100.0

    step_s: float = 60.0
    t_market_s: float = 300.0

    weather_mode: str = "synthetic"
    weather_csv_path: str | None = None
    weather_rated_irradiance_wm2: float = 1000.0
    weather_temp_min_c: float = 26.0
    weather_temp_max_c: float = 35.0

    houses_rc_hours_range: tuple = (1.5, 3.0)
    houses_ua_w_per_k_range: tuple = (550.0, 750.0)
    houses_hvac_kw: float = 4.0
    houses_cop: float = 3.0
    houses_deadband_c: float = 1.0
    houses_unresponsive_mean_kw: float = 1.15
    houses_unresponsive_noise_frac: float = 0.10

    pv_panels_range: tuple = (8, 20)
    pv_panel_w: float = 480.0

    ev_charger_kw: float = 11.0
    ev_efficiency: float = 0.95
    ev_worker_ratio: float = 0.6
    ev_drive_kwh_per_km: float = 0.16
    ev_speed_kmh: float = 30.0
    ev_initial_soc_range: tuple = (0.5, 0.9)
    ev_seed: int | None = None

    lmp_p_base: float = 0.0155
    lmp_alpha: float = 0.75
    lmp_diurnal_amplitude: float = 0.15
    lmp_reference_capacity_kw: float = 120.0
    lmp_demand_ema: float = 0.15

    prices_unresponsive: float = 1.00
    prices_hvac: float = 0.50
    prices_pv_sell: float = 0.0148
    prices_ev_floor: float = 0.001

    vwap_mode: str = "volume"

    def validate(self) -> None:
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite")
        for key in RANGE_FIELDS:
            value = getattr(self, key)
            if not (isinstance(value, tuple) and len(value) == 2
                    and all(isinstance(v, numbers.Real) and math.isfinite(v)
                            for v in value)
                    and value[0] <= value[1]):
                raise ValueError(f"{key} must be two finite numbers lo <= hi")
        rc, ua, pv, soc = (getattr(self, key) for key in RANGE_FIELDS)
        if rc[0] <= 0 or ua[0] <= 0:
            raise ValueError("houses rc_hours_range and ua_w_per_k_range "
                             "must be positive")
        if pv[0] < 1 or not all(float(v).is_integer() for v in pv):
            raise ValueError("pv_panels_range must be whole numbers >= 1")
        if soc[0] < 0 or soc[1] > 1:
            raise ValueError("ev_initial_soc_range must lie within [0, 1]")
        if self.n_houses < 1:
            raise ValueError("n_houses must be at least 1")
        if not (0 <= self.n_ev <= self.n_houses):
            raise ValueError("n_ev must be within [0, n_houses]")
        if not (0 <= self.n_pv <= self.n_houses):
            raise ValueError("n_pv must be within [0, n_houses]")
        if self.discard_days < 0:
            raise ValueError("discard_days must not be negative")
        if self.days <= self.discard_days:
            raise ValueError("days must exceed discard_days")
        if self.step_s <= 0:
            raise ValueError("step_s must be positive")
        if self.t_market_s % self.step_s != 0:
            raise ValueError("t_market_s must be a multiple of step_s")
        if self.t_market_s <= 0 or DAY_S % self.t_market_s != 0:
            raise ValueError("t_market_s must be positive and divide a day")
        if self.grid_capacity_kw <= 0 or self.lmp_reference_capacity_kw <= 0:
            raise ValueError("grid capacity and LMP reference capacity "
                             "must be positive")
        if self.weather_mode not in WEATHER_MODES:
            raise ValueError(f"unknown weather mode {self.weather_mode!r}")
        if self.weather_mode == "csv" and not self.weather_csv_path:
            raise ValueError("weather mode 'csv' needs weather.csv_path")
        if self.vwap_mode not in metrics.VWAP_MODES:
            raise ValueError(f"unknown vwap_mode {self.vwap_mode!r}")


# Uncapped grid is approximated by a sentinel capacity that never binds.
UNCAPPED_KW = 1000.0

BUILTIN_SCENARIOS = {
    "s1": dict(name="s1", n_ev=0, n_pv=0, grid_capacity_kw=UNCAPPED_KW),
    "s2": dict(name="s2", n_ev=0, n_pv=0, grid_capacity_kw=100.0),
    "s3": dict(name="s3", n_ev=0, n_pv=30, grid_capacity_kw=100.0),
    "s4": dict(name="s4", n_ev=30, n_pv=0, grid_capacity_kw=100.0),
    "s5": dict(name="s5", n_ev=30, n_pv=30, grid_capacity_kw=100.0),
}

SCENARIO_DESCRIPTIONS = {
    "s1": "baseline: grid only, uncapped supply",
    "s2": "grid capped at 100 kW, no DERs",
    "s3": "100 kW cap + rooftop PV on every house",
    "s4": "100 kW cap + V2G EV at every house",
    "s5": "100 kW cap + PV and V2G EV at every house",
}

# dotted config keys (file / --set) -> ScenarioConfig attributes: a field
# `<section>_<rest>` is `<section>.<rest>`, any other is `scenario.<field>`
_SECTIONS = ("grid", "weather", "houses", "pv", "ev", "lmp", "prices")
_KEY_MAP = {
    (f.name.replace("_", ".", 1) if f.name.split("_")[0] in _SECTIONS
     else f"scenario.{f.name}"): f.name
    for f in dataclasses.fields(ScenarioConfig)
} | {"houses.count": "n_houses", "ev.count": "n_ev", "kernel.step_s": "step_s",
     "market.t_market_s": "t_market_s", "metrics.vwap_mode": "vwap_mode"}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def builtin_config(name: str, **overrides) -> ScenarioConfig:
    if name not in BUILTIN_SCENARIOS:
        raise ValueError(f"unknown builtin scenario {name!r}")
    cfg = ScenarioConfig(**BUILTIN_SCENARIOS[name])
    for k, v in overrides.items():
        setattr(cfg, k, v)
    cfg.validate()
    return cfg


def _flatten(mapping: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in mapping.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _coerce(attr: str, value):
    """Convert a --set string to the field's declared type."""
    if isinstance(value, list):
        return tuple(value)
    if not isinstance(value, str):
        return value
    kind, _, optional = _FIELD_TYPES[attr].partition(" | ")
    if optional and value.lower() in ("none", "null"):
        return None
    if kind == "tuple":
        parts = [p for p in value.replace("(", "").replace(")", "").split(",") if p]
        return tuple(float(p) for p in parts)
    return {"int": int, "float": float, "str": str}[kind](value)


def apply_settings(cfg: ScenarioConfig, settings: dict) -> None:
    """Apply dotted-key settings (from a config file or --set flags)."""
    for key, value in settings.items():
        attr = _KEY_MAP.get(key, key if key in _FIELD_TYPES else None)
        if attr is None:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, attr, _coerce(attr, value))


def load_config_file(path) -> ScenarioConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ValueError("config file must contain a mapping")
    cfg = ScenarioConfig(name=Path(path).stem)
    apply_settings(cfg, _flatten(raw))
    cfg.validate()
    return cfg


@dataclass
class RunResult:
    config: ScenarioConfig
    summary: metrics.ScenarioSummary
    samples: list
    transactions: list
    average_day: tuple
    violations: dict = field(default_factory=dict)
    max_imbalance_w: float = 0.0
    soc_min: float = 1.0
    soc_max: float = 0.0
    fleet: list = field(default_factory=list)


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> RunResult:
    """Execute one scenario and optionally write the output files."""
    cfg.validate()
    root = np.random.SeedSequence(cfg.seed)
    houses_ss, pv_ss, ev_ss, kernel_ss = root.spawn(4)
    if cfg.ev_seed is not None:
        ev_ss = np.random.SeedSequence(cfg.ev_seed)

    if cfg.weather_mode == "csv":
        profile = weather.CsvWeather.from_csv(
            cfg.weather_csv_path, cfg.weather_rated_irradiance_wm2)
    else:
        profile = weather.SyntheticWeather(cfg.weather_temp_min_c,
                                           cfg.weather_temp_max_c)

    houses = household.build_houses(cfg, np.random.default_rng(houses_ss),
                                    profile,
                                    pv_rng=np.random.default_rng(pv_ss))
    fleet = evfleet.build_fleet(cfg, np.random.default_rng(ev_ss))
    prices = substation.PriceBook(cfg.prices_unresponsive, cfg.prices_hvac,
                                  cfg.prices_pv_sell, cfg.prices_ev_floor)

    fed = Federation(cfg.step_s, cfg.t_market_s, seed=cfg.seed)
    fed.register_federate("weather", weather.WeatherFederate(profile))
    house_fed = household.HouseholdFederate(houses, profile, cfg.step_s,
                                            cfg.t_market_s)
    fed.register_federate("households", house_fed)
    ev_fed = evfleet.EvFederate(fleet, cfg.step_s, cfg.t_market_s,
                                cfg.ev_efficiency, cfg.ev_efficiency)
    fed.register_federate("ev-fleet", ev_fed)
    sub = substation.SubstationFederate(cfg, cfg.n_houses, cfg.n_ev, prices)
    fed.register_federate("substation", sub)

    fed.run(cfg.days * DAY_S)

    window = (cfg.discard_days * DAY_S, cfg.days * DAY_S)
    violations = {
        "unserved_unresponsive": sub.unserved_unresponsive,
        "ev_range": ev_fed.range_violations,
        "ev_unfilled_must_charge": sub.ev_unfilled_must_charge,
        "power_imbalance": int(sub.max_imbalance_w > 1.0),
    }
    summary = metrics.summarize(sub.samples, sub.transactions, *window,
                                t_market_s=cfg.t_market_s,
                                violations=violations,
                                vwap_mode=cfg.vwap_mode)
    avg_day = metrics.average_day(sub.samples, cfg.t_market_s, *window)
    result = RunResult(cfg, summary, sub.samples, sub.transactions, avg_day,
                       violations, sub.max_imbalance_w,
                       ev_fed.soc_min_seen, ev_fed.soc_max_seen, fleet)

    if out_dir is not None:
        write_outputs(result, Path(out_dir))
    return result


TIME_SERIES_COLUMNS = [
    "t_s", "lmp", "round_vwap", "grid_supplied_w", "pv_potential_w",
    "pv_supplied_w", "ev_charge_w", "ev_discharge_w", "hvac_load_w",
    "unresponsive_load_w", "mean_t_air_c", "mean_setpoint_c",
    "mean_t_excess2",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_outputs(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "time_series.csv", "w") as fh:
        fh.write(",".join(TIME_SERIES_COLUMNS) + "\n")
        for s in result.samples:
            row = [s.t, s.lmp, s.round_vwap, s.grid_supplied_w,
                   s.pv_potential_w, s.pv_supplied_w, s.ev_charge_w,
                   s.ev_discharge_w, s.hvac_load_w, s.unresponsive_load_w,
                   s.mean_t_air_c, s.mean_setpoint_c, s.mean_t_excess2]
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    with open(out_dir / "transactions.csv", "w") as fh:
        fh.write("round,buyer,seller,quantity_w,price_usd_per_kwh\n")
        for tx in result.transactions:
            fh.write(f"{tx.round_index},{tx.buyer},{tx.seller},"
                     f"{tx.quantity},{_fmt(tx.price)}\n")

    tod, cols = result.average_day
    with open(out_dir / "average_day.csv", "w") as fh:
        fh.write("time_of_day_s," + ",".join(cols) + "\n")
        for i, t in enumerate(tod):
            fh.write(_fmt(float(t)) + ","
                     + ",".join(_fmt(float(cols[c][i])) for c in cols) + "\n")

    summary = result.summary
    payload = {
        "scenario": result.config.name,
        "seed": result.config.seed,
        "n_houses": result.config.n_houses,
        "n_ev": result.config.n_ev,
        "n_pv": result.config.n_pv,
        "grid_capacity_kw": result.config.grid_capacity_kw,
        "days": result.config.days,
        "discard_days": result.config.discard_days,
        "t_excess2_bar": summary.t_excess2_bar,
        "vwap_bar": summary.vwap_bar,
        "p_target_bar_w": summary.p_target_bar_w,
        "p_supplied_bar_w": summary.p_supplied_bar_w,
        "p_surplus_pv_bar_w": summary.p_surplus_pv_bar_w,
        "p_surplus_ev_bar_w": summary.p_surplus_ev_bar_w,
        "violation_count": summary.violation_count,
        "violations": summary.violations,
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def list_scenarios() -> list[str]:
    lines = []
    for name in sorted(BUILTIN_SCENARIOS):
        params = BUILTIN_SCENARIOS[name]
        cap = params["grid_capacity_kw"]
        cap_desc = "uncapped" if cap >= UNCAPPED_KW else f"{cap:.0f} kW cap"
        lines.append(
            f"{name}  n_ev={params['n_ev']:<3d} n_pv={params['n_pv']:<3d} "
            f"{cap_desc:<12s} {SCENARIO_DESCRIPTIONS[name]}"
        )
    return lines
