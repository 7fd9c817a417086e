"""Scenario configuration, federation wiring and output files."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import struct
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path

import numpy as np

from . import evfleet, household, metrics, substation, weather
from .kernel import Federation, whole_steps
from .market import TransactionLog
from .weather import DAY_S


WEATHER_MODES = ("synthetic", "csv")
# field -> (lowest, highest, whether lowest is allowed): the values a number
# field, or each end of a range field, may take. Every number field has one.
# Negative prices, loads or panels would run but break the physics silently,
# noise above 1 drives loads below 0 W, and a grid capacity, charger or HVAC
# rating of 0.0005 kW or less rounds to a 0 W grid order, a 0 W charger,
# which never charges, or a 0 W HVAC packet, which never buys. A run's logs
# grow with `days`, which stops at ten years, far past the paper's 8-day
# runs. A fill is at most its buyer's packet, and the fill log holds its
# watts in int32. An HVAC packet is the rating and an EV buys at most its
# charger's, so 2e6 kW keeps each below 2**31 W. An appliance packet peaks
# at 1.52 times its mean (the diurnal curve's peak over its daily mean),
# doubled at full noise, so a mean of at most 7e5 kW keeps it below 3.04 *
# 7e8 W = 2.13e9 W. Sellers of at most 1e12 W and asks of at most about 2e12
# $/kWh keep the VWAP finite. House loads of at most about 2e9 W, a COP of
# at most 1e6, a UA of at least 1 W/K and the weather's temperature bounds
# keep every zone temperature, and the square of its excess, finite.
DOMAINS = {
    "n_houses": (1, substation.MAX_HOUSES, True),
    "days": (1, 3653, True),
    "grid_capacity_kw": (0.0005, 1e9, False),
    "t_market_s": (0, DAY_S, False),
    "pv_panels_range": (1, 1e6, True),
    "ev_efficiency": (0, 1, False),
    "ev_charger_kw": (0.0005, 2e6, False),
    "pv_panel_w": (0, 1e6, True),
    "houses_hvac_kw": (0.0005, 2e6, False),
    "houses_unresponsive_mean_kw": (0, 7e5, True),
    "houses_cop": (0, 1e6, False),
    "houses_ua_w_per_k_range": (1, math.inf, True),
    "weather_temp_min_c": (weather.TEMP_MIN_C, weather.TEMP_MAX_C, True),
    "weather_temp_max_c": (weather.TEMP_MIN_C, weather.TEMP_MAX_C, True),
} | dict.fromkeys(("lmp_p_base", "lmp_alpha", "prices_pv_sell"),
                  (0, 1e6, True)) | dict.fromkeys((
    "step_s", "weather_rated_irradiance_wm2", "houses_rc_hours_range",
    "ev_speed_kmh", "lmp_reference_capacity_kw",
), (0, math.inf, False)) | dict.fromkeys((
    "n_ev", "n_pv", "discard_days", "seed", "ev_seed", "houses_deadband_c",
    "ev_drive_kwh_per_km", "prices_unresponsive", "prices_hvac",
), (0, math.inf, True)) | dict.fromkeys((
    "houses_unresponsive_noise_frac", "ev_worker_ratio",
    "ev_initial_soc_range", "lmp_diurnal_amplitude", "lmp_demand_ema",
), (0, 1, True))
_MUST_BE = {"int": "an integer", "float": "a finite number",
            "tuple": "two finite numbers lo <= hi"}


def _in_domain(key: str, value, whole: bool) -> bool:
    """Whether `value` is a number (an integer if `whole`; a bool is
    neither) that is finite and within `key`'s DOMAINS entry."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if whole else numbers.Real):
        return False
    lo, hi, lo_allowed = DOMAINS[key]
    return ((lo < value or lo_allowed and value == lo) and value <= hi
            and (whole or math.isfinite(value)))


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

    def validate(self) -> None:
        # each field's kind from its annotation, its bounds from DOMAINS
        for key, (kind, optional) in _KINDS.items():
            value = getattr(self, key)
            if value is None and optional:
                continue
            if kind == "str":
                if not isinstance(value, str):
                    raise ValueError(f"{key} must be a string")
                continue
            ends = value if kind == "tuple" else (value,)
            if not (isinstance(ends, tuple)
                    and len(ends) == (2 if kind == "tuple" else 1)
                    and all(_in_domain(key, v, kind == "int") for v in ends)
                    and ends[0] <= ends[-1]):
                lo, hi, lo_allowed = DOMAINS[key]
                raise ValueError(
                    f"{key} must be {_MUST_BE[kind]} within "
                    f"{'[' if lo_allowed else '('}{lo:g}, {hi:g}"
                    f"{']' if hi < math.inf else ')'}")
        # the rules that relate fields, or that DOMAINS cannot say
        if self.n_ev > self.n_houses or self.n_pv > self.n_houses:
            raise ValueError("n_ev and n_pv must not exceed n_houses")
        if self.days <= self.discard_days:
            raise ValueError("days must exceed discard_days")
        per_round, per_day = self.schedule()
        if not (per_round and per_day):
            raise ValueError("t_market_s must be a multiple of step_s and "
                             "divide a day")
        if not whole_steps(self.horizon_s(), self.step_s):
            raise ValueError(f"a run of {self.days * per_day * per_round} "
                             "steps is too long: the kernel counts whole "
                             "steps only below 2**53")
        if self.weather_temp_min_c > self.weather_temp_max_c:
            raise ValueError("weather_temp_min_c must not exceed "
                             "weather_temp_max_c")
        if not all(float(v).is_integer() for v in self.pv_panels_range):
            raise ValueError("pv_panels_range must be whole numbers")
        if self.weather_mode not in WEATHER_MODES:
            raise ValueError(f"unknown weather mode {self.weather_mode!r}")
        if self.weather_mode == "csv" and not self.weather_csv_path:
            raise ValueError("weather mode 'csv' needs weather.csv_path")

    def schedule(self) -> tuple[int, int]:
        """(m, N): the whole steps a round and rounds a day, each 0 if
        none is exact. A run is days * N rounds of m steps, and round r
        is row r of the round log and time-of-day slot r % N."""
        return (whole_steps(self.t_market_s, self.step_s),
                whole_steps(DAY_S, self.t_market_s))

    def horizon_s(self) -> float:
        """The run's span, days * N rounds of m steps, in seconds."""
        per_round, per_day = self.schedule()
        return self.days * per_day * per_round * self.step_s


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
     "market.t_market_s": "t_market_s"}

# field -> (kind, whether it may be None), parsed from its annotation
_KINDS = {f.name: (f.type.partition(" | ")[0], f.type.endswith(" | None"))
          for f in dataclasses.fields(ScenarioConfig)}


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
    kind, optional = _KINDS[attr]
    if optional and value.lower() in ("none", "null"):
        return None
    if kind == "tuple":
        parts = [p for p in value.replace("(", "").replace(")", "").split(",") if p]
        return tuple(float(p) for p in parts)
    return {"int": int, "float": float, "str": str}[kind](value)


def apply_settings(cfg: ScenarioConfig, settings: dict) -> None:
    """Apply dotted-key settings (from a config file or --set flags)."""
    for key, value in settings.items():
        attr = _KEY_MAP.get(key, key if key in _KINDS else None)
        if attr is None:
            raise ValueError(f"unknown config key {key!r}")
        try:
            setattr(cfg, attr, _coerce(attr, value))
        except ValueError as exc:   # int("3.0") does not say which key
            raise ValueError(f"{key}: {exc}") from None


def load_config_file(path) -> ScenarioConfig:
    import yaml     # only config files need it; it slows `import petgrid`
    class Loader(yaml.SafeLoader):  # refuses a repeated key, at any depth
        def construct_mapping(self, node, deep=False):
            keys = [k.value for k, _ in node.value]
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise ValueError(f"config file {path} repeats key {key!r}")
            return super().construct_mapping(node, deep)
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader)
    except yaml.YAMLError as exc:   # its text spans several lines
        mark = getattr(exc, "problem_mark", None)
        raise ValueError(f"config file {path} is not valid YAML" + (
            f" at line {mark.line + 1}" if mark else "")) from None
    # only an empty document (None) means no settings
    if raw is not None and not isinstance(raw, dict):
        raise ValueError("config file must contain a mapping")
    cfg = ScenarioConfig(name=Path(path).stem)
    apply_settings(cfg, _flatten(raw or {}))
    return cfg


@dataclass
class RunResult:
    config: ScenarioConfig
    summary: metrics.ScenarioSummary
    rounds: dict
    transactions: TransactionLog
    average_day: tuple
    violations: dict
    max_imbalance_w: float
    soc_min: float
    soc_max: float


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> RunResult:
    """Execute one scenario and optionally write the output files."""
    cfg.validate()
    root = np.random.SeedSequence(cfg.seed)
    houses_ss, pv_ss, ev_ss = root.spawn(3)
    if cfg.ev_seed is not None:
        ev_ss = np.random.SeedSequence(cfg.ev_seed)

    if cfg.weather_mode == "csv":
        profile = weather.CsvWeather.from_csv(
            cfg.weather_csv_path, cfg.weather_rated_irradiance_wm2)
    else:
        profile = weather.SyntheticWeather(cfg.weather_temp_min_c,
                                           cfg.weather_temp_max_c)

    houses = household.build_houses(cfg, np.random.default_rng(houses_ss),
                                    profile, np.random.default_rng(pv_ss))
    ev_fed = evfleet.build_fleet(cfg, np.random.default_rng(ev_ss))

    fed = Federation(cfg.step_s, cfg.t_market_s)
    fed.register_federate("weather", weather.WeatherFederate(profile))
    fed.register_federate("households", houses)
    fed.register_federate("ev-fleet", ev_fed)
    sub = substation.SubstationFederate(cfg)
    fed.register_federate("substation", sub)

    if out_dir is not None:     # an unusable directory fails before a step
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    fed.run(cfg.horizon_s())
    _, per_day = cfg.schedule()

    window = (cfg.discard_days * per_day, cfg.days * per_day)     # rows
    max_imbalance_w = max(sub.rounds["imbalance_w"])
    violations = {
        "unserved_unresponsive": sum(sub.rounds["unserved_unresponsive"]),
        "ev_range": ev_fed.range_violations,
        "ev_unfilled_must_charge": sum(sub.rounds["ev_unfilled_must_charge"]),
        "power_imbalance": int(max_imbalance_w > 1.0),
    }
    summary = metrics.summarize(sub.rounds, sub.transactions, *window,
                                violations=violations)
    avg_day = metrics.average_day(sub.rounds, cfg.t_market_s, per_day, *window)
    result = RunResult(cfg, summary, sub.rounds, sub.transactions, avg_day,
                       violations, max_imbalance_w,
                       ev_fed.soc_min_seen, ev_fed.soc_max_seen)

    if out_dir is not None:
        write_outputs(result, Path(out_dir))
    return result


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _price_line_end(bits: int) -> str:
    """A row's last column: the price whose float64 bits read as the
    int64 `bits`, and the line end."""
    return f"{struct.unpack('d', struct.pack('q', bits))[0]:.6f}\n"


def write_outputs(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "time_series.csv", "w") as fh:
        fh.write(",".join(metrics.TIME_SERIES_COLUMNS) + "\n")
        columns = [result.rounds[c] for c in metrics.TIME_SERIES_COLUMNS]
        for row in zip(*columns, strict=True):
            fh.write(",".join(map(_fmt, row)) + "\n")

    # each distinct trader id and price is formatted once, and each round
    # once, its text repeated over its fills; a price is looked up by its
    # bits, as -0.0 == 0.0 but the two print differently
    txs = result.transactions
    ids, prices = functools.cache(str), functools.cache(_price_line_end)
    with (open(out_dir / "transactions.csv", "w") as fh,
          memoryview(txs.price).cast("B").cast("q") as price_bits):
        fh.write("round,buyer,seller,quantity_w,price_usd_per_kwh\n")
        rows = map(",".join, zip(
            txs.per_fill(map(str, count())), map(ids, txs.buyer),
            map(ids, txs.seller), map(str, txs.quantity),
            map(prices, price_bits)))
        # a write per 1024 rows, not per row, and never the whole file
        while chunk := "".join(islice(rows, 1024)):
            fh.write(chunk)

    tod, cols = result.average_day
    with open(out_dir / "average_day.csv", "w") as fh:
        fh.write("time_of_day_s," + ",".join(cols) + "\n")
        for row in zip(map(float, tod), *(cols[c].tolist() for c in cols),
                       strict=True):
            fh.write(",".join(map(_fmt, row)) + "\n")

    cfg = result.config
    payload = {
        "scenario": cfg.name,
        "seed": cfg.seed,
        "n_houses": cfg.n_houses,
        "n_ev": cfg.n_ev,
        "n_pv": cfg.n_pv,
        "grid_capacity_kw": cfg.grid_capacity_kw,
        "days": cfg.days,
        "discard_days": cfg.discard_days,
    } | dataclasses.asdict(result.summary)
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
