"""House thermal model, HVAC controller, unresponsive loads and rooftop PV.

Each house is a first-order RC zone integrated with an exact exponential
update, a cooling-only HVAC with hysteresis around a scheduled setpoint,
a diurnal unresponsive appliance profile, and an optional PV array whose
potential output scales with the irradiance fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import t_excess2
from .weather import DAY_S

HVAC_W_DEFAULT = 4000.0


@dataclass
class HouseThermalState:
    t_air: float            # °C
    t_setpoint: float       # °C
    hvac_on: bool
    r: float                # thermal resistance, °C/W
    c: float                # thermal capacitance, J/°C
    q_internal: float       # appliance/occupant heat gain, W
    q_cool: float           # heat removal rate while HVAC runs, W

    def __post_init__(self):
        if self.r <= 0 or self.c <= 0 or self.q_cool <= 0:
            raise ValueError("R, C and Q_cool must all be positive")


def step_thermal(state: HouseThermalState, temp_out: float,
                 dt: float) -> HouseThermalState:
    """Advance the zone temperature by dt seconds (inputs held constant).

    Exact solution of dT/dt = (temp_out - T)/(RC) + (Q_int - on*Q_cool)/C,
    so any subdivision of dt gives the same result. Returns a new state
    and never mutates `state`.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    q_net = state.q_internal - (state.q_cool if state.hvac_on else 0.0)
    t_inf = temp_out + state.r * q_net
    decay = math.exp(-dt / (state.r * state.c))
    t_new = t_inf + (state.t_air - t_inf) * decay
    return HouseThermalState(t_new, state.t_setpoint, state.hvac_on, state.r,
                             state.c, state.q_internal, state.q_cool)


def setpoint(t: float, offset_c: float = 0.0, jitter_s: float = 0.0) -> float:
    """Scheduled cooling setpoint at simulation time t (seconds).

    Base schedule: 22 °C overnight, linear ramp 07:00-09:00 up to 26 °C,
    drop to 23 °C at 18:30 and to 22 °C at 23:30. Per-house offset and
    time jitter diversify the fleet.
    """
    h = ((t + jitter_s) % DAY_S) / 3600.0
    if h < 7.0:
        base = 22.0
    elif h < 9.0:
        base = 22.0 + (26.0 - 22.0) * (h - 7.0) / 2.0
    elif h < 18.5:
        base = 26.0
    elif h < 23.5:
        base = 23.0
    else:
        base = 22.0
    return base + offset_c


def hvac_demand(t_air: float, t_setpoint: float, hvac_on: bool,
                deadband_c: float = 1.0,
                hvac_w: float = HVAC_W_DEFAULT) -> float:
    """Predicted HVAC power for the next round: the fixed rating or zero.

    Hysteresis: turn on above setpoint + deadband/2, stay on until the
    temperature falls below setpoint - deadband/2.
    """
    half = deadband_c / 2.0
    if hvac_on:
        needs = t_air > t_setpoint - half
    else:
        needs = t_air > t_setpoint + half
    return hvac_w if needs else 0.0


# Relative unresponsive-load shape, anchored so the trough is at 06:00
# and the evening peak at 20:00. Normalized to unit daily mean below.
_UNRESP_ANCHORS_H = [0.0, 6.0, 9.0, 12.0, 17.0, 20.0, 23.0, 24.0]
_UNRESP_ANCHORS_V = [1.10, 0.55, 1.00, 0.95, 1.25, 1.60, 1.20, 1.10]


def _unresp_shape(hour: float) -> float:
    h = hour % 24.0
    xs, vs = _UNRESP_ANCHORS_H, _UNRESP_ANCHORS_V
    for i in range(len(xs) - 1):
        if xs[i] <= h <= xs[i + 1]:
            w = (h - xs[i]) / (xs[i + 1] - xs[i])
            return vs[i] * (1 - w) + vs[i + 1] * w
    return vs[-1]


# Daily mean of the piecewise-linear shape (trapezoid over the anchors).
_UNRESP_SHAPE_MEAN = sum(
    (_UNRESP_ANCHORS_V[i] + _UNRESP_ANCHORS_V[i + 1]) / 2.0
    * (_UNRESP_ANCHORS_H[i + 1] - _UNRESP_ANCHORS_H[i])
    for i in range(len(_UNRESP_ANCHORS_H) - 1)
) / 24.0


def unresponsive_curve(t: float, mean_w: float = 1150.0) -> float:
    """Noise-free diurnal unresponsive load with the given daily mean."""
    hour = (t % DAY_S) / 3600.0
    return mean_w * _unresp_shape(hour) / _UNRESP_SHAPE_MEAN


class UnresponsiveProfile:
    """Per-house unresponsive load: diurnal curve plus bounded seeded noise.

    Noise is precomputed per market round so values are deterministic
    regardless of evaluation order.
    """

    def __init__(self, mean_w: float, rng: np.random.Generator | None = None,
                 noise_frac: float = 0.10, round_s: float = 300.0,
                 days: int = 8):
        self.mean_w = mean_w
        self.round_s = round_s
        n_rounds = int(days * DAY_S / round_s) + 2
        if rng is None or noise_frac == 0.0:
            self._noise = np.zeros(n_rounds)
        else:
            self._noise = rng.uniform(-noise_frac, noise_frac, size=n_rounds)

    def value_for_round(self, index: int) -> float:
        i = max(index, 0) % len(self._noise)
        mid = (i + 0.5) * self.round_s
        v = unresponsive_curve(mid, self.mean_w) * (1.0 + self._noise[i])
        return max(v, 0.0)


@dataclass(frozen=True)
class PvArray:
    n_panels: int
    panel_rating_w: float = 480.0

    def __post_init__(self):
        if not (1 <= self.n_panels):
            raise ValueError("n_panels must be positive")


def pv_potential(array: PvArray, irradiance_frac: float) -> float:
    return array.n_panels * array.panel_rating_w * irradiance_frac


class House:
    """One simulated house: thermal zone, HVAC, unresponsive load, PV."""

    def __init__(self, state: HouseThermalState,
                 unresponsive: UnresponsiveProfile, pv: PvArray | None,
                 setpoint_offset_c: float, setpoint_jitter_s: float,
                 deadband_c: float, hvac_w: float):
        self.state = state
        self.unresponsive = unresponsive
        self.pv = pv
        self.setpoint_offset_c = setpoint_offset_c
        self.setpoint_jitter_s = setpoint_jitter_s
        self.deadband_c = deadband_c
        self.hvac_w = hvac_w


def build_houses(cfg, rng: np.random.Generator, weather,
                 pv_rng: np.random.Generator | None = None) -> list[House]:
    """Draw per-house parameters from the config ranges.

    PV sizes come from their own stream so scenarios with and without
    PV share an identical thermal fleet.
    """
    if pv_rng is None:
        pv_rng = rng
    houses = []
    rc_lo, rc_hi = cfg.houses_rc_hours_range
    ua_lo, ua_hi = cfg.houses_ua_w_per_k_range
    pv_lo, pv_hi = cfg.pv_panels_range
    q_cool = cfg.houses_hvac_kw * 1000.0 * cfg.houses_cop
    t0 = weather.sample(0.0).temp_c
    for i in range(cfg.n_houses):
        rc_s = rng.uniform(rc_lo, rc_hi) * 3600.0
        ua = rng.uniform(ua_lo, ua_hi)
        r = 1.0 / ua
        c = rc_s * ua
        offset = rng.uniform(-1.0, 1.0)
        jitter = rng.uniform(-1800.0, 1800.0)
        profile = UnresponsiveProfile(
            cfg.houses_unresponsive_mean_kw * 1000.0,
            rng=rng, noise_frac=cfg.houses_unresponsive_noise_frac,
            round_s=cfg.t_market_s, days=cfg.days,
        )
        pv = None
        if i < cfg.n_pv:
            pv = PvArray(int(pv_rng.integers(pv_lo, pv_hi + 1)),
                         cfg.pv_panel_w)
        t_set0 = setpoint(0.0, offset, jitter)
        state = HouseThermalState(
            t_air=min(t0, t_set0), t_setpoint=t_set0, hvac_on=False,
            r=r, c=c, q_internal=profile.value_for_round(0),
            q_cool=q_cool,
        )
        houses.append(House(state, profile, pv, offset, jitter,
                            cfg.houses_deadband_c, cfg.houses_hvac_kw * 1000.0))
    return houses


class HouseholdFederate:
    """Steps every house and publishes per-round bid inputs.

    The fleet's demand forecasts are published on the last physics step
    of each market round so the substation sees them at the round
    barrier: one tuple per quantity, in house order.
    """

    def __init__(self, houses: list[House], weather, step_s: float,
                 t_market_s: float):
        self.houses = houses
        self.weather = weather
        self.step_s = step_s
        self.steps_per_round = int(round(t_market_s / step_s))
        self.t_market_s = t_market_s
        # bus defaults before the first weather step and the first dispatch
        self._temp0 = weather.sample(0.0).temp_c
        self._no_dispatch = (0.0,) * len(houses)
        # unresponsive loads, evaluated once per round when it is
        # published and held for that round's dispatch window
        self._window = -1
        self._loads = ()
        self._published = (-1, ())

    def _round_loads(self, index: int) -> tuple[float, ...]:
        return tuple(h.unresponsive.value_for_round(index)
                     for h in self.houses)

    def __call__(self, ctx) -> None:
        # The dispatch cleared for round r becomes visible one physics
        # step after the round barrier, so round r's window covers steps
        # 5r+1 .. 5r+5. Unresponsive loads are held constant per window
        # so the cleared quantity equals the power actually consumed.
        temp_out = ctx.read("weather/temp_c", self._temp0)
        hvac_w = ctx.read("dispatch/hvac_w", self._no_dispatch)
        step_s = self.step_s
        t_next = ctx.t + step_s
        k = int(round(ctx.t / step_s))
        window = max((k - 1) // self.steps_per_round, 0)
        if window != self._window:
            self._window = window
            published_round, loads = self._published
            self._loads = (loads if published_round == window
                           else self._round_loads(window))
        for h, granted, q in zip(self.houses, hvac_w, self._loads,
                                 strict=True):
            state = h.state
            state.hvac_on = granted > 0.0
            state.q_internal = q
            state = h.state = step_thermal(state, temp_out, step_s)
            state.t_setpoint = setpoint(t_next, h.setpoint_offset_c,
                                        h.setpoint_jitter_s)

        if (k + 1) % self.steps_per_round == 0:
            self._publish_round_inputs(ctx, (k + 1) // self.steps_per_round)

    def _publish_round_inputs(self, ctx, next_round: int) -> None:
        # irradiance is a forecast for the coming window, which the bus
        # (latest values only) cannot carry, so it is sampled directly
        window_start = next_round * self.t_market_s + self.step_s
        window_mid = window_start + self.t_market_s / 2.0
        frac = self.weather.sample(window_mid).irradiance_frac
        houses = self.houses
        ctx.publish("houses/hvac_demand_w", tuple(
            hvac_demand(h.state.t_air, h.state.t_setpoint, h.state.hvac_on,
                        h.deadband_c, h.hvac_w) for h in houses))
        loads = self._round_loads(next_round)
        self._published = (next_round, loads)
        ctx.publish("houses/unresponsive_w", loads)
        ctx.publish("houses/pv_potential_w", tuple(
            pv_potential(h.pv, frac) if h.pv is not None else 0.0
            for h in houses))
        sum_air = sum_set = sum_ex2 = 0.0
        for h in houses:
            sum_air += h.state.t_air
            sum_set += h.state.t_setpoint
            sum_ex2 += t_excess2(h.state.t_air, h.state.t_setpoint)
        n = len(houses)
        ctx.publish("houses/mean_t_air_c", sum_air / n)
        ctx.publish("houses/mean_t_set_c", sum_set / n)
        ctx.publish("houses/mean_t_excess2", sum_ex2 / n)
