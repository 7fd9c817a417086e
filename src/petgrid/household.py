"""House thermal model, HVAC controller, unresponsive loads and rooftop PV.

Each house is a first-order RC zone integrated with an exact exponential
update, a cooling-only HVAC with hysteresis around a scheduled setpoint,
a diurnal unresponsive appliance profile, and an optional PV array whose
potential output scales with the irradiance fraction. A house's only
state is its air temperature; the rest is fixed at build or read from
the bus in the step that uses it.
"""

from __future__ import annotations

import math

import numpy as np

from .metrics import t_excess2
from .weather import DAY_S, interp


def thermal_decay(r: float, c: float, dt: float) -> float:
    """The `decay` that `step_thermal` takes for a step of dt seconds."""
    return math.exp(-dt / (r * c))


def step_thermal(t_air: float, temp_out: float, q_net: float, r: float,
                 decay: float) -> float:
    """Zone temperature after a step of dt seconds with the inputs held
    constant, where `decay` is `thermal_decay(r, c, dt)`.

    Exact solution of dT/dt = (temp_out - T)/(RC) + q_net/C, where q_net
    is the internal heat gain less the HVAC's heat removal while it
    runs, so any subdivision of dt gives the same result.
    """
    t_inf = temp_out + r * q_net
    return t_inf + (t_air - t_inf) * decay


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
                deadband_c: float, hvac_w: float) -> float:
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

# Daily mean of the piecewise-linear shape (trapezoid over the anchors).
_UNRESP_SHAPE_MEAN = sum(
    (_UNRESP_ANCHORS_V[i] + _UNRESP_ANCHORS_V[i + 1]) / 2.0
    * (_UNRESP_ANCHORS_H[i + 1] - _UNRESP_ANCHORS_H[i])
    for i in range(len(_UNRESP_ANCHORS_H) - 1)
) / 24.0


def unresponsive_curve(t: float, mean_w: float) -> float:
    """Noise-free diurnal unresponsive load with the given daily mean."""
    shape = interp(_UNRESP_ANCHORS_H, _UNRESP_ANCHORS_V, (t % DAY_S) / 3600.0)
    return mean_w * shape / _UNRESP_SHAPE_MEAN


def build_houses(cfg, rng: np.random.Generator, weather,
                 pv_rng: np.random.Generator) -> HouseholdFederate:
    """Draw per-house parameters from the config ranges, and the panel
    counts of the `n_pv` arrays, which sit on the first `n_pv` houses.

    Each house's appliance noise is the next `days * N + 2` uniform
    draws of `rng`, one per market round, N a day. The house keeps the
    stream state its draws start at, and `rng` skips them, so the houses
    hold no noise until a round reads it and the next house draws from
    where it would have after them. PV sizes come from their own stream
    so scenarios with and without PV share an identical thermal fleet.
    """
    pv_lo, pv_hi = cfg.pv_panels_range
    _, per_day = cfg.schedule()
    n_rounds = cfg.days * per_day + 2
    t0 = weather.sample(0.0).temp_c
    noise_starts = []
    rows = []       # one per house, in the federate's column order
    for i in range(cfg.n_houses):
        rc_s = rng.uniform(*cfg.houses_rc_hours_range) * 3600.0
        ua = rng.uniform(*cfg.houses_ua_w_per_k_range)
        offset = rng.uniform(-1.0, 1.0)
        jitter = rng.uniform(-1800.0, 1800.0)
        if cfg.houses_unresponsive_noise_frac != 0.0:
            # each uniform draw takes one 64-bit output of the stream
            noise_starts.append(rng.bit_generator.state)
            rng.bit_generator.advance(n_rounds)
        rows.append((min(t0, setpoint(0.0, offset, jitter)), 1.0 / ua,
                     rc_s * ua, offset, jitter))
    pv_panels = [int(pv_rng.integers(pv_lo, pv_hi + 1))
                 for _ in range(cfg.n_pv)]
    return HouseholdFederate(*map(list, zip(*rows)), pv_panels, noise_starts,
                             weather, cfg)


class HouseholdFederate:
    """The houses, as per-house columns in house order. Steps every house
    and publishes per-round bid inputs.

    The fleet's demand forecasts are published on the last physics step
    of each market round so the substation sees them at the round
    barrier: one tuple per quantity, in house order.
    """

    def __init__(self, t_air, r, c, setpoint_offset_c, setpoint_jitter_s,
                 pv_panels, noise_starts, weather, cfg):
        # fixed at build but `t_air`, which is replaced each step
        self.t_air = t_air                  # °C
        self.r, self.c = r, c               # °C/W and J/°C
        self.setpoint_offset_c = setpoint_offset_c
        self.setpoint_jitter_s = setpoint_jitter_s
        self.pv_panels = pv_panels          # arrays of the first houses
        # the PCG64 state (as `default_rng` gives) that each house's load
        # noise starts at, or none without noise; `day_noise` draws them
        self.noise_starts = noise_starts
        self.weather, self.cfg = weather, cfg
        # heat removal rate while HVAC runs, W
        self.q_cool = cfg.houses_hvac_kw * 1000.0 * cfg.houses_cop
        # bus defaults before the first weather step, the first dispatch
        # and the first cleared round
        self._temp0 = weather.sample(0.0).temp_c
        self._no_dispatch = (0.0,) * len(t_air)
        _, self._rounds_per_day = cfg.schedule()
        self._noise_day = self._day_noise = None    # the day last drawn
        self._loads0 = self.unresponsive_loads(0)
        self._decay = [thermal_decay(r_i, c_i, cfg.step_s)
                       for r_i, c_i in zip(r, c)]
        # each house's q_net and the dispatch and loads it is built from
        self._q_net = self._hvac_w = self._loads = None

    def day_noise(self, day: int) -> np.ndarray:
        """Every house's load noise over the market rounds of `day`, as
        a houses x rounds array: round k of the run takes the k-th draw
        of each house's stream, so any day gives the values one draw of
        the whole run would."""
        n = self._rounds_per_day
        noise = np.zeros((len(self.t_air), n))
        if self.noise_starts:
            f = self.cfg.houses_unresponsive_noise_frac
            rng = np.random.Generator(np.random.PCG64(0))
            for i, start in enumerate(self.noise_starts):
                rng.bit_generator.state = start
                rng.bit_generator.advance(day * n)
                noise[i] = rng.uniform(-f, f, size=n)
        return noise

    def unresponsive_loads(self, index: int) -> tuple[float, ...]:
        """Every house's unresponsive load for market round `index`.

        The diurnal curve at the round's midpoint is scaled by one plus
        each house's noise for that round. The noise of the day that
        holds the round is drawn when a round of it is first read and
        kept until a round of another day is, so values are
        deterministic regardless of evaluation order.
        """
        cfg = self.cfg
        day, k = divmod(index, self._rounds_per_day)
        if day != self._noise_day:
            self._noise_day, self._day_noise = day, self.day_noise(day)
        base = unresponsive_curve((index + 0.5) * cfg.t_market_s,
                                  cfg.houses_unresponsive_mean_kw * 1000.0)
        return tuple(base * (1.0 + x) for x in self._day_noise[:, k].tolist())

    def __call__(self, ctx) -> None:
        # Unresponsive loads are held at the values their round cleared
        # against; the round traded each rounded to whole watts, so the
        # heat gain differs from the cleared quantity by up to 0.5 W.
        # HVAC runs while its latest dispatch is positive. Bus values are
        # immutable, so q_net is rebuilt only when either is a new tuple.
        temp_out = ctx.read("weather/temp_c", self._temp0)
        hvac_w = ctx.read("dispatch/hvac_w", self._no_dispatch)
        loads = ctx.read_cleared("houses/unresponsive_w", self._loads0)
        cfg = self.cfg
        if hvac_w is not self._hvac_w or loads is not self._loads:
            q_cool = self.q_cool
            self._hvac_w, self._loads = hvac_w, loads
            self._q_net = [q - (q_cool if granted > 0.0 else 0.0) for
                           granted, q in zip(hvac_w, loads, strict=True)]
        self.t_air = [step_thermal(t_air, temp_out, q_net, r, decay)
                      for t_air, q_net, r, decay in zip(
                          self.t_air, self._q_net, self.r, self._decay)]
        step_s = cfg.step_s
        next_round = ctx.next_round
        if next_round is None:
            return
        # irradiance is a forecast for the coming window, which the bus
        # (latest values only) cannot carry, so it is sampled directly
        window_start = next_round * cfg.t_market_s + step_s
        window_mid = window_start + cfg.t_market_s / 2.0
        frac = self.weather.sample(window_mid).irradiance_frac
        # one pass over the houses: the setpoint each will hold through
        # the next step, its HVAC demand and the fleet's sums
        t_next = ctx.t + step_s
        deadband, rating = cfg.houses_deadband_c, cfg.houses_hvac_kw * 1000.0
        demand = []
        sum_air = sum_set = sum_ex2 = 0.0
        for t_air, offset, jitter, granted in zip(
                self.t_air, self.setpoint_offset_c, self.setpoint_jitter_s,
                hvac_w):
            t_sp = setpoint(t_next, offset, jitter)
            demand.append(hvac_demand(t_air, t_sp, granted > 0.0, deadband,
                                      rating))
            sum_air += t_air
            sum_set += t_sp
            sum_ex2 += t_excess2(t_air, t_sp)
        ctx.publish("houses/hvac_demand_w", tuple(demand))
        ctx.publish("houses/unresponsive_w",
                    self.unresponsive_loads(next_round))
        panel_w = cfg.pv_panel_w
        ctx.publish("houses/pv_potential_w", tuple(
            n * panel_w * frac for n in self.pv_panels))
        n = len(demand)
        ctx.publish("houses/mean_t_air_c", sum_air / n)
        ctx.publish("houses/mean_t_set_c", sum_set / n)
        ctx.publish("houses/mean_t_excess2", sum_ex2 / n)
