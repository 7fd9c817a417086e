"""House thermal model, HVAC hysteresis, unresponsive loads and PV."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from petgrid.household import (HouseholdFederate, HouseThermalState, PvArray,
                               UnresponsiveProfile, build_houses, hvac_demand,
                               pv_potential, setpoint, step_thermal,
                               unresponsive_curve)
from petgrid.kernel import Federation
from petgrid.runner import ScenarioConfig, builtin_config, run_scenario
from petgrid.weather import DAY_S, SyntheticWeather

H = 3600.0


def make_state(**kw):
    defaults = dict(t_air=25.0, t_setpoint=24.0, hvac_on=False,
                    r=1.0 / 650.0, c=2.0 * H * 650.0, q_internal=0.0,
                    q_cool=12000.0)
    defaults.update(kw)
    return HouseThermalState(**defaults)


def test_equilibrium_temperature_unchanged():
    state = make_state(t_air=30.0, q_internal=0.0)
    out = step_thermal(state, temp_out=30.0, dt=600.0)
    assert out.t_air == pytest.approx(30.0, abs=1e-12)


def test_exponential_relaxation_worked_example():
    # Closed-form oracle: RC = 2 h, start 25 degC, outdoor 35 degC, no
    # gains, 1 h horizon: 35 - 10*exp(-0.5) = 28.9347 degC.
    state = make_state(t_air=25.0, r=1.0 / 500.0, c=2 * H * 500.0)
    out = step_thermal(state, temp_out=35.0, dt=H)
    assert out.t_air == pytest.approx(35.0 - 10.0 * math.exp(-0.5), abs=1e-3)


def test_cooling_decreases_temperature_at_equal_outdoor():
    state = make_state(t_air=30.0, hvac_on=True, q_cool=12000.0)
    out = step_thermal(state, temp_out=30.0, dt=60.0)
    assert out.t_air < 30.0


def test_subdivided_steps_match_single_step():
    state = make_state(t_air=25.0, q_internal=800.0, hvac_on=True)
    single = step_thermal(state, temp_out=35.0, dt=H)
    stepped = state
    for _ in range(60):
        stepped = step_thermal(stepped, temp_out=35.0, dt=60.0)
    assert stepped.t_air == pytest.approx(single.t_air, abs=1e-9)


@pytest.mark.parametrize("hvac_on", [False, True])
def test_step_thermal_returns_a_new_state_and_leaves_its_input(hvac_on):
    state = make_state(t_air=27.0, q_internal=900.0, hvac_on=hvac_on)
    before = dataclasses.asdict(state)
    out = step_thermal(state, temp_out=33.0, dt=60.0)
    assert out is not state
    assert dataclasses.asdict(state) == before
    assert out.t_air != state.t_air
    assert dataclasses.asdict(out) == dict(before, t_air=out.t_air)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_state(r=0.0)
    with pytest.raises(ValueError):
        step_thermal(make_state(), temp_out=30.0, dt=0.0)


def test_setpoint_schedule_oracle():
    # DERIVED: evaluating the documented schedule directly.
    assert setpoint(13 * H) == 26.0
    assert setpoint(19 * H) == 23.0
    assert setpoint(3 * H) == 22.0
    assert setpoint(8 * H) == 24.0       # midpoint of the 07:00-09:00 ramp
    assert setpoint(23.75 * H) == 22.0


def test_setpoint_jitter_and_offset_bounds():
    values = [setpoint(t, offset_c, jitter_s)
              for t in np.arange(0, DAY_S, 300.0)
              for offset_c in (-1.0, 0.0, 1.0)
              for jitter_s in (-1800.0, 0.0, 1800.0)]
    assert min(values) >= 21.0
    assert max(values) <= 27.0


def test_hvac_demand_above_setpoint():
    assert hvac_demand(27.0, 24.0, hvac_on=False) == 4000.0


def test_hvac_demand_below_setpoint():
    assert hvac_demand(23.0, 24.0, hvac_on=False) == 0.0


def test_hvac_hysteresis_keeps_running_until_lower_band():
    assert hvac_demand(23.8, 24.0, hvac_on=True, deadband_c=1.0) == 4000.0
    assert hvac_demand(23.4, 24.0, hvac_on=True, deadband_c=1.0) == 0.0
    # off unit does not start inside the deadband
    assert hvac_demand(24.4, 24.0, hvac_on=False, deadband_c=1.0) == 0.0


def test_unresponsive_curve_mean_and_shape():
    ts = np.arange(0, DAY_S, 60.0)
    values = np.array([unresponsive_curve(t, mean_w=1150.0) for t in ts])
    assert values.mean() == pytest.approx(1150.0, rel=0.01)
    assert unresponsive_curve(6 * H) < unresponsive_curve(20 * H)
    assert np.all(values >= 0.0)
    assert unresponsive_curve(5 * H) == pytest.approx(
        unresponsive_curve(5 * H + DAY_S))


def test_trough_is_daily_minimum_peak_at_evening():
    hours = np.arange(0, 24, 0.25)
    vals = [unresponsive_curve(h * H) for h in hours]
    assert hours[int(np.argmin(vals))] == 6.0
    assert hours[int(np.argmax(vals))] == 20.0


def test_unresponsive_profile_noise_bounded_and_deterministic():
    p1 = UnresponsiveProfile(1150.0, np.random.default_rng(3), 0.10)
    p2 = UnresponsiveProfile(1150.0, np.random.default_rng(3), 0.10)
    base = UnresponsiveProfile(1150.0, None, 0.0)
    for i in range(0, 2000, 37):
        v1, v2, v0 = (p.value_for_round(i) for p in (p1, p2, base))
        assert v1 == v2
        assert abs(v1 - v0) <= 0.10 * v0 + 1e-9
        assert v1 >= 0.0


def test_fleet_daily_mean_close_to_target():
    rng = np.random.default_rng(11)
    profiles = [UnresponsiveProfile(1150.0, rng, 0.10) for _ in range(30)]
    rounds = int(DAY_S / 300.0)
    fleet = np.mean([[p.value_for_round(i) for i in range(rounds)]
                     for p in profiles]) * 30
    assert fleet == pytest.approx(34500.0, rel=0.10)


def test_pv_potential_examples():
    assert pv_potential(PvArray(10), 1.0) == 4800.0
    assert pv_potential(PvArray(17), 0.0) == 0.0
    assert pv_potential(PvArray(8), 0.5) == 1920.0
    assert pv_potential(PvArray(20), 0.5) == 4800.0


def test_pv_array_validation():
    with pytest.raises(ValueError):
        PvArray(0)


def _cfg(**kw):
    cfg = ScenarioConfig(days=5, **kw)
    cfg.validate()
    return cfg


def test_build_houses_respects_pv_count_and_panel_range():
    cfg = _cfg(n_houses=12, n_pv=5)
    profile = SyntheticWeather()
    houses = build_houses(cfg, np.random.default_rng(1), profile,
                          pv_rng=np.random.default_rng(2))
    assert sum(1 for h in houses if h.pv is not None) == 5
    for h in houses:
        if h.pv is not None:
            assert 8 <= h.pv.n_panels <= 20
            assert h.pv.panel_rating_w == 480.0


def test_pv_sizing_does_not_perturb_thermal_fleet():
    """Scenarios with and without PV must share identical houses."""
    profile = SyntheticWeather()
    with_pv = build_houses(_cfg(n_houses=10, n_pv=10),
                           np.random.default_rng(5), profile,
                           pv_rng=np.random.default_rng(6))
    without = build_houses(_cfg(n_houses=10, n_pv=0),
                           np.random.default_rng(5), profile,
                           pv_rng=np.random.default_rng(6))
    for a, b in zip(with_pv, without):
        assert a.state.r == b.state.r
        assert a.state.c == b.state.c
        assert a.setpoint_offset_c == b.setpoint_offset_c
        assert a.setpoint_jitter_s == b.setpoint_jitter_s
        assert a.unresponsive.value_for_round(100) == \
            b.unresponsive.value_for_round(100)


class RecordingContext:
    """One step's bus for a lone federate: default reads, kept publishes."""

    def __init__(self, t, published):
        self.t = t
        self.published = published

    def read(self, key, default=0.0):
        return default

    def publish(self, key, value):
        self.published.setdefault(key, []).append((self.t, value))


@pytest.mark.parametrize("t_market_s", [60.0, 120.0, 300.0])
def test_published_unresponsive_loads_are_the_loads_held_in_their_window(
        t_market_s):
    cfg = _cfg(n_houses=4, t_market_s=t_market_s)
    weather = SyntheticWeather()
    houses = build_houses(cfg, np.random.default_rng(3), weather)
    fed = HouseholdFederate(houses, weather, 60.0, t_market_s)
    spr = int(t_market_s // 60.0)
    published, held = {}, []
    for k in range(13 * spr + 1):
        fed(RecordingContext(k * 60.0, published))
        held.append(tuple(h.state.q_internal for h in houses))
    # round r's loads are published at step spr*r - 1 and drive its
    # dispatch window, steps spr*r + 1 .. spr*r + spr
    rounds = published["houses/unresponsive_w"][:12]
    assert len(rounds) == 12
    for t, loads in rounds:
        r = int(round(t / 60.0)) // spr + 1
        window = held[spr * r + 1:spr * r + spr + 1]
        assert len(window) == spr and all(q == loads for q in window)
        assert loads == tuple(h.unresponsive.value_for_round(r)
                              for h in houses)


def test_unresponsive_loads_are_evaluated_once_per_house_per_round(
        monkeypatch):
    cfg = builtin_config("s1", n_houses=3, days=2, discard_days=1)
    calls, stepping = Counter(), []
    value_for_round, run = UnresponsiveProfile.value_for_round, Federation.run

    def counting(profile, index):
        if stepping:
            calls[index] += 1
        return value_for_round(profile, index)

    def flagged_run(fed, until_s):
        stepping.append(True)
        return run(fed, until_s)

    monkeypatch.setattr(UnresponsiveProfile, "value_for_round", counting)
    monkeypatch.setattr(Federation, "run", flagged_run)
    run_scenario(cfg)
    n_rounds = 2 * 288
    # rounds 0 .. n_rounds: the last publication is for the round after
    assert sorted(calls) == list(range(n_rounds + 1))
    assert set(calls.values()) == {cfg.n_houses}
