"""House thermal model, HVAC hysteresis, unresponsive loads and PV."""

import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from harness import StubContext, spy
from petgrid import household
from petgrid.household import (HouseholdFederate, build_houses, hvac_demand,
                               setpoint, step_thermal, thermal_decay,
                               unresponsive_curve)
from petgrid.kernel import Federation
from petgrid.runner import ScenarioConfig, builtin_config, run_scenario
from petgrid.weather import DAY_S, SyntheticWeather, WeatherFederate

H = 3600.0
R, C = 1.0 / 650.0, 2.0 * H * 650.0
Q_COOL = 12000.0


def test_equilibrium_temperature_unchanged():
    out = step_thermal(30.0, temp_out=30.0, q_net=0.0, r=R,
                       decay=thermal_decay(R, C, 600.0))
    assert out == pytest.approx(30.0, abs=1e-12)


def test_exponential_relaxation_worked_example():
    # Closed-form oracle: RC = 2 h, start 25 degC, outdoor 35 degC, no
    # gains, 1 h horizon: 35 - 10*exp(-0.5) = 28.9347 degC.
    r, c = 1.0 / 500.0, 2 * H * 500.0
    out = step_thermal(25.0, temp_out=35.0, q_net=0.0, r=r,
                       decay=thermal_decay(r, c, H))
    assert out == pytest.approx(35.0 - 10.0 * math.exp(-0.5), abs=1e-3)


def test_cooling_decreases_temperature_at_equal_outdoor():
    out = step_thermal(30.0, temp_out=30.0, q_net=-Q_COOL, r=R,
                       decay=thermal_decay(R, C, 60.0))
    assert out < 30.0


def test_subdivided_steps_match_single_step():
    q_net = 800.0 - Q_COOL
    single = step_thermal(25.0, 35.0, q_net, R, thermal_decay(R, C, H))
    stepped = 25.0
    for _ in range(60):
        stepped = step_thermal(stepped, 35.0, q_net, R,
                               thermal_decay(R, C, 60.0))
    assert stepped == pytest.approx(single, abs=1e-9)


def test_setpoint_schedule_oracle():
    # DERIVED: evaluating the documented schedule directly.
    assert setpoint(13 * H) == 26.0
    assert setpoint(19 * H) == 23.0
    assert setpoint(18.5 * H) == 23.0    # the evening setback starts at 18:30
    assert setpoint(3 * H) == 22.0
    assert setpoint(8 * H) == 24.0       # midpoint of the 07:00-09:00 ramp
    assert setpoint(23.75 * H) == 22.0
    # a house's offset adds to the schedule; its jitter shifts the clock
    assert setpoint(13 * H, offset_c=0.5) == 26.5
    assert setpoint(3 * H, offset_c=-0.75) == 21.25
    assert setpoint(8 * H, jitter_s=-1800.0) == 23.0


def test_setpoint_jitter_and_offset_bounds():
    values = [setpoint(t, offset_c, jitter_s)
              for t in np.arange(0, DAY_S, 300.0)
              for offset_c in (-1.0, 0.0, 1.0)
              for jitter_s in (-1800.0, 0.0, 1800.0)]
    assert min(values) >= 21.0
    assert max(values) <= 27.0


def test_hvac_demand_above_setpoint():
    assert hvac_demand(27.0, 24.0, False, 1.0, 4000.0) == 4000.0


def test_hvac_demand_below_setpoint():
    assert hvac_demand(23.0, 24.0, False, 1.0, 4000.0) == 0.0


def test_hvac_hysteresis_keeps_running_until_lower_band():
    assert hvac_demand(23.8, 24.0, True, 1.0, 4000.0) == 4000.0
    assert hvac_demand(23.4, 24.0, True, 1.0, 4000.0) == 0.0
    # off unit does not start inside the deadband
    assert hvac_demand(24.4, 24.0, False, 1.0, 4000.0) == 0.0


def test_unresponsive_curve_mean_and_shape():
    ts = np.arange(0, DAY_S, 60.0)
    values = np.array([unresponsive_curve(t, 1150.0) for t in ts])
    assert values.mean() == pytest.approx(1150.0, rel=0.01)
    assert unresponsive_curve(6 * H, 1150.0) < unresponsive_curve(20 * H,
                                                                  1150.0)
    assert np.all(values >= 0.0)
    assert unresponsive_curve(5 * H, 1150.0) == pytest.approx(
        unresponsive_curve(5 * H + DAY_S, 1150.0))


def test_unresponsive_curve_through_its_anchors():
    # DERIVED: the shape's anchors (hour, relative load) and its daily
    # mean by the trapezoid rule, 25.325 / 24, written out by hand
    anchors = ((0, 1.10), (6, 0.55), (9, 1.00), (12, 0.95), (17, 1.25),
               (20, 1.60), (23, 1.20), (24, 1.10))
    mean = 25.325 / 24.0
    for hour, v in anchors:
        assert unresponsive_curve(hour * H, 1150.0) == pytest.approx(
            1150.0 * v / mean, rel=1e-12), hour
    for (h0, v0), (h1, v1) in zip(anchors, anchors[1:]):
        assert unresponsive_curve((h0 + h1) / 2 * H, 1150.0) == \
            pytest.approx(1150.0 * (v0 + v1) / 2 / mean, rel=1e-12), h0


def test_trough_is_daily_minimum_peak_at_evening():
    hours = np.arange(0, 24, 0.25)
    vals = [unresponsive_curve(h * H, 1150.0) for h in hours]
    assert hours[int(np.argmin(vals))] == 6.0
    assert hours[int(np.argmax(vals))] == 20.0


def _cfg(**kw):
    cfg = ScenarioConfig(days=5, **kw)
    cfg.validate()
    return cfg


def _houses(cfg, seed=1):
    return build_houses(cfg, np.random.default_rng(seed),
                        SyntheticWeather(23.0, 35.0),
                        pv_rng=np.random.default_rng(seed + 1))


def test_unresponsive_profile_noise_bounded_and_deterministic():
    cfg = _cfg(n_houses=6)
    a, b = _houses(cfg, seed=3), _houses(cfg, seed=3)
    quiet = _cfg(n_houses=6, houses_unresponsive_noise_frac=0.0)
    base = _houses(quiet, seed=3)
    assert base.noise_starts == [] and not base.day_noise(0).any()
    for i in range(0, 1400, 37):
        v1, v2 = a.unresponsive_loads(i), b.unresponsive_loads(i)
        v0 = base.unresponsive_loads(i)
        curve = unresponsive_curve((i + 0.5) * 300.0, 1150.0)
        assert v1 == v2
        assert v0 == (curve,) * 6
        assert all(abs(x - curve) <= 0.10 * curve + 1e-9 for x in v1)
        assert all(x >= 0.0 for x in v1)


def test_loads_at_full_noise_never_go_below_zero(monkeypatch):
    # validate() bounds the noise fraction to [0, 1], so a draw of -1.0,
    # the lowest, scales a load to +0.0 and no clip is needed
    cfg = _cfg(n_houses=4, houses_unresponsive_noise_frac=1.0)
    fleet = _houses(cfg, seed=5)
    # each house draws its noise at full noise too, on every day of the run
    noise = np.hstack([fleet.day_noise(day) for day in range(cfg.days + 1)])
    assert noise.any() and np.abs(noise).max() <= 1.0
    monkeypatch.setattr(HouseholdFederate, "day_noise",
                        lambda self, day: np.full((4, 288), -1.0))
    fleet = _houses(cfg, seed=5)
    for i in range(0, 300, 7):
        loads = fleet.unresponsive_loads(i)
        assert [(x, math.copysign(1.0, x)) for x in loads] == [(0.0, 1.0)] * 4


def reference_noise(cfg, seed):
    """The houses' appliance noise drawn the way a build once drew it,
    the whole run's at once: after each house's four parameters, one
    uniform draw per round for rounds + 2 rounds, as a houses x rounds
    matrix. Also gives each house's (rc_s, ua, offset, jitter) and the
    stream after the last house."""
    rng = np.random.default_rng(seed)
    f = cfg.houses_unresponsive_noise_frac
    n_rounds = int(cfg.days * DAY_S / cfg.t_market_s) + 2
    noise = np.zeros((cfg.n_houses, n_rounds))
    params = []
    for i in range(cfg.n_houses):
        params.append((rng.uniform(*cfg.houses_rc_hours_range) * H,
                       rng.uniform(*cfg.houses_ua_w_per_k_range),
                       rng.uniform(-1.0, 1.0), rng.uniform(-1800.0, 1800.0)))
        if f != 0.0:
            noise[i] = rng.uniform(-f, f, size=n_rounds)
    return noise, params, rng


@pytest.mark.parametrize("noise_frac", [0.0, 1.0])
@pytest.mark.parametrize("t_market_s", [300.0, 3600.0, 86400.0])
def test_a_days_noise_is_the_whole_runs_draw(t_market_s, noise_frac):
    """Every round's loads, read in order or out of it, are those of the
    whole run's noise drawn at once, bit for bit, and the houses draw
    their parameters from where they did and leave the stream there."""
    cfg = ScenarioConfig(n_houses=4, days=3, discard_days=1,
                         t_market_s=t_market_s,
                         houses_unresponsive_noise_frac=noise_frac)
    cfg.validate()
    noise, params, after = reference_noise(cfg, seed=9)
    rng = np.random.default_rng(9)
    fleet = build_houses(cfg, rng, SyntheticWeather(23.0, 35.0),
                         pv_rng=np.random.default_rng(10))
    assert rng.random() == after.random()
    assert fleet.r == [1.0 / ua for _, ua, _, _ in params]
    assert fleet.c == [rc_s * ua for rc_s, ua, _, _ in params]
    assert fleet.setpoint_offset_c == [offset for *_, offset, _ in params]
    assert fleet.setpoint_jitter_s == [jitter for *_, jitter in params]
    mean_w = cfg.houses_unresponsive_mean_kw * 1000.0
    expected = [tuple(unresponsive_curve((k + 0.5) * t_market_s, mean_w)
                      * (1.0 + x) for x in noise[:, k].tolist())
                for k in range(noise.shape[1])]
    assert len(expected) == 3 * round(DAY_S / t_market_s) + 2
    assert [fleet.unresponsive_loads(k)
            for k in range(len(expected))] == expected
    # a fresh fleet read back and forth across the days
    order = list(range(len(expected)))
    random.Random(4).shuffle(order)
    fleet = build_houses(cfg, np.random.default_rng(9),
                         SyntheticWeather(23.0, 35.0),
                         pv_rng=np.random.default_rng(10))
    assert [fleet.unresponsive_loads(k) for k in order] == \
        [expected[k] for k in order]


def test_fleet_daily_mean_close_to_target():
    cfg = _cfg(n_houses=30)
    fleet = _houses(cfg, seed=11)
    rounds = int(DAY_S / 300.0)
    total = np.mean([fleet.unresponsive_loads(i)
                     for i in range(rounds)]) * 30
    assert total == pytest.approx(34500.0, rel=0.10)


def test_pv_potential_examples():
    panels = [10, 17, 8, 20]        # the fifth house has no array
    cfg = _cfg(n_houses=5, n_pv=4)
    for frac, expected in ((1.0, (4800.0, 8160.0, 3840.0, 9600.0)),
                           (0.5, (2400.0, 4080.0, 1920.0, 4800.0)),
                           (0.0, (0.0,) * 4)):
        weather = SimpleNamespace(sample=lambda t, f=frac: SimpleNamespace(
            temp_c=30.0, irradiance_frac=f))
        ctx = StubContext(240.0, next_round=1)
        HouseholdFederate([25.0] * 5, [R] * 5, [C] * 5, [0.0] * 5, [0.0] * 5,
                          panels, [], weather, cfg)(ctx)
        assert ctx.published["houses/pv_potential_w"] == expected


def test_pv_array_validation():
    for panels in ((0, 20), (8.5, 9.5)):
        with pytest.raises(ValueError):
            _cfg(n_pv=1, pv_panels_range=panels)


def test_build_houses_respects_pv_count_and_panel_range():
    fleet = _houses(_cfg(n_houses=12, n_pv=5))
    assert len(fleet.pv_panels) == 5
    assert all(8 <= n <= 20 for n in fleet.pv_panels)
    # the arrays' own stream: one draw per array, in house order
    pv_rng = np.random.default_rng(2)
    assert fleet.pv_panels == [int(pv_rng.integers(8, 21))
                               for _ in range(5)]
    assert _houses(_cfg(n_houses=12, n_pv=0)).pv_panels == []


def test_build_houses_draws_each_ua_and_time_constant_from_its_range():
    """r is 1 / UA and c the time constant times UA, so r * c is the
    time constant."""
    fleet = _houses(_cfg(n_houses=40))
    assert all(550.0 <= 1.0 / r <= 750.0 for r in fleet.r)
    assert all(1.5 * H <= r * c <= 3.0 * H for r, c in zip(fleet.r, fleet.c))


def test_pv_sizing_does_not_perturb_thermal_fleet():
    """Scenarios with and without PV must share identical houses."""
    with_pv = _houses(_cfg(n_houses=10, n_pv=10), seed=5)
    without = _houses(_cfg(n_houses=10, n_pv=0), seed=5)
    assert with_pv.pv_panels != without.pv_panels
    for column in ("t_air", "r", "c", "setpoint_offset_c",
                   "setpoint_jitter_s", "q_cool"):
        assert getattr(with_pv, column) == getattr(without, column)
    assert with_pv.noise_starts == without.noise_starts
    assert np.array_equal(with_pv.day_noise(2), without.day_noise(2))


@pytest.mark.parametrize("t_market_s", [60.0, 120.0, 300.0])
def test_published_unresponsive_loads_are_the_loads_held_in_their_window(
        t_market_s, monkeypatch):
    cfg = _cfg(n_houses=4, t_market_s=t_market_s)
    houses = _houses(cfg, seed=3)
    q_nets = spy(monkeypatch, household, "step_thermal",
                 record=lambda t_air, temp_out, q_net, r, decay: q_net)
    spr = int(t_market_s // 60.0)
    visible = []

    def recorder(ctx):
        # stepped after the households: the latest loads they published
        # before this step
        visible.append(ctx.read("houses/unresponsive_w", None))

    fed = Federation(60.0, t_market_s)
    fed.register_federate("households", houses)
    fed.register_federate("recorder", recorder)
    fed.run((14 * spr + 1) * 60.0)
    # no HVAC is dispatched, so q_net is the load each house held
    n = cfg.n_houses
    held = [tuple(q_nets[k:k + n]) for k in range(0, len(q_nets), n)]
    round0 = houses.unresponsive_loads(0)
    assert held[:spr + 1] == [round0] * (spr + 1)
    for r in range(1, 14):
        # round r's loads become visible at step spr*r, when it clears,
        # and drive its dispatch window, steps spr*r + 1 .. spr*r + spr
        k = spr * r
        loads = visible[k]
        assert visible[k - 1] != loads
        assert loads == houses.unresponsive_loads(r)
        assert held[k + 1:k + spr + 1] == [loads] * spr


def test_unresponsive_loads_are_evaluated_once_per_house_per_round(
        monkeypatch):
    cfg = builtin_config("s1", n_houses=3, days=2, discard_days=1)
    indices = spy(monkeypatch, HouseholdFederate, "unresponsive_loads",
                  record=lambda houses, index: index)
    run_scenario(cfg)
    calls = Counter(indices)
    n_rounds = 2 * 288
    # one fleet evaluation, a value per house, for each of rounds
    # 0 .. n_rounds: the last publication is for the round after
    assert sorted(calls) == list(range(n_rounds + 1))
    assert set(calls.values()) == {1}


class RecordingContext:
    """Passes a step context through, recording what the households read
    and publish."""

    def __init__(self, ctx, inputs, published):
        self._ctx, self._inputs, self._published = ctx, inputs, published
        self.t, self.next_round = ctx.t, ctx.next_round

    def read(self, key, default=0.0):
        value = self._ctx.read(key, default)
        self._inputs[key] = value
        return value

    def read_cleared(self, key, default):
        value = self._ctx.read_cleared(key, default)
        self._inputs[key] = value
        return value

    def publish(self, key, value):
        self._published.append((self._ctx.t, key, value))
        self._ctx.publish(key, value)


def reference_publications(fleet, cfg, steps, noise):
    """Per-house scalar replay of the household model from the recorded
    step inputs and the houses' `reference_noise`: each house keeps its
    air temperature, whether its HVAC runs (the latest dispatch is
    positive), its heat gain and the setpoint at the end of the step."""
    n = len(fleet.t_air)
    t_air = list(fleet.t_air)
    hvac_on = [False] * n
    t_set = [0.0] * n
    rating = cfg.houses_hvac_kw * 1000.0
    q_cool = rating * cfg.houses_cop
    half = cfg.houses_deadband_c / 2.0
    out = []
    for t, next_round, inputs in steps:
        temp_out = inputs["weather/temp_c"]
        for i in range(n):
            hvac_on[i] = inputs["dispatch/hvac_w"][i] > 0.0
            q_net = (inputs["houses/unresponsive_w"][i]
                     - (q_cool if hvac_on[i] else 0.0))
            t_inf = temp_out + fleet.r[i] * q_net
            decay = math.exp(-cfg.step_s / (fleet.r[i] * fleet.c[i]))
            t_air[i] = t_inf + (t_air[i] - t_inf) * decay
            t_set[i] = setpoint(t + cfg.step_s, fleet.setpoint_offset_c[i],
                                fleet.setpoint_jitter_s[i])
        if next_round is None:
            continue
        demand = []
        for i in range(n):
            bound = t_set[i] - half if hvac_on[i] else t_set[i] + half
            demand.append(rating if t_air[i] > bound else 0.0)
        mid = next_round * cfg.t_market_s + cfg.step_s + cfg.t_market_s / 2.0
        frac = SyntheticWeather(23.0, 35.0).sample(mid).irradiance_frac
        curve = unresponsive_curve((next_round + 0.5) * cfg.t_market_s,
                                   cfg.houses_unresponsive_mean_kw * 1000.0)
        sum_air = sum_set = sum_ex2 = 0.0
        for i in range(n):
            sum_air += t_air[i]
            sum_set += t_set[i]
            sum_ex2 += max(t_air[i] - t_set[i], 0.0) ** 2
        out += [
            (t, "houses/hvac_demand_w", tuple(demand)),
            (t, "houses/unresponsive_w", tuple(
                max(curve * (1.0 + float(noise[i, next_round])), 0.0)
                for i in range(n))),
            (t, "houses/pv_potential_w", tuple(
                panels * cfg.pv_panel_w * frac
                for panels in fleet.pv_panels)),
            (t, "houses/mean_t_air_c", sum_air / n),
            (t, "houses/mean_t_set_c", sum_set / n),
            (t, "houses/mean_t_excess2", sum_ex2 / n),
        ]
    return out


@pytest.mark.parametrize("t_market_s", [60.0, 300.0])
def test_household_step_matches_a_scalar_reference(t_market_s):
    cfg = _cfg(n_houses=5, n_pv=3, t_market_s=t_market_s, pv_panel_w=400.0)
    weather = SyntheticWeather(23.0, 35.0)
    # two draws of the same houses: one to step, one that keeps the start
    houses, start = _houses(cfg, seed=7), _houses(cfg, seed=7)
    steps, published = [], []

    def dispatcher(ctx):
        # scripted on/off HVAC dispatch, toggling at a different period
        # for each house so both hysteresis bands are crossed; house 0's
        # grants are 1 W, the least that switches its HVAC on
        k = int(ctx.t // 60.0)
        ctx.publish("dispatch/hvac_w", tuple(
            (4000.0 if i else 1.0) if (k // (3 + 4 * i)) % 2 else 0.0
            for i in range(5)))

    def stepping(ctx):
        inputs = {}
        houses(RecordingContext(ctx, inputs, published))
        steps.append((ctx.t, ctx.next_round, inputs))

    fed = Federation(60.0, t_market_s)
    fed.register_federate("weather", WeatherFederate(weather))
    fed.register_federate("dispatcher", dispatcher)
    fed.register_federate("households", stepping)
    fed.run(DAY_S)
    assert len(published) == 6 * int(DAY_S / t_market_s)
    assert any(any(d) for _, key, d in published
               if key == "houses/hvac_demand_w")
    assert published == reference_publications(
        start, cfg, steps, reference_noise(cfg, seed=7)[0])
