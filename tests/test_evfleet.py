"""EV mobility traces, battery integration and admissible load ranges."""

import dataclasses

import numpy as np
import pytest

from petgrid.evfleet import (HOME, Ev, EvFederate, EvState, Itinerary, Trip,
                             build_fleet, default_models, generate_itinerary,
                             load_range, step_battery)
from petgrid.runner import ScenarioConfig
from petgrid.weather import DAY_S

H = 3600.0


def test_default_models_pack_sizes_and_charger():
    tesla, vw = default_models(charger_kw=11.0)
    assert tesla.battery_capacity_kwh == 75.0
    assert vw.battery_capacity_kwh == 58.0
    for m in (tesla, vw):
        assert m.max_charge_w == 11000.0
        assert m.max_discharge_w == 11000.0
        assert m.drive_consumption_kwh_per_km == 0.16


def test_worker_home_at_night_every_day():
    it = generate_itinerary("worker", np.random.default_rng(9), days=6)
    for d in range(6):
        assert it.at_home(d * DAY_S + 3 * H)


def test_worker_commute_times_within_documented_jitter():
    for seed in range(20):
        it = generate_itinerary("worker", np.random.default_rng(seed), days=3)
        for d in range(3):
            day = [tr for tr in it.trips
                   if d * DAY_S <= tr.depart_s < (d + 1) * DAY_S]
            assert len(day) == 2
            out, back = day
            depart_h = (out.depart_s - d * DAY_S) / H
            return_h = (back.depart_s - d * DAY_S) / H
            assert 8.0 <= depart_h <= 9.5
            assert return_h <= 18.5
            assert 10.0 <= out.distance_km <= 30.0
            assert out.destination == "work"
            assert back.destination == "home"


def test_unemployed_zero_to_two_daylight_trips():
    for seed in range(20):
        it = generate_itinerary("unemployed", np.random.default_rng(seed),
                                days=4)
        for d in range(4):
            outbound = [tr for tr in it.trips
                        if d * DAY_S <= tr.depart_s < (d + 1) * DAY_S
                        and tr.destination == "other"]
            assert len(outbound) <= 2
            for tr in outbound:
                assert 9.0 <= (tr.depart_s - d * DAY_S) / H <= 17.0


def test_itinerary_deterministic_per_seed():
    a = generate_itinerary("worker", np.random.default_rng(4), days=5)
    b = generate_itinerary("worker", np.random.default_rng(4), days=5)
    assert a.trips == b.trips


def test_trips_chronological_and_non_overlapping():
    for profile in ("worker", "unemployed"):
        for seed in range(10):
            it = generate_itinerary(profile, np.random.default_rng(seed),
                                    days=5)
            for a, b in zip(it.trips, it.trips[1:]):
                assert b.depart_s >= a.arrive_s


def reference_location(itinerary, t):
    """Location by a linear scan: the last trip started by t decides."""
    started = [tr for tr in itinerary.trips if tr.depart_s <= t]
    if not started:
        return HOME
    last = started[-1]
    return "driving" if t < last.arrive_s else last.destination


@pytest.mark.parametrize("profile", ["worker", "unemployed"])
def test_location_and_at_home_agree_with_a_linear_scan(profile):
    for seed in range(6):
        it = generate_itinerary(profile, np.random.default_rng(seed), days=3)
        edges = [t for tr in it.trips for t in (tr.depart_s, tr.arrive_s)]
        grid = np.concatenate([np.arange(-60.0, 3 * DAY_S + 60.0, 60.0),
                               edges, np.nextafter(edges, -np.inf)])
        for t in grid.tolist():
            where = reference_location(it, t)
            assert it.location(t) == where
            assert it.at_home(t) == (where == HOME)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        generate_itinerary("retired", np.random.default_rng(0), days=1)
    with pytest.raises(ValueError):
        generate_itinerary("worker", np.random.default_rng(0), days=0)


def test_fleet_driving_peaks_morning_and_evening():
    rng = np.random.default_rng(0)
    itineraries = [generate_itinerary("worker", rng, days=4)
                   for _ in range(40)]
    hours = np.zeros(24)
    for it in itineraries:
        for t in np.arange(0, 4 * DAY_S, 300.0):
            if it.location(t) == "driving":
                hours[int((t % DAY_S) / H)] += 1
    morning = int(np.argmax(hours[:12]))
    evening = 12 + int(np.argmax(hours[12:]))
    assert morning in (8, 9, 10)
    assert evening in (17, 18, 19)


HOME_ALL_DAY = Itinerary("unemployed", [])


def _model(capacity=75.0, charger_w=7000.0):
    from petgrid.evfleet import EvModel
    return EvModel("test", capacity, charger_w, charger_w, 0.16)


def test_driving_drain_oracle():
    # 20 km at 0.16 kWh/km out of a 75 kWh pack: SoC drops 3.2/75.
    trip = Trip(0.0, H, 20.0, "other")
    it = Itinerary("unemployed", [trip])
    state = EvState(soc=0.8)
    out = step_battery(state, it, _model(), 0.0, H)
    assert out.soc == pytest.approx(0.8 - 3.2 / 75.0, abs=1e-12)


def test_driving_drain_apportioned_across_windows():
    trip = Trip(600.0, 600.0 + H, 30.0, "other")
    it = Itinerary("unemployed", [trip])
    whole = step_battery(EvState(soc=0.9), it, _model(), 0.0, 2 * H)
    split = EvState(soc=0.9)
    for k in range(24):
        split = step_battery(split, it, _model(), k * 300.0, 300.0)
    assert split.soc == pytest.approx(whole.soc, abs=1e-9)


def test_charge_efficiency_oracle():
    # +7000 W for 300 s at 95% efficiency stores 0.5542 kWh.
    state = EvState(soc=0.5, commanded_load_w=7000.0)
    out = step_battery(state, HOME_ALL_DAY, _model(), 0.0, 300.0)
    gained_kwh = (out.soc - 0.5) * 75.0
    assert gained_kwh == pytest.approx(7.0 * (300.0 / 3600.0) * 0.95,
                                       abs=1e-9)


def test_discharge_efficiency_oracle():
    # -7000 W for 300 s draws 0.6140 kWh from the pack.
    state = EvState(soc=0.5, commanded_load_w=-7000.0)
    out = step_battery(state, HOME_ALL_DAY, _model(), 0.0, 300.0)
    lost_kwh = (0.5 - out.soc) * 75.0
    assert lost_kwh == pytest.approx(7.0 * (300.0 / 3600.0) / 0.95, abs=1e-9)


def test_round_trip_is_lossy():
    state = EvState(soc=0.5, commanded_load_w=7000.0)
    charged = step_battery(state, HOME_ALL_DAY, _model(), 0.0, H)
    stored = (charged.soc - 0.5) * 75.0
    charged.commanded_load_w = -7000.0
    # meter energy returned when discharging the stored energy back out
    meter_out = stored * 0.95
    assert meter_out == pytest.approx(7.0 * 0.95 * 0.95, abs=1e-9)
    assert meter_out < 7.0  # strictly below the energy bought


def test_soc_clamped_and_clamp_counted():
    state = EvState(soc=0.999, commanded_load_w=7000.0)
    out = step_battery(state, HOME_ALL_DAY, _model(), 0.0, H)
    assert out.soc == 1.0
    assert out.clamp_events == 1


@pytest.mark.parametrize("soc, load_w, itinerary, clamps", [
    (0.5, 7000.0, HOME_ALL_DAY, 2),
    (0.5, -7000.0, HOME_ALL_DAY, 2),
    (0.999, 7000.0, HOME_ALL_DAY, 3),
    (0.8, 7000.0, Itinerary("unemployed", [Trip(0.0, H, 20.0, "other")]), 2),
], ids=["charge", "discharge", "clamp", "driving"])
def test_step_battery_returns_a_new_state_and_leaves_its_input(
        soc, load_w, itinerary, clamps):
    state = EvState(soc=soc, commanded_load_w=load_w, clamp_events=2)
    before = dataclasses.asdict(state)
    out = step_battery(state, itinerary, _model(), 0.0, H)
    assert out is not state
    assert dataclasses.asdict(state) == before
    assert out.soc != state.soc
    assert out.commanded_load_w == load_w
    assert out.clamp_events == clamps


def test_soc_validation():
    with pytest.raises(ValueError):
        EvState(soc=1.2)
    with pytest.raises(ValueError):
        step_battery(EvState(soc=0.5), HOME_ALL_DAY, _model(), 0.0, 0.0)


def test_load_range_soc_gates():
    m = _model(charger_w=11000.0)
    cases = [
        (0.95, (-11000.0, 0.0)),
        (0.60, (-11000.0, 11000.0)),
        (0.25, (0.0, 11000.0)),
        (0.15, (11000.0, 11000.0)),
    ]
    for soc, expected in cases:
        got = load_range(EvState(soc=soc), HOME_ALL_DAY, m, 0.0, 300.0)
        assert got == expected


def test_load_range_zero_when_away_or_departing():
    m = _model()
    trip = Trip(10 * H, 11 * H, 20.0, "work")
    it = Itinerary("worker", [trip])
    assert load_range(EvState(soc=0.5), it, m, 10.5 * H, 300.0) == (0.0, 0.0)
    # departing before the round ends
    assert load_range(EvState(soc=0.5), it, m, 10 * H - 100.0, 300.0) == \
        (0.0, 0.0)
    # long dwell before departure: normal gates apply
    assert load_range(EvState(soc=0.5), it, m, 5 * H, 300.0)[1] > 0


def test_build_fleet_mix_models_and_initial_soc():
    cfg = ScenarioConfig(n_ev=30, n_houses=30, days=5, ev_worker_ratio=0.6)
    fleet = build_fleet(cfg, np.random.default_rng(2))
    workers = [ev for ev in fleet if ev.itinerary.profile == "worker"]
    assert len(workers) == 18
    assert {ev.model.name for ev in fleet} == {"tesla_model_y_lr", "vw_id3"}
    assert all(0.5 <= ev.state.soc <= 0.9 for ev in fleet)
    # models alternate so the mix is 50:50
    names = [ev.model.name for ev in fleet]
    assert names.count("vw_id3") == 15


def test_federate_counts_out_of_range_commands():
    ev = Ev(_model(charger_w=7000.0), HOME_ALL_DAY, EvState(soc=0.5))
    fed = EvFederate([ev], step_s=60.0, t_market_s=300.0)

    class Ctx:
        t = 60.0
        next_round = None

        def read(self, key, default=0.0):
            return (5000.0,) if key == "dispatch/ev_load_w" else default

        def read_cleared(self, key, default):
            return default

        def publish(self, key, value):
            pass

    fed(Ctx())
    assert fed.range_violations == 1
    assert ev.state.commanded_load_w == 0.0  # clamped back into range
