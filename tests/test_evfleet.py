"""EV mobility traces, battery integration and admissible load ranges."""

import numpy as np
import pytest

from petgrid import evfleet
from petgrid.evfleet import (HOME, PACK_KWH, WORK, EvFederate, EvFleet,
                             Itinerary, Trip, build_fleet, generate_itinerary,
                             load_range, step_battery)
from petgrid.runner import ScenarioConfig
from petgrid.weather import DAY_S

H = 3600.0
SPEED = 30.0    # km/h
PER_KM = 0.16   # kWh/km
ETA = 0.95


def test_default_models_pack_sizes_and_charger(monkeypatch):
    assert PACK_KWH == (75.0, 58.0)
    cfg = ScenarioConfig(n_houses=4, n_ev=4, days=2, discard_days=1)
    fleet = build_fleet(cfg, np.random.default_rng(0))
    assert fleet.capacity_kwh == [75.0, 58.0, 75.0, 58.0]
    # the federate gates every EV by the configured 11 kW charger
    chargers = []
    monkeypatch.setattr(evfleet, "load_range",
                        lambda soc, it, charger_w, t, t_market:
                        chargers.append(charger_w) or (0.0, 0.0))

    class Ctx:
        t, next_round = 240.0, 1

        def read(self, key, default=0.0):
            return default

        def read_cleared(self, key, default):
            return default

        def publish(self, key, value):
            pass

    EvFederate(fleet, cfg)(Ctx())
    assert chargers == [11000.0] * 4


def test_worker_home_at_night_every_day():
    it = generate_itinerary("worker", np.random.default_rng(9), 6, SPEED)
    for d in range(6):
        assert it.at_home(d * DAY_S + 3 * H)


def test_worker_commute_times_within_documented_jitter():
    for seed in range(20):
        it = generate_itinerary("worker", np.random.default_rng(seed), 3,
                                SPEED)
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
                                4, SPEED)
        for d in range(4):
            outbound = [tr for tr in it.trips
                        if d * DAY_S <= tr.depart_s < (d + 1) * DAY_S
                        and tr.destination == "other"]
            assert len(outbound) <= 2
            for tr in outbound:
                assert 9.0 <= (tr.depart_s - d * DAY_S) / H <= 17.0


def test_itinerary_deterministic_per_seed():
    a = generate_itinerary("worker", np.random.default_rng(4), 5, SPEED)
    b = generate_itinerary("worker", np.random.default_rng(4), 5, SPEED)
    assert a.trips == b.trips


def test_trips_chronological_and_non_overlapping():
    for profile in ("worker", "unemployed"):
        for seed in range(10):
            it = generate_itinerary(profile, np.random.default_rng(seed),
                                    5, SPEED)
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
        it = generate_itinerary(profile, np.random.default_rng(seed), 3,
                                SPEED)
        edges = [t for tr in it.trips for t in (tr.depart_s, tr.arrive_s)]
        grid = np.concatenate([np.arange(-60.0, 3 * DAY_S + 60.0, 60.0),
                               edges, np.nextafter(edges, -np.inf)])
        for t in grid.tolist():
            where = reference_location(it, t)
            assert it.location(t) == where
            assert it.at_home(t) == (where == HOME)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        generate_itinerary("retired", np.random.default_rng(0), 1, SPEED)
    with pytest.raises(ValueError):
        generate_itinerary("worker", np.random.default_rng(0), 0, SPEED)


def test_fleet_driving_peaks_morning_and_evening():
    rng = np.random.default_rng(0)
    itineraries = [generate_itinerary("worker", rng, 4, SPEED)
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


HOME_ALL_DAY = Itinerary([])


def test_driving_drain_oracle():
    # 20 km at 0.16 kWh/km out of a 75 kWh pack: SoC drops 3.2/75.
    it = Itinerary([Trip(0.0, H, 20.0, "other")])
    out = step_battery(0.8, 0.0, it, 75.0, PER_KM, 0.0, H, ETA)
    assert out == pytest.approx(0.8 - 3.2 / 75.0, abs=1e-12)


def test_driving_drain_apportioned_across_windows():
    it = Itinerary([Trip(600.0, 600.0 + H, 30.0, "other")])
    whole = step_battery(0.9, 0.0, it, 75.0, PER_KM, 0.0, 2 * H, ETA)
    split = 0.9
    for k in range(24):
        split = step_battery(split, 0.0, it, 75.0, PER_KM, k * 300.0, 300.0,
                             ETA)
    assert split == pytest.approx(whole, abs=1e-9)


def test_charge_efficiency_oracle():
    # +7000 W for 300 s at 95% efficiency stores 0.5542 kWh.
    out = step_battery(0.5, 7000.0, HOME_ALL_DAY, 75.0, PER_KM, 0.0, 300.0,
                       ETA)
    gained_kwh = (out - 0.5) * 75.0
    assert gained_kwh == pytest.approx(7.0 * (300.0 / 3600.0) * 0.95,
                                       abs=1e-9)


def test_discharge_efficiency_oracle():
    # -7000 W for 300 s draws 0.6140 kWh from the pack.
    out = step_battery(0.5, -7000.0, HOME_ALL_DAY, 75.0, PER_KM, 0.0, 300.0,
                       ETA)
    lost_kwh = (0.5 - out) * 75.0
    assert lost_kwh == pytest.approx(7.0 * (300.0 / 3600.0) / 0.95, abs=1e-9)


def test_round_trip_is_lossy():
    charged = step_battery(0.5, 7000.0, HOME_ALL_DAY, 75.0, PER_KM, 0.0, H,
                           ETA)
    stored = (charged - 0.5) * 75.0
    # meter energy returned when discharging the stored energy back out
    meter_out = stored * 0.95
    assert meter_out == pytest.approx(7.0 * 0.95 * 0.95, abs=1e-9)
    assert meter_out < 7.0  # strictly below the energy bought


def test_soc_clamped_to_the_pack():
    full = step_battery(0.999, 7000.0, HOME_ALL_DAY, 75.0, PER_KM, 0.0, H,
                        ETA)
    assert full == 1.0
    empty = step_battery(0.001, -7000.0, HOME_ALL_DAY, 75.0, PER_KM, 0.0, H,
                         ETA)
    assert empty == 0.0
    # a trip longer than the charge allows
    it = Itinerary([Trip(0.0, H, 500.0, "other")])
    assert step_battery(0.2, 0.0, it, 58.0, PER_KM, 0.0, H, ETA) == 0.0


def test_soc_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(ev_initial_soc_range=(0.5, 1.2)).validate()
    with pytest.raises(ValueError):
        step_battery(0.5, 0.0, HOME_ALL_DAY, 75.0, PER_KM, 0.0, 0.0, ETA)


def test_load_range_soc_gates():
    cases = [
        (0.95, (-11000.0, 0.0)),
        (0.60, (-11000.0, 11000.0)),
        (0.25, (0.0, 11000.0)),
        (0.15, (11000.0, 11000.0)),
    ]
    for soc, expected in cases:
        got = load_range(soc, HOME_ALL_DAY, 11000.0, 0.0, 300.0)
        assert got == expected


def test_load_range_zero_when_away_or_departing():
    it = Itinerary([Trip(10 * H, 11 * H, 20.0, "work")])
    assert load_range(0.5, it, 7000.0, 10.5 * H, 300.0) == (0.0, 0.0)
    # departing before the round ends
    assert load_range(0.5, it, 7000.0, 10 * H - 100.0, 300.0) == (0.0, 0.0)
    # long dwell before departure: normal gates apply
    assert load_range(0.5, it, 7000.0, 5 * H, 300.0)[1] > 0


def test_build_fleet_mix_models_and_initial_soc():
    cfg = ScenarioConfig(n_ev=30, n_houses=30, days=5, ev_worker_ratio=0.6)
    fleet = build_fleet(cfg, np.random.default_rng(2))
    # workers commute every day; unemployed owners never drive to work
    commutes = [sum(tr.destination == WORK for tr in it.trips)
                for it in fleet.itineraries]
    assert commutes == [5] * 18 + [0] * 12
    assert all(0.5 <= soc <= 0.9 for soc in fleet.soc)
    # models alternate so the mix is 50:50
    assert fleet.capacity_kwh == [75.0, 58.0] * 15


def test_federate_counts_out_of_range_commands(monkeypatch):
    fleet = EvFleet([0.5], [75.0], [HOME_ALL_DAY])
    fed = EvFederate(fleet, ScenarioConfig(ev_charger_kw=7.0))
    commands = []
    step = evfleet.step_battery

    def recording(soc, command_w, *args):
        commands.append(command_w)
        return step(soc, command_w, *args)

    monkeypatch.setattr(evfleet, "step_battery", recording)

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
    assert commands == [0.0]  # clamped back into range
    assert fleet.soc == [0.5]
