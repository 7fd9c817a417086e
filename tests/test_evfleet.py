"""EV mobility traces, battery integration and admissible load ranges."""

import numpy as np
import pytest

from petgrid import evfleet, kernel
from petgrid.evfleet import (PACK_KWH, EvFederate, Itinerary, Trip,
                             build_fleet, generate_itinerary, load_range,
                             step_battery)
from petgrid.kernel import Federation
from petgrid.runner import ScenarioConfig, builtin_config, run_scenario
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
    # the federate gates every EV by the configured 11 kW charger, in
    # whole watts
    chargers = []
    monkeypatch.setattr(evfleet, "load_range",
                        lambda soc, home, depart, charger_w, t, t_market:
                        chargers.append(charger_w) or (0, 0))

    class Ctx:
        t, next_round = 240.0, 1

        def read(self, key, default=0.0):
            return default

        def read_cleared(self, key, default):
            return default

        def publish(self, key, value):
            pass

    fleet(Ctx())
    assert chargers == [11000] * 4
    assert all(type(w) is int for w in chargers)


def test_worker_home_at_night_every_day():
    it = generate_itinerary(True, np.random.default_rng(9), 6, SPEED)
    for d in range(6):
        parked, home, _ = it.locate(d * DAY_S + 3 * H)
        assert parked and home


def test_worker_commute_times_within_documented_jitter():
    for seed in range(20):
        it = generate_itinerary(True, np.random.default_rng(seed), 3,
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
            assert not out.home
            assert back.home


def test_unemployed_zero_to_two_daylight_trips():
    for seed in range(20):
        it = generate_itinerary(False, np.random.default_rng(seed),
                                4, SPEED)
        for d in range(4):
            outbound = [tr for tr in it.trips
                        if d * DAY_S <= tr.depart_s < (d + 1) * DAY_S
                        and not tr.home]
            assert len(outbound) <= 2
            for tr in outbound:
                assert 9.0 <= (tr.depart_s - d * DAY_S) / H <= 17.0


def test_itinerary_deterministic_per_seed():
    a = generate_itinerary(True, np.random.default_rng(4), 5, SPEED)
    b = generate_itinerary(True, np.random.default_rng(4), 5, SPEED)
    assert a.trips == b.trips


def test_trips_chronological_and_non_overlapping():
    for worker in (True, False):
        for seed in range(10):
            it = generate_itinerary(worker, np.random.default_rng(seed),
                                    5, SPEED)
            for a, b in zip(it.trips, it.trips[1:]):
                assert b.depart_s >= a.arrive_s


def reference_locate(itinerary, t):
    """(parked, home, next departure) by a linear scan: the last trip
    started by t decides where the EV is."""
    started = [tr for tr in itinerary.trips if tr.depart_s <= t]
    later = [tr.depart_s for tr in itinerary.trips if tr.depart_s > t]
    depart = later[0] if later else float("inf")
    if not started:
        return True, True, depart
    last = started[-1]
    parked = t >= last.arrive_s
    return parked, parked and last.home, depart


@pytest.mark.parametrize("worker", [True, False],
                         ids=["worker", "unemployed"])
def test_locate_agrees_with_a_linear_scan(worker):
    for seed in range(6):
        it = generate_itinerary(worker, np.random.default_rng(seed), 3,
                                SPEED)
        edges = [t for tr in it.trips for t in (tr.depart_s, tr.arrive_s)]
        grid = np.concatenate([np.arange(-60.0, 3 * DAY_S + 60.0, 60.0),
                               edges, np.nextafter(edges, -np.inf)])
        for t in grid.tolist():
            assert it.locate(t) == reference_locate(it, t)


def test_fleet_driving_peaks_morning_and_evening():
    rng = np.random.default_rng(0)
    itineraries = [generate_itinerary(True, rng, 4, SPEED)
                   for _ in range(40)]
    hours = np.zeros(24)
    for it in itineraries:
        for t in np.arange(0, 4 * DAY_S, 300.0):
            if not it.locate(t)[0]:
                hours[int((t % DAY_S) / H)] += 1
    morning = int(np.argmax(hours[:12]))
    evening = 12 + int(np.argmax(hours[12:]))
    assert morning in (8, 9, 10)
    assert evening in (17, 18, 19)


def test_driving_drain_oracle():
    # 20 km at 0.16 kWh/km out of a 75 kWh pack: SoC drops 3.2/75.
    it = Itinerary([Trip(0.0, H, 20.0, False)])
    drive = it.driving_kwh(0.0, H, PER_KM)
    out = step_battery(0.8, 0.0, drive, False, 75.0, H, ETA)
    assert out == pytest.approx(0.8 - 3.2 / 75.0, abs=1e-12)


def test_driving_drain_apportioned_across_windows():
    it = Itinerary([Trip(600.0, 600.0 + H, 30.0, False)])
    whole = step_battery(0.9, 0.0, it.driving_kwh(0.0, 2 * H, PER_KM), False,
                         75.0, 2 * H, ETA)
    split = 0.9
    for k in range(24):
        drive = it.driving_kwh(k * 300.0, 300.0, PER_KM)
        split = step_battery(split, 0.0, drive, False, 75.0, 300.0, ETA)
    assert split == pytest.approx(whole, abs=1e-9)


def test_charge_efficiency_oracle():
    # +7000 W for 300 s at 95% efficiency stores 0.5542 kWh, and a
    # command under 1 kW charges at the same efficiency
    for command_w in (7000.0, 500.0):
        out = step_battery(0.5, command_w, 0.0, True, 75.0, 300.0, ETA)
        gained_kwh = (out - 0.5) * 75.0
        assert gained_kwh == pytest.approx(
            command_w / 1000.0 * (300.0 / 3600.0) * 0.95, abs=1e-9)


def test_discharge_efficiency_oracle():
    # -7000 W for 300 s draws 0.6140 kWh from the pack.
    out = step_battery(0.5, -7000.0, 0.0, True, 75.0, 300.0, ETA)
    lost_kwh = (0.5 - out) * 75.0
    assert lost_kwh == pytest.approx(7.0 * (300.0 / 3600.0) / 0.95, abs=1e-9)


def test_commands_apply_only_at_home():
    assert step_battery(0.5, 7000.0, 0.0, False, 75.0, 300.0, ETA) == 0.5
    assert step_battery(0.5, -7000.0, 0.0, False, 75.0, 300.0, ETA) == 0.5


def test_round_trip_is_lossy():
    charged = step_battery(0.5, 7000.0, 0.0, True, 75.0, H, ETA)
    stored = (charged - 0.5) * 75.0
    # meter energy returned when discharging the stored energy back out
    meter_out = stored * 0.95
    assert meter_out == pytest.approx(7.0 * 0.95 * 0.95, abs=1e-9)
    assert meter_out < 7.0  # strictly below the energy bought


def test_soc_clamped_to_the_pack():
    full = step_battery(0.999, 7000.0, 0.0, True, 75.0, H, ETA)
    assert full == 1.0
    empty = step_battery(0.001, -7000.0, 0.0, True, 75.0, H, ETA)
    assert empty == 0.0
    # a trip longer than the charge allows
    it = Itinerary([Trip(0.0, H, 500.0, False)])
    drive = it.driving_kwh(0.0, H, PER_KM)
    assert step_battery(0.2, 0.0, drive, False, 58.0, H, ETA) == 0.0


def test_soc_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(ev_initial_soc_range=(0.5, 1.2)).validate()


def test_load_range_soc_gates():
    # the gates themselves: 0.90 still trades both ways, 0.30 too, and
    # 0.20 charges only
    cases = [
        (0.95, (-11000, 0)),
        (0.90, (-11000, 11000)),
        (0.60, (-11000, 11000)),
        (0.30, (-11000, 11000)),
        (0.25, (0, 11000)),
        (0.20, (0, 11000)),
        (0.15, (11000, 11000)),
    ]
    for soc, expected in cases:
        got = load_range(soc, True, float("inf"), 11000, 0.0, 300.0)
        assert got == expected, soc
        # an integer rating gives whole-watt packets
        assert all(type(w) is int for w in got), soc


def test_load_range_zero_when_away_or_departing():
    it = Itinerary([Trip(10 * H, 11 * H, 20.0, False)])

    def at(t):
        _, home, depart = it.locate(t)
        return load_range(0.5, home, depart, 7000, t, 300.0)

    assert at(10.5 * H) == (0, 0)
    # departing before the round ends
    assert at(10 * H - 100.0) == (0, 0)
    # long dwell before departure: normal gates apply
    assert at(5 * H)[1] > 0


def test_build_fleet_mix_models_and_initial_soc():
    cfg = ScenarioConfig(n_ev=30, n_houses=30, days=5, ev_worker_ratio=0.6)
    fleet = build_fleet(cfg, np.random.default_rng(2))
    # workers leave home once a day; unemployed owners at most twice
    outbound = [sum(not tr.home for tr in it.trips)
                for it in fleet.itineraries]
    assert outbound[:18] == [5] * 18
    assert all(n <= 10 for n in outbound[18:])
    assert all(0.5 <= soc <= 0.9 for soc in fleet.soc)
    # models alternate so the mix is 50:50
    assert fleet.capacity_kwh == [75.0, 58.0] * 15


def test_federate_counts_out_of_range_commands(monkeypatch):
    fed = EvFederate([0.5], [75.0], [Itinerary([])],
                     ScenarioConfig(ev_charger_kw=7.0))
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
    assert fed.soc == [0.5]
    # the command stays in force, and out of range, at the next step
    Ctx.t = 120.0
    fed(Ctx())
    assert fed.range_violations == 2
    assert commands == [0.0, 0.0]


@pytest.mark.parametrize("command_w, clamped_w", [(7000.25, 7000),
                                                  (-0.25, 0)])
def test_a_command_a_quarter_watt_outside_its_range_is_out_of_range(
        monkeypatch, command_w, clamped_w):
    """The cleared range is whole watts, so the fleet checks each command
    against it exactly, with no rounding slack."""
    fed = EvFederate([0.25], [75.0], [Itinerary([])],
                     ScenarioConfig(ev_charger_kw=7.0))
    commands = []
    step = evfleet.step_battery

    def recording(soc, command_w, *args):
        commands.append(command_w)
        return step(soc, command_w, *args)

    monkeypatch.setattr(evfleet, "step_battery", recording)

    class Ctx:
        t, next_round = 60.0, None

        def read(self, key, default=0.0):
            return (command_w,) if key == "dispatch/ev_load_w" else default

        def read_cleared(self, key, default):
            # the charge-only range of an EV between 20% and 30% SoC
            return ((0, 7000),) if key == "evs/load_range_w" else default

        def publish(self, key, value):
            pass

    fed(Ctx())
    assert fed.range_violations == 1
    assert commands == [clamped_w]


# Trips that put departures and arrivals on and between the edges of
# 60 s steps: a departure on a step edge with an arrival inside a step,
# a departure at the instant of that arrival, a trip inside one step,
# and an arrival on a step edge followed at once by a departure.
EDGE_TRIPS = [Trip(600.0, 1230.0, 5.0, False),
              Trip(1230.0, 1250.0, 1.0, True),
              Trip(1830.0, 2400.0, 4.0, False),
              Trip(2400.0, 3000.0, 4.0, True),
              Trip(3010.0, 3050.0, 0.5, False),
              Trip(3600.0, 4000.0, 3.0, True)]


def test_federate_steps_match_a_search_at_every_step(monkeypatch):
    """The federate searches an itinerary only at trip events; every
    step must still see the driving energy and home flag that a search
    at that step gives."""
    rng = np.random.default_rng(5)
    itineraries = [Itinerary(EDGE_TRIPS)] + [
        generate_itinerary(worker, rng, 2, SPEED)
        for worker in (True, True, False, False)]
    n = len(itineraries)
    cfg = ScenarioConfig(n_houses=n, n_ev=n, days=2, discard_days=1)
    calls = []
    step = evfleet.step_battery

    def recording(soc, command_w, drive_kwh, home, *args):
        calls.append((drive_kwh, home))
        return step(soc, command_w, drive_kwh, home, *args)

    monkeypatch.setattr(evfleet, "step_battery", recording)
    fed = Federation(cfg.step_s, cfg.t_market_s)
    fed.register_federate("ev-fleet", EvFederate([0.6] * n, [75.0] * n,
                                                 itineraries, cfg))
    fed.run(cfg.days * DAY_S)
    expected = []
    for t in np.arange(0.0, cfg.days * DAY_S, cfg.step_s).tolist():
        for it in itineraries:
            expected.append((it.driving_kwh(t, cfg.step_s,
                                            cfg.ev_drive_kwh_per_km),
                             reference_locate(it, t)[1]))
    assert calls == expected
    assert sum(home for _, home in calls) < len(calls)


def test_soc_extremes_are_those_of_the_stepped_series(monkeypatch):
    socs = []
    step = evfleet.step_battery

    def recording(*args):
        socs.append(step(*args))
        return socs[-1]

    monkeypatch.setattr(evfleet, "step_battery", recording)
    result = run_scenario(builtin_config("s5", n_houses=3, n_ev=3, n_pv=3,
                                         days=2, discard_days=1))
    assert len(socs) == 3 * 2 * 1440
    # strictly inside [0, 1], so extremes that start at a bound would show
    assert 0.0 < min(socs) and max(socs) < 1.0
    assert (result.soc_min, result.soc_max) == (min(socs), max(socs))


def assert_published_as_searched(published, itineraries, cfg):
    """Each round's published ranges and departures equal those of a
    linear-scan search of every EV at the round's window start."""
    charger_w = round(cfg.ev_charger_kw * 1000.0)
    rounds = [published[k:k + 3] for k in range(0, len(published), 3)]
    assert len(rounds) == cfg.days * DAY_S / cfg.t_market_s
    for (r, _, ranges), (_, _, socs), (_, _, departs) in rounds:
        window_start = r * cfg.t_market_s + cfg.step_s
        spots = [reference_locate(it, window_start) for it in itineraries]
        assert departs == tuple(depart for *_, depart in spots)
        assert ranges == tuple(
            load_range(soc, home, depart, charger_w, window_start,
                       cfg.t_market_s)
            for soc, (_, home, depart) in zip(socs, spots))
    return rounds


def recording_publish(monkeypatch):
    published = []
    publish = kernel.StepContext.publish

    def recording(ctx, key, value):
        if key.startswith("evs/"):
            published.append((ctx.next_round, key, value))
        publish(ctx, key, value)

    monkeypatch.setattr(kernel.StepContext, "publish", recording)
    return published


def test_published_ranges_and_departures_are_those_of_a_search(monkeypatch):
    """Each round the fleet searches only the EVs not parked past the
    window start; what it publishes must equal a search of every EV."""
    fleets = []
    build = evfleet.build_fleet
    monkeypatch.setattr(evfleet, "build_fleet",
                        lambda *args: fleets.append(build(*args)) or fleets[-1])
    published = recording_publish(monkeypatch)
    cfg = builtin_config("s5", n_houses=8, n_ev=8, n_pv=8, days=3,
                         discard_days=1, seed=3)
    run_scenario(cfg)
    rounds = assert_published_as_searched(published, fleets[0].itineraries,
                                          cfg)
    # EVs leave, come back and trade over the run
    away = [ranges.count((0.0, 0.0)) for (_, _, ranges), *_ in rounds]
    assert min(away) < max(away)


def test_a_departure_at_a_window_start_is_published_as_searched(monkeypatch):
    """Windows start 60 s after each 300 s round boundary; these trips
    depart and arrive exactly at such starts, and one departs at the
    instant of an arrival."""
    itineraries = [Itinerary([Trip(660.0, 1260.0, 5.0, False),
                              Trip(1260.0, 1860.0, 5.0, True)]),
                   Itinerary([Trip(360.0, 400.0, 1.0, False),
                              Trip(960.0, 3660.0, 2.0, True)])]
    cfg = ScenarioConfig(n_houses=2, n_ev=2, days=2, discard_days=1)
    published = recording_publish(monkeypatch)
    fed = Federation(cfg.step_s, cfg.t_market_s)
    fed.register_federate("ev-fleet", EvFederate(
        [0.6, 0.6], [75.0, 58.0], itineraries, cfg))
    fed.run(cfg.days * DAY_S)
    assert_published_as_searched(published, itineraries, cfg)
