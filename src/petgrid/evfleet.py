"""Synthetic EV mobility, battery simulation and admissible load ranges.

Itineraries are schedule-plus-jitter: full-time workers commute on every
day of the horizon, unemployed owners make 0-2 short daytime trips.
Battery state integrates driving drain plus commanded charge/discharge
at the home charger with symmetric efficiency losses. The admissible
load range gates charging/discharging by state of charge so the owner
can always drive.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .weather import DAY_S

HOME = "home"
WORK = "work"
OTHER = "other"


@dataclass(frozen=True)
class EvModel:
    name: str
    battery_capacity_kwh: float
    max_charge_w: float
    max_discharge_w: float
    drive_consumption_kwh_per_km: float


def default_models(charger_kw: float = 11.0,
                   drive_kwh_per_km: float = 0.16) -> list[EvModel]:
    charger_w = charger_kw * 1000.0
    return [
        EvModel("tesla_model_y_lr", 75.0, charger_w, charger_w,
                drive_kwh_per_km),
        EvModel("vw_id3", 58.0, charger_w, charger_w, drive_kwh_per_km),
    ]


@dataclass(frozen=True)
class Trip:
    depart_s: float
    arrive_s: float
    distance_km: float
    destination: str


@dataclass
class Itinerary:
    profile: str  # "worker" or "unemployed"
    trips: list[Trip] = field(default_factory=list)

    def __post_init__(self):
        self._departs = [tr.depart_s for tr in self.trips]
        for a, b in zip(self.trips, self.trips[1:]):
            if b.depart_s < a.arrive_s:
                raise ValueError("trips overlap or are out of order")

    def location(self, t: float) -> str:
        i = bisect.bisect_right(self._departs, t) - 1
        if i < 0:
            return HOME
        tr = self.trips[i]
        if t < tr.arrive_s:
            return "driving"
        return tr.destination

    def at_home(self, t: float) -> bool:
        return self.location(t) == HOME

    def next_departure(self, t: float) -> float:
        i = bisect.bisect_right(self._departs, t)
        return self._departs[i] if i < len(self._departs) else float("inf")

    def driving_kwh(self, t: float, dt: float, kwh_per_km: float) -> float:
        """Driving energy consumed during [t, t+dt), apportioned by overlap."""
        total = 0.0
        j = bisect.bisect_right(self._departs, t + dt) - 1
        while j >= 0:
            tr = self.trips[j]
            if tr.arrive_s <= t:
                break
            overlap = min(tr.arrive_s, t + dt) - max(tr.depart_s, t)
            if overlap > 0:
                duration = tr.arrive_s - tr.depart_s
                total += tr.distance_km * kwh_per_km * overlap / duration
            j -= 1
        return total


def generate_itinerary(profile: str, rng: np.random.Generator,
                       days: int, speed_kmh: float = 30.0) -> Itinerary:
    """Deterministic synthetic mobility trace for one EV."""
    if days < 1:
        raise ValueError("days must be >= 1")
    trips: list[Trip] = []
    for d in range(days):
        day0 = d * DAY_S
        if profile == "worker":
            depart = day0 + (8.75 + rng.uniform(-0.75, 0.75)) * 3600.0
            dist = rng.uniform(10.0, 30.0)
            dur = dist / speed_kmh * 3600.0
            trips.append(Trip(depart, depart + dur, dist, WORK))
            ret = day0 + (17.5 + rng.uniform(-1.0, 1.0)) * 3600.0
            ret = max(ret, depart + dur + 600.0)
            trips.append(Trip(ret, ret + dur, dist, HOME))
        elif profile == "unemployed":
            for _ in range(int(rng.integers(0, 3))):
                depart = day0 + rng.uniform(9.0, 17.0) * 3600.0
                dist = rng.uniform(2.0, 10.0)
                dur = dist / speed_kmh * 3600.0
                dwell = rng.uniform(0.5, 2.0) * 3600.0
                trips.append(Trip(depart, depart + dur, dist, OTHER))
                trips.append(Trip(depart + dur + dwell,
                                  depart + 2 * dur + dwell, dist, HOME))
        else:
            raise ValueError(f"unknown profile {profile!r}")
    trips.sort(key=lambda tr: tr.depart_s)
    # drop trips that overlap an earlier one (possible for unemployed)
    cleaned: list[Trip] = []
    for tr in trips:
        if cleaned and tr.depart_s < cleaned[-1].arrive_s:
            continue
        cleaned.append(tr)
    return Itinerary(profile, cleaned)


@dataclass
class EvState:
    soc: float
    commanded_load_w: float = 0.0
    clamp_events: int = 0

    def __post_init__(self):
        if not 0.0 <= self.soc <= 1.0:
            raise ValueError("soc must be within [0, 1]")


def step_battery(state: EvState, itinerary: Itinerary, model: EvModel,
                 t: float, dt: float, eta_c: float = 0.95,
                 eta_d: float = 0.95) -> EvState:
    """Advance SoC over [t, t+dt) under driving and the commanded load.

    Charging delivers eta_c of the metered energy into the pack;
    discharging draws 1/eta_d of the metered energy from the pack.
    Excess commands that would push SoC outside [0, 1] are discarded
    and counted as clamp events. Returns a new state and never mutates
    `state`.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    cap = model.battery_capacity_kwh
    energy = state.soc * cap
    energy -= itinerary.driving_kwh(t, dt, model.drive_consumption_kwh_per_km)
    clamps = state.clamp_events
    command = state.commanded_load_w
    if command != 0.0 and itinerary.at_home(t):
        load_kw = command / 1000.0
        hours = dt / 3600.0
        if load_kw > 0:
            energy += load_kw * hours * eta_c
        else:
            energy -= (-load_kw) * hours / eta_d
    clamped = min(max(energy, 0.0), cap)
    if abs(clamped - energy) > 1e-12:
        clamps += 1
    return EvState(clamped / cap, command, clamps)


def load_range(state: EvState, itinerary: Itinerary, model: EvModel,
               t: float, t_market: float) -> tuple[float, float]:
    """Admissible (load_min, load_max) in W for the round starting at t.

    Away from home, or departing before the round ends: no load changes.
    SoC gates: >90% discharge only; 30-90% both; 20-30% charge only;
    <20% forced charge at the maximum rate.
    """
    if not itinerary.at_home(t) or itinerary.next_departure(t) < t + t_market:
        return (0.0, 0.0)
    soc = state.soc
    if soc > 0.90:
        return (-model.max_discharge_w, 0.0)
    if soc >= 0.30:
        return (-model.max_discharge_w, model.max_charge_w)
    if soc >= 0.20:
        return (0.0, model.max_charge_w)
    return (model.max_charge_w, model.max_charge_w)


class Ev:
    def __init__(self, model: EvModel, itinerary: Itinerary, state: EvState):
        self.model = model
        self.itinerary = itinerary
        self.state = state


def build_fleet(cfg, rng: np.random.Generator) -> list[Ev]:
    """Assemble the EV fleet per the config: worker/unemployed mix and
    alternating car models."""
    models = default_models(cfg.ev_charger_kw, cfg.ev_drive_kwh_per_km)
    n_workers = int(round(cfg.n_ev * cfg.ev_worker_ratio))
    fleet = []
    lo, hi = cfg.ev_initial_soc_range
    for j in range(cfg.n_ev):
        profile = "worker" if j < n_workers else "unemployed"
        itinerary = generate_itinerary(profile, rng, cfg.days,
                                       cfg.ev_speed_kmh)
        model = models[j % len(models)]
        state = EvState(soc=rng.uniform(lo, hi))
        fleet.append(Ev(model, itinerary, state))
    return fleet


class EvFederate:
    """Steps every EV battery and publishes the fleet's admissible load
    ranges, SoCs and next departures, one tuple each in EV order."""

    def __init__(self, fleet: list[Ev], step_s: float, t_market_s: float,
                 eta_c: float = 0.95, eta_d: float = 0.95):
        self.fleet = fleet
        self.step_s = step_s
        self.t_market_s = t_market_s
        self.steps_per_round = int(round(t_market_s / step_s))
        self.eta_c = eta_c
        self.eta_d = eta_d
        self.range_violations = 0
        self.soc_min_seen = 1.0
        self.soc_max_seen = 0.0
        # range active for the current dispatch window vs the one just
        # published for the next round
        self._active = ((0.0, 0.0),) * len(fleet)
        self._pending = self._active
        self._no_dispatch = (0.0,) * len(fleet)
        self._window = 0

    def __call__(self, ctx) -> None:
        k = int(round(ctx.t / self.step_s))
        window = max((k - 1) // self.steps_per_round, 0)
        if window != self._window:
            self._window = window
            self._active = self._pending
        loads = ctx.read("dispatch/ev_load_w", self._no_dispatch)
        t, step_s, eta_c, eta_d = ctx.t, self.step_s, self.eta_c, self.eta_d
        soc_min, soc_max = self.soc_min_seen, self.soc_max_seen
        for ev, cmd, (lo, hi) in zip(self.fleet, loads, self._active,
                                     strict=True):
            if cmd < lo - 0.5 or cmd > hi + 0.5:
                self.range_violations += 1
                cmd = min(max(cmd, lo), hi)
            state = ev.state
            state.commanded_load_w = cmd
            state = ev.state = step_battery(state, ev.itinerary, ev.model, t,
                                            step_s, eta_c, eta_d)
            soc = state.soc
            if soc < soc_min:
                soc_min = soc
            if soc > soc_max:
                soc_max = soc
        self.soc_min_seen, self.soc_max_seen = soc_min, soc_max

        if (k + 1) % self.steps_per_round == 0:
            next_round = (k + 1) // self.steps_per_round
            window_start = next_round * self.t_market_s + self.step_s
            fleet = self.fleet
            self._pending = tuple(
                load_range(ev.state, ev.itinerary, ev.model, window_start,
                           self.t_market_s) for ev in fleet)
            ctx.publish("evs/load_range_w", self._pending)
            ctx.publish("evs/soc", tuple(ev.state.soc for ev in fleet))
            ctx.publish("evs/next_depart_s", tuple(
                ev.itinerary.next_departure(window_start) for ev in fleet))
