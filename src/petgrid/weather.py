"""Outdoor temperature and solar irradiance time series.

Default mode is a synthetic hot-climate profile: temperature is a 24 h
periodic curve with its minimum at 06:00 and maximum at 15:00, and
irradiance fraction is a clamped raised cosine over [06:30, 21:30]
peaking at 12:00. A CSV-backed profile can be used instead; irradiance
columns are normalized by the rated panel-plane irradiance.
"""

from __future__ import annotations

import bisect
import csv
import math
from typing import NamedTuple

DAY_S = 86400.0
# the outdoor temperatures a profile may give, °C: from absolute zero up to
# a cap that keeps every zone temperature's squared excess finite
TEMP_MIN_C, TEMP_MAX_C = -273.15, 1e6


def interp(xs, ys, x: float) -> float:
    """The piecewise-linear curve through (xs, ys), xs increasing, at x
    within [xs[0], xs[-1]]; at each xs[k] it is ys[k] exactly."""
    i = bisect.bisect_right(xs, x, 1, len(xs) - 1)
    w = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
    return ys[i - 1] * (1 - w) + ys[i] * w


class WeatherSample(NamedTuple):
    temp_c: float
    irradiance_frac: float


def diurnal_wave(hour: float, trough_h: float, peak_h: float,
                 v_min: float, v_max: float) -> float:
    """Piecewise half-cosine diurnal curve.

    Rises from v_min at trough_h to v_max at peak_h, then falls back to
    v_min at trough_h the next day; the two half-periods may be unequal,
    so the trough and peak hours are free parameters.
    """
    h = hour % 24.0
    rise = (peak_h - trough_h) % 24.0
    fall = 24.0 - rise
    since_trough = (h - trough_h) % 24.0
    if since_trough <= rise:
        phase = since_trough / rise  # 0 at trough, 1 at peak
    else:
        phase = 1.0 - (since_trough - rise) / fall
    return v_min + (v_max - v_min) * 0.5 * (1.0 - math.cos(math.pi * phase))


class SyntheticWeather:
    """Deterministic synthetic weather: the shape the module docstring
    states, between the given temperature extremes."""

    def __init__(self, temp_min_c: float, temp_max_c: float):
        self.temp_min_c = temp_min_c
        self.temp_max_c = temp_max_c

    def temp(self, t: float) -> float:
        hour = (t % DAY_S) / 3600.0
        return diurnal_wave(hour, 6.0, 15.0, self.temp_min_c, self.temp_max_c)

    def irradiance_frac(self, t: float) -> float:
        hour = (t % DAY_S) / 3600.0
        if hour <= 6.5 or hour >= 21.5:
            return 0.0
        if hour <= 12.0:
            phase = (hour - 6.5) / (12.0 - 6.5)
        else:
            phase = (21.5 - hour) / (21.5 - 12.0)
        return 0.5 * (1.0 - math.cos(math.pi * phase))

    def sample(self, t: float) -> WeatherSample:
        return WeatherSample(self.temp(t), self.irradiance_frac(t))


class CsvWeather:
    """Weather profile interpolated from a CSV file.

    Expected columns: timestamp (seconds or HH:MM[:SS]), temp_c,
    irradiance_wm2. Temperatures must lie in [TEMP_MIN_C, TEMP_MAX_C].
    Irradiance is normalized by the rated irradiance and clamped to
    [0, 1]. The data repeat every whole number of days (at least one);
    sampling outside the first period logs a warning.
    """

    def __init__(self, times_s, temps_c, irradiance_frac):
        if len(times_s) == 0:
            raise ValueError("weather CSV contains no samples")
        self.times = list(times_s)
        self.temps = list(temps_c)
        self.fracs = list(irradiance_frac)
        first, span = self.times[0], self.times[-1] - self.times[0]
        self.period = DAY_S * max(math.ceil(span / DAY_S), 1)
        if self.times[-1] < first + self.period:    # no sample there yet
            self.times.append(first + self.period)
            self.temps.append(self.temps[0])
            self.fracs.append(self.fracs[0])
        self._warned_wrap = False

    @classmethod
    def from_csv(cls, path, rated_irradiance_wm2: float) -> "CsvWeather":
        times, temps, fracs = [], [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"timestamp", "temp_c", "irradiance_wm2"}
            fields = set(reader.fieldnames or [])
            missing = required - fields
            if missing:
                raise ValueError(f"weather CSV missing columns: {sorted(missing)}")
            for i, row in enumerate(reader, start=2):
                try:
                    t = _parse_timestamp(row["timestamp"])
                    temp = float(row["temp_c"])
                    wm2 = float(row["irradiance_wm2"])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"weather CSV row {i}: {exc}") from exc
                for name, value in (("timestamp", t), ("temp_c", temp),
                                    ("irradiance_wm2", wm2)):
                    if not math.isfinite(value):
                        raise ValueError(
                            f"weather CSV row {i}: {name} must be finite")
                if not TEMP_MIN_C <= temp <= TEMP_MAX_C:
                    raise ValueError(f"weather CSV row {i}: temp_c must be "
                                     f"within [{TEMP_MIN_C}, {TEMP_MAX_C:g}]")
                if times and t <= times[-1]:
                    raise ValueError(
                        f"weather CSV row {i}: non-monotonic timestamp {t}"
                    )
                times.append(t)
                temps.append(temp)
                fracs.append(min(max(wm2 / rated_irradiance_wm2, 0.0), 1.0))
        return cls(times, temps, fracs)

    def sample(self, t: float) -> WeatherSample:
        first, period = self.times[0], self.period
        if not first <= t < first + period:
            if not self._warned_wrap:
                import logging  # only a wrap needs it; it adds to a run's RSS
                logging.getLogger(__name__).warning(
                    "weather sample t=%.0fs outside CSV period [%.0f, %.0f); "
                    "wrapping by day-of-data", t, first, first + period)
                self._warned_wrap = True
            t = first + (t - first) % period
        # the samples span [first, first + period]: t lies between two
        return WeatherSample(interp(self.times, self.temps, t),
                             interp(self.times, self.fracs, t))


def _parse_timestamp(text: str) -> float:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad timestamp {text!r}")
        return sum(int(p) * f for p, f in zip(parts, (3600.0, 60.0, 1)))
    return float(text)


class WeatherFederate:
    """Publishes the outdoor temperature onto the federation bus each step."""

    def __init__(self, profile):
        self.profile = profile

    def __call__(self, ctx) -> None:
        ctx.publish("weather/temp_c", self.profile.sample(ctx.t).temp_c)
