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
import logging
import math
from dataclasses import dataclass

log = logging.getLogger(__name__)

DAY_S = 86400.0


@dataclass(frozen=True)
class WeatherSample:
    t: float
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
    """Deterministic synthetic weather profile."""

    def __init__(self, temp_min_c: float = 23.0, temp_max_c: float = 35.0,
                 temp_trough_h: float = 6.0, temp_peak_h: float = 15.0,
                 sunrise_h: float = 6.5, sunset_h: float = 21.5,
                 solar_peak_h: float = 12.0):
        self.temp_min_c = temp_min_c
        self.temp_max_c = temp_max_c
        self.temp_trough_h = temp_trough_h
        self.temp_peak_h = temp_peak_h
        self.sunrise_h = sunrise_h
        self.sunset_h = sunset_h
        self.solar_peak_h = solar_peak_h

    def temp(self, t: float) -> float:
        hour = (t % DAY_S) / 3600.0
        return diurnal_wave(hour, self.temp_trough_h, self.temp_peak_h,
                            self.temp_min_c, self.temp_max_c)

    def irradiance_frac(self, t: float) -> float:
        hour = (t % DAY_S) / 3600.0
        if hour <= self.sunrise_h or hour >= self.sunset_h:
            return 0.0
        if hour <= self.solar_peak_h:
            phase = (hour - self.sunrise_h) / (self.solar_peak_h - self.sunrise_h)
        else:
            phase = (self.sunset_h - hour) / (self.sunset_h - self.solar_peak_h)
        return 0.5 * (1.0 - math.cos(math.pi * phase))

    def sample(self, t: float) -> WeatherSample:
        if t < 0:
            raise ValueError("t must be non-negative")
        return WeatherSample(t, self.temp(t), self.irradiance_frac(t))


class CsvWeather:
    """Weather profile interpolated from a CSV file.

    Expected columns: timestamp (seconds or HH:MM[:SS]), temp_c,
    irradiance_wm2. Irradiance is normalized by the rated irradiance and
    clamped to [0, 1]. Sampling beyond the file's range wraps by
    day-of-data with a logged warning.
    """

    def __init__(self, times_s, temps_c, irradiance_frac):
        if len(times_s) == 0:
            raise ValueError("weather CSV contains no samples")
        self.times = list(times_s)
        self.temps = list(temps_c)
        self.fracs = list(irradiance_frac)
        self._warned_wrap = False

    @classmethod
    def from_csv(cls, path, rated_irradiance_wm2: float = 1000.0) -> "CsvWeather":
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
                if times and t <= times[-1]:
                    raise ValueError(
                        f"weather CSV row {i}: non-monotonic timestamp {t}"
                    )
                times.append(t)
                temps.append(temp)
                fracs.append(min(max(wm2 / rated_irradiance_wm2, 0.0), 1.0))
        return cls(times, temps, fracs)

    def sample(self, t: float) -> WeatherSample:
        if t < 0:
            raise ValueError("t must be non-negative")
        query = t
        span_start, span_end = self.times[0], self.times[-1]
        if query > span_end or query < span_start:
            if not self._warned_wrap:
                log.warning(
                    "weather sample t=%.0fs outside CSV range "
                    "[%.0f, %.0f]; wrapping by day-of-data",
                    t, span_start, span_end,
                )
                self._warned_wrap = True
            query = span_start + (query - span_start) % max(
                DAY_S, span_end - span_start
            )
            query = min(max(query, span_start), span_end)
        i = bisect.bisect_right(self.times, query)
        if i == 0:
            return WeatherSample(t, self.temps[0], self.fracs[0])
        if i >= len(self.times):
            return WeatherSample(t, self.temps[-1], self.fracs[-1])
        t0, t1 = self.times[i - 1], self.times[i]
        w = (query - t0) / (t1 - t0)
        temp = self.temps[i - 1] * (1 - w) + self.temps[i] * w
        frac = self.fracs[i - 1] * (1 - w) + self.fracs[i] * w
        return WeatherSample(t, temp, frac)


def _parse_timestamp(text: str) -> float:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad timestamp {text!r}")
        h, m = int(parts[0]), int(parts[1])
        s = int(parts[2]) if len(parts) == 3 else 0
        return h * 3600.0 + m * 60.0 + s
    return float(text)


class WeatherFederate:
    """Publishes the outdoor temperature onto the federation bus each step."""

    def __init__(self, profile):
        self.profile = profile

    def __call__(self, ctx) -> None:
        ctx.publish("weather/temp_c", self.profile.sample(ctx.t).temp_c)
