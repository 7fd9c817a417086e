"""Synthetic and CSV-backed weather profiles."""

import bisect
import math
import random
import struct

import pytest

from petgrid import household
from petgrid.weather import (CsvWeather, DAY_S, SyntheticWeather,
                             diurnal_wave, interp)

H = 3600.0


@pytest.fixture
def synth():
    return SyntheticWeather(temp_min_c=23.0, temp_max_c=35.0)


def test_irradiance_zero_at_night(synth):
    assert synth.irradiance_frac(3 * H) == 0.0
    assert synth.irradiance_frac(22 * H) == 0.0


def test_irradiance_peak_at_noon(synth):
    assert synth.irradiance_frac(12 * H) == pytest.approx(1.0)


def test_irradiance_zero_outside_daylight_window(synth):
    for hour in [0.0, 6.0, 6.5, 21.5, 23.0]:
        assert synth.irradiance_frac(hour * H) == 0.0
    assert synth.irradiance_frac(7 * H) > 0.0
    assert synth.irradiance_frac(21 * H) > 0.0


def test_irradiance_unimodal_with_noon_peak(synth):
    values = [synth.irradiance_frac(h * H) for h in
              [x / 4 for x in range(0, 96)]]
    peak = max(range(len(values)), key=values.__getitem__)
    assert peak * 0.25 == 12.0
    rising = values[28:48]   # 07:00 .. 12:00
    falling = values[48:84]  # 12:00 .. 21:00
    assert all(b >= a for a, b in zip(rising, rising[1:]))
    assert all(b <= a for a, b in zip(falling, falling[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_temperature_extremes_at_configured_hours(synth):
    # DERIVED oracle: evaluating the configured diurnal curve at its
    # peak hour must hit the configured daily maximum exactly.
    assert synth.temp(15 * H) == pytest.approx(35.0)
    assert synth.temp(6 * H) == pytest.approx(23.0)
    samples = [synth.temp(h * H) for h in [x / 4 for x in range(96)]]
    assert max(samples) == pytest.approx(35.0)
    assert min(samples) == pytest.approx(23.0)


def test_temperature_is_24h_periodic(synth):
    for hour in [0.0, 5.5, 12.0, 18.25]:
        assert synth.temp(hour * H) == pytest.approx(
            synth.temp(hour * H + 3 * DAY_S))


def test_diurnal_wave_hits_extremes():
    assert diurnal_wave(4.0, 4.0, 18.0, -1.0, 1.0) == pytest.approx(-1.0)
    assert diurnal_wave(18.0, 4.0, 18.0, -1.0, 1.0) == pytest.approx(1.0)


def test_each_half_cosine_is_halfway_at_its_midpoint(synth):
    # a 14 h rise from 04:00 and a 10 h fall from 18:00, repeating daily
    for hour in (11.0, 23.0):
        assert diurnal_wave(hour, 4.0, 18.0, -1.0, 1.0) == pytest.approx(
            0.0, abs=1e-12)
    for hour in (1.0, 11.0, 23.0):
        assert diurnal_wave(hour + 48.0, 4.0, 18.0, -1.0, 1.0) == \
            pytest.approx(diurnal_wave(hour, 4.0, 18.0, -1.0, 1.0))
    # irradiance rises over 06:30-12:00 and falls over 12:00-21:30
    for hour in (9.25, 16.75):
        assert synth.irradiance_frac(hour * H) == pytest.approx(0.5)


def test_diurnal_wave_monotone_between_extremes():
    rising = [diurnal_wave(h, 4.0, 18.0, 0.0, 1.0)
              for h in [4 + i * 0.5 for i in range(29)]]
    assert all(b >= a for a, b in zip(rising, rising[1:]))


def _write_csv(tmp_path, rows, header="timestamp,temp_c,irradiance_wm2"):
    path = tmp_path / "weather.csv"
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def test_csv_midpoint_interpolation(tmp_path):
    path = _write_csv(tmp_path, ["00:00,10,0", "01:00,12,0"])
    profile = CsvWeather.from_csv(path, 1000.0)
    assert profile.sample(1800.0).temp_c == pytest.approx(11.0)


def test_csv_irradiance_clamped_by_rating(tmp_path):
    path = _write_csv(tmp_path, ["0,20,1500", "3600,20,500"])
    profile = CsvWeather.from_csv(path, rated_irradiance_wm2=1000.0)
    assert profile.sample(0.0).irradiance_frac == 1.0
    assert profile.sample(3600.0).irradiance_frac == pytest.approx(0.5)


def test_csv_missing_column_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,temp_c\n0,20\n")
    with pytest.raises(ValueError, match="irradiance_wm2"):
        CsvWeather.from_csv(path, 1000.0)


def test_csv_non_monotonic_timestamps_rejected_with_row(tmp_path):
    path = _write_csv(tmp_path, ["0,20,0", "3600,21,0", "1800,22,0"])
    with pytest.raises(ValueError, match="row 4"):
        CsvWeather.from_csv(path, 1000.0)


def test_csv_repeated_timestamp_rejected_with_row(tmp_path):
    # two samples at one time would make a segment of zero width
    path = _write_csv(tmp_path, ["0,20,0", "3600,21,0", "3600,22,0"])
    with pytest.raises(ValueError, match="row 4"):
        CsvWeather.from_csv(path, 1000.0)


def test_csv_bad_value_names_row(tmp_path):
    path = _write_csv(tmp_path, ["0,20,0", "3600,warm,0"])
    with pytest.raises(ValueError, match="row 3"):
        CsvWeather.from_csv(path, 1000.0)


@pytest.mark.parametrize("row", ["3600,nan,0", "3600,21,nan", "3600,21,inf",
                                 "nan,21,0"])
def test_csv_non_finite_value_names_row(tmp_path, row):
    path = _write_csv(tmp_path, ["0,20,0", row])
    with pytest.raises(ValueError, match="row 3: .* must be finite"):
        CsvWeather.from_csv(path, 1000.0)


def test_csv_empty_file_rejected(tmp_path):
    path = _write_csv(tmp_path, [])
    with pytest.raises(ValueError, match="no samples"):
        CsvWeather.from_csv(path, 1000.0)


def test_csv_hhmmss_timestamps(tmp_path):
    path = _write_csv(tmp_path, ["00:00:00,10,0", "00:30:00,11,0"])
    profile = CsvWeather.from_csv(path, 1000.0)
    assert profile.sample(900.0).temp_c == pytest.approx(10.5)


def test_csv_out_of_range_wraps_by_day_with_warning(tmp_path, caplog):
    rows = [f"{h * 3600},{20 + h},0" for h in range(25)]
    path = _write_csv(tmp_path, rows)
    profile = CsvWeather.from_csv(path, 1000.0)
    with caplog.at_level("WARNING"):
        beyond = profile.sample(DAY_S + 7200.0)
        # the period ends where the next starts, not at the 24:00 sample
        assert profile.sample(DAY_S).temp_c == 20.0
    assert beyond.temp_c == pytest.approx(profile.sample(7200.0).temp_c)
    assert any("period [0, 86400); wrapping" in rec.message
               for rec in caplog.records)


def test_csv_day_interpolates_across_midnight(tmp_path, caplog):
    """A day of hourly samples repeats daily: 23:00-24:00 interpolates
    from the 23:00 sample toward the next 00:00, with no warning before
    the second day starts."""
    rows = [f"{h * 3600},{20 + h},0" for h in range(24)]
    profile = CsvWeather.from_csv(_write_csv(tmp_path, rows), 1000.0)
    with caplog.at_level("WARNING"):
        assert profile.sample(84600.0).temp_c == 31.5     # 23:30
        assert profile.sample(86399.0).temp_c == pytest.approx(
            43.0 + (20.0 - 43.0) * 3599 / 3600)
        for t in range(0, 86400, 60):
            profile.sample(float(t))
        assert not caplog.records
        assert profile.sample(DAY_S).temp_c == 20.0
        assert profile.sample(DAY_S + 84600.0).temp_c == 31.5
    assert len([rec for rec in caplog.records
                if "wrapping" in rec.message]) == 1


def test_csv_single_sample_is_constant(tmp_path):
    profile = CsvWeather.from_csv(_write_csv(tmp_path, ["3600,25,500"]),
                                  1000.0)
    for t in (0.0, 3600.0, 50000.0, DAY_S + 3600.0):
        assert profile.sample(t) == (25.0, 0.5)


def _segment_blend(xs, vs, h):
    """The household appliance shape's own interpolation, as it was
    written before `interp` replaced it."""
    h = h % 24.0
    i = bisect.bisect_left(xs, h, 1) - 1
    w = (h - xs[i]) / (xs[i + 1] - xs[i])
    return vs[i] * (1 - w) + vs[i + 1] * w


def test_interp_matches_the_appliance_shape_bit_for_bit():
    xs, vs = household._UNRESP_ANCHORS_H, household._UNRESP_ANCHORS_V
    hours = [h for x in xs
             for h in (x, math.nextafter(x, -math.inf),
                       math.nextafter(x, math.inf)) if 0.0 <= h <= 24.0]
    rng = random.Random(20)
    hours += [rng.uniform(0.0, 24.0) for _ in range(20_000)]
    for h in hours:
        assert struct.pack("d", interp(xs, vs, h)) == \
            struct.pack("d", _segment_blend(xs, vs, h)), h


def test_csv_sample_at_each_sample_time_is_that_sample(tmp_path):
    rows = [(0, 26.25, 0.0), (1800, 27.5, 120.0), (5400, 29.0, 640.5),
            (7200, -3.75, 1000.0), (43200, 31.125, 333.0)]
    p = tmp_path / "w.csv"
    p.write_text("timestamp,temp_c,irradiance_wm2\n"
                 + "".join(f"{t},{c},{i}\n" for t, c, i in rows))
    w = CsvWeather.from_csv(p, 1000.0)
    for t, temp, wm2 in rows:
        assert w.sample(float(t)) == (temp, wm2 / 1000.0)
