"""Synthetic and CSV-backed weather profiles."""

import math

import pytest

from petgrid.weather import CsvWeather, DAY_S, SyntheticWeather, diurnal_wave

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


def test_negative_time_rejected(synth):
    with pytest.raises(ValueError):
        synth.sample(-1.0)


def test_diurnal_wave_hits_extremes():
    assert diurnal_wave(4.0, 4.0, 18.0, -1.0, 1.0) == pytest.approx(-1.0)
    assert diurnal_wave(18.0, 4.0, 18.0, -1.0, 1.0) == pytest.approx(1.0)


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
    profile = CsvWeather.from_csv(path)
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
        CsvWeather.from_csv(path)


def test_csv_non_monotonic_timestamps_rejected_with_row(tmp_path):
    path = _write_csv(tmp_path, ["0,20,0", "3600,21,0", "1800,22,0"])
    with pytest.raises(ValueError, match="row 4"):
        CsvWeather.from_csv(path)


def test_csv_bad_value_names_row(tmp_path):
    path = _write_csv(tmp_path, ["0,20,0", "3600,warm,0"])
    with pytest.raises(ValueError, match="row 3"):
        CsvWeather.from_csv(path)


def test_csv_empty_file_rejected(tmp_path):
    path = _write_csv(tmp_path, [])
    with pytest.raises(ValueError, match="no samples"):
        CsvWeather.from_csv(path)


def test_csv_hhmmss_timestamps(tmp_path):
    path = _write_csv(tmp_path, ["00:00:00,10,0", "00:30:00,11,0"])
    profile = CsvWeather.from_csv(path)
    assert profile.sample(900.0).temp_c == pytest.approx(10.5)


def test_csv_out_of_range_wraps_by_day_with_warning(tmp_path, caplog):
    rows = [f"{h * 3600},{20 + h},0" for h in range(25)]
    path = _write_csv(tmp_path, rows)
    profile = CsvWeather.from_csv(path)
    with caplog.at_level("WARNING"):
        beyond = profile.sample(DAY_S + 7200.0)
    assert beyond.temp_c == pytest.approx(profile.sample(7200.0).temp_c)
    assert any("wrapping" in rec.message for rec in caplog.records)


def test_csv_negative_time_rejected(tmp_path):
    path = _write_csv(tmp_path, ["0,20,0", "3600,21,0"])
    with pytest.raises(ValueError):
        CsvWeather.from_csv(path).sample(-5.0)
