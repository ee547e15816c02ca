"""Pass prediction: crossing refinement, culmination, profile sampling."""
from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import qkdpass.orbit_dynamics.frames as frames
import qkdpass.orbit_dynamics.passes as passes
import qkdpass.orbit_dynamics.sgp4 as sgp4
from qkdpass.errors import ProfileGap
from qkdpass.orbit_dynamics import (EARTH_RADIUS_KM, GroundSite, Sgp4Propagator,
                                    eci_to_topocentric, julian_date, make_tle,
                                    max_angular_rates, predict_passes, sample_pass)
from conftest import EPOCH, SITE, zenith_tle
from pass_reference import unscreened_passes


def elevation(tle, t):
    return eci_to_topocentric(*Sgp4Propagator(tle).propagate(t), SITE, t).elevation_deg


def test_zenith_pass_found(zenith_pass):
    tle, window = zenith_pass
    assert window.max_elevation_deg > 75.0
    assert 350.0 < window.duration_s < 650.0
    assert window.aos < window.tca < window.los


def test_aos_los_sit_at_threshold(zenith_pass):
    tle, window = zenith_pass
    for t in (window.aos, window.los):
        el = elevation(tle, t)
        # bisection tolerance is 0.1 s; elevation moves well under
        # 0.1 deg in that time at threshold crossing
        assert el == pytest.approx(window.min_elevation_deg, abs=0.05)


def test_tca_is_local_maximum(zenith_pass):
    tle, window = zenith_pass
    at_tca = elevation(tle, window.tca)
    before = elevation(tle, window.tca - timedelta(seconds=20))
    after = elevation(tle, window.tca + timedelta(seconds=20))
    assert at_tca >= before
    assert at_tca >= after
    assert at_tca == pytest.approx(window.max_elevation_deg, abs=1e-6)


def test_min_elevation_ninety_yields_nothing(zenith_pass):
    tle, _ = zenith_pass
    assert predict_passes(tle, SITE, EPOCH, EPOCH + timedelta(hours=2), 90.0) == []


def test_higher_threshold_shorter_pass(zenith_pass):
    tle, window = zenith_pass
    high = predict_passes(tle, SITE, EPOCH, EPOCH + timedelta(hours=2), 30.0)
    assert len(high) == 1
    assert high[0].duration_s < window.duration_s
    assert high[0].aos > window.aos
    assert high[0].los < window.los


def test_search_window_validation(zenith_pass):
    tle, _ = zenith_pass
    with pytest.raises(ValueError):
        predict_passes(tle, SITE, EPOCH, EPOCH)
    with pytest.raises(ValueError):
        predict_passes(tle, SITE, EPOCH, EPOCH + timedelta(days=8))


def test_passes_sorted_and_disjoint(zenith_pass):
    tle, _ = zenith_pass
    windows = predict_passes(tle, SITE, EPOCH, EPOCH + timedelta(hours=24))
    assert len(windows) >= 2
    for a, b in zip(windows, windows[1:]):
        assert a.los < b.aos


def test_profile_grid(zenith_profile):
    profile = zenith_profile
    assert profile.times_s[0] == 0.0
    assert profile.times_s[-1] == pytest.approx(profile.duration_s)
    steps = np.diff(profile.times_s)
    assert np.all(steps > 0.0)
    assert np.all(steps <= profile.step_s + 1e-9)
    assert profile.elevation_deg.min() >= profile.elevation_deg[0] - 0.1


def test_profile_interpolation_matches_nodes(zenith_profile):
    profile = zenith_profile
    t = profile.times_s[5]
    assert profile.elevation_at(t).item() == pytest.approx(profile.elevation_deg[5])
    mid = 0.5 * (profile.times_s[5] + profile.times_s[6])
    lo, hi = sorted((profile.elevation_deg[5], profile.elevation_deg[6]))
    assert lo <= profile.elevation_at(mid).item() <= hi


def test_profile_rejects_queries_outside_pass(zenith_profile):
    with pytest.raises(ProfileGap):
        zenith_profile.elevation_at(-5.0)
    with pytest.raises(ProfileGap):
        zenith_profile.elevation_at(zenith_profile.duration_s + 5.0)


def test_range_minimum_near_tca(zenith_pass, zenith_profile):
    _, window = zenith_pass
    profile = zenith_profile
    tca_rel = (window.tca - window.aos).total_seconds()
    t_min = profile.times_s[np.argmin(profile.range_km)]
    assert abs(t_min - tca_rel) < 5.0


def test_max_angular_rate_overhead(zenith_pass):
    tle, window = zenith_pass
    (fine,) = max_angular_rates([window], tle, SITE)
    assert 0.7 <= fine <= 1.1
    (coarse,) = max_angular_rates([window], tle, SITE, step_s=2.0)
    assert coarse == pytest.approx(fine, rel=0.02)


@pytest.mark.parametrize("step_s", [1.0, 2.0])
@pytest.mark.parametrize("inclination", [90.0, 51.6, 97.5])
def test_max_angular_rates_match_each_profile(inclination, step_s):
    """One propagation for every pass gives each pass's profile maximum bit for bit."""
    tle = zenith_tle(inclination=inclination)
    windows = predict_passes(tle, SITE, EPOCH, EPOCH + timedelta(hours=48))
    assert len(windows) >= 3
    expected = [sample_pass(tle, SITE, w, step_s).angular_rate_dps.max() for w in windows]
    assert max_angular_rates(windows, tle, SITE, step_s).tobytes() == \
        np.array(expected).tobytes()


def test_max_angular_rates_of_no_passes():
    rates = max_angular_rates([], zenith_tle(), SITE)
    assert rates.shape == (0,) and rates.dtype == float


def test_lower_mean_motion_longer_pass(zenith_pass):
    _, window = zenith_pass
    slow = zenith_tle(mean_motion=14.5)
    slow_windows = predict_passes(slow, SITE, EPOCH, EPOCH + timedelta(hours=3))
    assert slow_windows
    # higher orbit moves slower across the sky and stays up longer
    best = max(slow_windows, key=lambda w: w.max_elevation_deg)
    assert best.duration_s > window.duration_s


@pytest.mark.parametrize("inclination", ["90.0", "51.6", "97.5"])
def test_golden_pass_table(inclination):
    """48 h of passes reproduce the table recorded with the per-sample search."""
    golden = json.loads((Path(__file__).parent / "golden_passes.json").read_text())
    windows = predict_passes(zenith_tle(inclination=float(inclination)), SITE, EPOCH,
                             EPOCH + timedelta(hours=48))
    expected = golden[inclination]
    assert [(w.aos.isoformat(), w.tca.isoformat(), w.los.isoformat()) for w in windows] == \
        [(row["aos"], row["tca"], row["los"]) for row in expected]
    for w, row in zip(windows, expected):
        assert w.max_elevation_deg == pytest.approx(row["max_elevation_deg"], rel=1e-12, abs=0.0)


def _semi_major_axis_km(mean_motion: float) -> float:
    """Two-body semi-major axis for a mean motion in rev/day."""
    n_rad_s = mean_motion * 2.0 * np.pi / 86400.0
    return (sgp4.MU_KM3_S2 / n_rad_s ** 2) ** (1.0 / 3.0)


def _random_search(rng):
    """A seeded search: any near-Earth orbit, eccentric up to 0.3 where its
    perigee stays above about 150 km, any site, mask and span."""
    mean_motion = rng.uniform(6.5, 16.3)
    perigee_limit = 1.0 - (EARTH_RADIUS_KM + 150.0) / _semi_major_axis_km(mean_motion)
    tle = make_tle(epoch=EPOCH, inclination=rng.uniform(0.0, 180.0),
                   raan=rng.uniform(0.0, 360.0),
                   eccentricity=rng.uniform(0.0, min(0.3, max(perigee_limit, 0.0))),
                   arg_perigee=rng.uniform(0.0, 360.0), mean_anomaly=rng.uniform(0.0, 360.0),
                   mean_motion=mean_motion, bstar=rng.uniform(0.0, 1e-4))
    site = GroundSite(latitude_deg=rng.uniform(-89.0, 89.0),
                      longitude_deg=rng.uniform(-180.0, 180.0),
                      altitude_m=rng.uniform(0.0, 3000.0))
    start = EPOCH + timedelta(hours=rng.uniform(0.0, 24.0))
    end = start + timedelta(hours=rng.uniform(1.0, 168.0))
    return tle, site, start, end, rng.uniform(0.5, 85.0)


@pytest.mark.parametrize("seed", range(4))
def test_screened_search_matches_unscreened(seed):
    """AOS, TCA, LOS and peak elevation, bit for bit, over random orbits,
    sites, masks and spans: some spans hold no sample near the mask."""
    rng = np.random.default_rng(seed)
    for _ in range(12):
        case = _random_search(rng)
        assert predict_passes(*case) == unscreened_passes(*case)


@pytest.mark.parametrize("tle, site, hours", [
    # an equatorial orbit from a polar site: always far below the horizon
    (zenith_tle(inclination=0.0), GroundSite(latitude_deg=89.0, longitude_deg=0.0), 0),
    # the zenith pass's orbit, between two passes
    (zenith_tle(), SITE, 4),
])
def test_screen_propagates_only_the_sparse_grid_far_from_the_mask(
        tle, site, hours, conversions):
    start = EPOCH + timedelta(hours=hours)
    end = start + timedelta(hours=1)
    assert predict_passes(tle, site, start, end) == []
    # 121 coarse samples: every 8th from 0 to 112, and the last
    assert conversions["instants"] == 16
    assert unscreened_passes(tle, site, start, end) == []


@pytest.mark.parametrize("inclination", [0.0, 90.0, 135.0])
@pytest.mark.parametrize("mean_motion, perigee_km", [
    (6.41, 100.0),        # a 225-min period, perigee about 100 km up
    (1440.0 / 87.0, None),  # an 87-min circular orbit
])
def test_earth_fixed_speed_stays_under_the_screen_bound(inclination, mean_motion, perigee_km):
    """|v| + omega_E |r| bounds the speed relative to the site; a week of
    SGP4 on a 10 s grid stays below the constant the screen assumes."""
    eccentricity = 0.0001 if perigee_km is None else \
        1.0 - (EARTH_RADIUS_KM + perigee_km) / _semi_major_axis_km(mean_motion)
    tle = make_tle(epoch=EPOCH, inclination=inclination, eccentricity=eccentricity,
                   mean_motion=mean_motion)
    r, v = Sgp4Propagator(tle).propagate_minutes(np.arange(7 * 1440 * 6 + 1) / 6.0)
    speed = np.linalg.norm(v, axis=-1) + 7.292115e-5 * np.linalg.norm(r, axis=-1)
    assert 8.0 < speed.max() < passes.MAX_EARTH_FIXED_SPEED_KMS


@pytest.fixture
def conversions(monkeypatch):
    """Count datetimes converted to Julian dates and instants propagated."""
    tally = {"datetimes": 0, "instants": 0}
    original_jd, original_propagate = sgp4.julian_date, Sgp4Propagator.propagate

    def counting_jd(t):
        tally["datetimes"] += isinstance(t, datetime)
        return original_jd(t)

    def counting_propagate(self, t):
        tally["instants"] += 1 if isinstance(t, (datetime, float)) else len(t)
        return original_propagate(self, t)

    for module in (sgp4, frames, passes):  # the per-datetime recursion resolves sgp4's name
        monkeypatch.setattr(module, "julian_date", counting_jd, raising=False)
    monkeypatch.setattr(Sgp4Propagator, "propagate", counting_propagate)
    return tally


def test_predict_passes_converts_each_instant_once(conversions):
    windows = predict_passes(zenith_tle(), SITE, EPOCH, EPOCH + timedelta(hours=12))
    # propagation is counted, and the screen skips part of the 1,441-sample grid
    assert windows and 0 < conversions["instants"] < 1441
    # instants convert once, as arrays; the element-set epoch is the only datetime
    assert conversions["datetimes"] == 1


def test_sample_pass_converts_each_instant_once(zenith_pass, conversions):
    tle, window = zenith_pass
    profile = sample_pass(tle, SITE, window, step_s=1.0)
    assert conversions["instants"] == len(profile.times_s)
    assert conversions["datetimes"] == 1


def test_max_angular_rates_propagate_once(conversions):
    tle = zenith_tle()
    windows = predict_passes(tle, SITE, EPOCH, EPOCH + timedelta(hours=24))
    conversions.update(datetimes=0, instants=0)
    max_angular_rates(windows, tle, SITE)
    assert conversions["instants"] == sum(
        int(np.ceil(w.duration_s)) + 1 for w in windows)
    assert conversions["datetimes"] == 1


def test_sample_pass_jd_is_each_sample_instant(zenith_pass, zenith_profile):
    _, window = zenith_pass
    stamps = [window.aos + timedelta(seconds=float(ts)) for ts in zenith_profile.times_s]
    assert np.array_equal(zenith_profile.jd, julian_date(stamps))


@pytest.mark.parametrize("start", [
    datetime(2024, 2, 28, 23, 59, 59, 999_999),
    datetime(2024, 2, 28, 23, 59, 59, 999_999, tzinfo=timezone.utc),
    datetime(2023, 12, 31, 23, 59, 30, tzinfo=timezone(timedelta(hours=8))),
])
def test_julian_dates_us_match_each_datetime(start):
    """Offsets across a leap day, month ends and a year end, and sample-grid fractions."""
    days = np.arange(-3, 370) * 86_400_000_000
    offsets = np.concatenate([
        np.add.outer(days, [0, 1, 499_999, 999_999, 3_599_999_999]).ravel(),
        passes._seconds_to_us(np.minimum(np.arange(700) * 0.7, 483.123456789)),
        passes._seconds_to_us(np.arange(400) * 0.1 + 1e-7),
    ])
    stamps = [start + timedelta(microseconds=int(k)) for k in offsets]
    assert {(t.month, t.day) for t in stamps} >= {(2, 29), (3, 1), (12, 31), (1, 1)}
    assert sgp4.julian_dates_us(start, offsets).tobytes() == julian_date(stamps).tobytes()


def test_seconds_to_us_rounds_as_timedelta():
    seconds = np.concatenate([np.arange(2000) * 0.1, np.arange(2000) * 0.7,
                              np.arange(2000) * 1e-7, [0.5e-6, 1.5e-6, 2.5e-6, 483.0000005]])
    expected = [timedelta(seconds=float(s)) // timedelta(microseconds=1) for s in seconds]
    assert passes._seconds_to_us(seconds).tolist() == expected
