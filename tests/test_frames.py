"""Ground-site geodesy and topocentric conversion sanity."""
from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from qkdpass.orbit_dynamics import (GroundSite, Sgp4Propagator,
                                    eci_to_topocentric, julian_date,
                                    predict_passes, site_elevation_deg)
from qkdpass.orbit_dynamics.frames import RATE_DELTA_S, _rate_vectors
from qkdpass.orbit_dynamics.sgp4 import gmst_radians
from conftest import EPOCH, SITE, zenith_tle

WGS84_A_KM = 6378.137
WGS84_B_KM = 6356.7523142


def _teme_from_ecef(r_ecef, t):
    """Invert the Earth-rotation used by the frame conversion."""
    theta = gmst_radians(julian_date(t))
    c, s = np.cos(theta), np.sin(theta)
    x, y, z = r_ecef
    return np.array([c * x - s * y, s * x + c * y, z])


def test_site_ecef_equator():
    r = GroundSite(0.0, 0.0, 0.0).ecef_km()
    assert r[0] == pytest.approx(WGS84_A_KM, abs=1e-6)
    assert r[1] == pytest.approx(0.0, abs=1e-9)
    assert r[2] == pytest.approx(0.0, abs=1e-9)


def test_site_ecef_pole():
    r = GroundSite(90.0, 0.0, 0.0).ecef_km()
    assert r[2] == pytest.approx(WGS84_B_KM, abs=1e-4)
    assert np.hypot(r[0], r[1]) < 1e-6


def test_site_altitude_moves_radially():
    lo = GroundSite(47.0, 8.0, 0.0).ecef_km()
    hi = GroundSite(47.0, 8.0, 1000.0).ecef_km()
    assert np.linalg.norm(np.asarray(hi) - np.asarray(lo)) == pytest.approx(1.0, abs=1e-9)


def test_latitude_bounds_rejected():
    with pytest.raises(ValueError):
        GroundSite(95.0, 0.0)


def test_azimuth_north_from_equator():
    site = GroundSite(0.0, 0.0, 0.0)
    ecef = (WGS84_A_KM + 500.0) * np.array(
        [np.cos(np.radians(5.0)), 0.0, np.sin(np.radians(5.0))]
    )
    state = eci_to_topocentric(_teme_from_ecef(ecef, EPOCH), np.zeros(3), site, EPOCH)
    assert state.azimuth_deg == pytest.approx(0.0, abs=0.2) or state.azimuth_deg == pytest.approx(360.0, abs=0.2)
    assert state.elevation_deg > 30.0


def test_azimuth_east_from_equator():
    site = GroundSite(0.0, 0.0, 0.0)
    ecef = (WGS84_A_KM + 500.0) * np.array(
        [np.cos(np.radians(5.0)), np.sin(np.radians(5.0)), 0.0]
    )
    state = eci_to_topocentric(_teme_from_ecef(ecef, EPOCH), np.zeros(3), site, EPOCH)
    assert state.azimuth_deg == pytest.approx(90.0, abs=0.2)


def test_zenith_target_is_vertical():
    ecef_site = SITE.ecef_km()
    ecef = ecef_site + 500.0 * ecef_site / np.linalg.norm(ecef_site)
    state = eci_to_topocentric(_teme_from_ecef(ecef, EPOCH), np.zeros(3), SITE, EPOCH)
    # radial direction from the geocenter is not the ellipsoidal normal,
    # so "straight up" lands close to but not exactly at 90 degrees
    assert state.elevation_deg > 89.0
    assert state.range_km == pytest.approx(500.0, abs=2.0)


def test_topocentric_overhead_is_high_elevation(zenith_pass):
    tle, window = zenith_pass
    prop = Sgp4Propagator(tle)
    r, v = prop.propagate(window.tca)
    state = eci_to_topocentric(r, v, SITE, window.tca)
    assert state.elevation_deg > 75.0
    assert 400.0 < state.range_km < 700.0


def test_topocentric_range_matches_geometry(zenith_pass):
    tle, window = zenith_pass
    t = window.aos + timedelta(seconds=30)
    prop = Sgp4Propagator(tle)
    r, v = prop.propagate(t)
    state = eci_to_topocentric(r, v, SITE, t)
    # range must sit between (altitude) and (horizon slant) bounds
    sat_alt = np.linalg.norm(r) - 6378.137
    assert state.range_km > sat_alt - 20.0
    assert state.range_km < 3500.0


def test_angular_rate_nonnegative(zenith_pass):
    tle, window = zenith_pass
    prop = Sgp4Propagator(tle)
    for seconds in (10.0, 100.0, 200.0):
        t = window.aos + timedelta(seconds=seconds)
        r, v = prop.propagate(t)
        state = eci_to_topocentric(r, v, SITE, t)
        assert state.angular_rate_dps >= 0.0
        assert state.angular_rate_dps < 1.5


def test_angular_rate_matches_long_double_sweep():
    """The sweep angle keeps full precision at the small angles a 0.2 s step spans.

    Reference: the same line-of-sight vectors in long double, with the
    angle from the chord between the unit vectors, 2 asin(|m - p| / 2),
    which is well conditioned for small angles (acos of a cosine near 1
    is not).
    """
    tle = zenith_tle(inclination=51.6)
    prop = Sgp4Propagator(tle)
    stamps = []
    for window in predict_passes(tle, SITE, EPOCH, EPOCH + timedelta(hours=48)):
        n = int(window.duration_s // 5.0) + 1
        stamps += [window.aos + timedelta(seconds=5.0 * k) for k in range(n)]
    r, v = prop.propagate(stamps)
    state = eci_to_topocentric(r, v, SITE, stamps)
    sez_m, sez_p = (np.asarray(x, dtype=np.longdouble)
                    for x in _rate_vectors(r, v, SITE, julian_date(stamps)))
    unit_m = sez_m / np.sqrt(np.sum(sez_m * sez_m, axis=1))[:, np.newaxis]
    unit_p = sez_p / np.sqrt(np.sum(sez_p * sez_p, axis=1))[:, np.newaxis]
    chord = np.sqrt(np.sum((unit_m - unit_p) ** 2, axis=1))
    reference = np.degrees(2.0 * np.arcsin(chord / 2.0)) / (2.0 * RATE_DELTA_S)
    assert len(stamps) > 500
    rel = np.abs(state.angular_rate_dps - reference) / reference
    assert float(np.max(rel)) < 1e-12


def test_julian_dates_give_the_same_fields_as_datetimes(zenith_pass):
    tle, window = zenith_pass
    prop = Sgp4Propagator(tle)
    stamps = [window.aos + timedelta(seconds=7.3 * k) for k in range(50)]
    jd = julian_date(stamps)
    one = float(jd[3])
    assert julian_date(jd) is jd and julian_date(one) is one
    r, v = prop.propagate(stamps)
    r_jd, v_jd = prop.propagate(jd)
    assert np.array_equal(r, r_jd) and np.array_equal(v, v_jd)
    by_time = eci_to_topocentric(r, v, SITE, stamps)
    by_jd = eci_to_topocentric(r, v, SITE, jd)
    for name in ("azimuth_deg", "elevation_deg", "range_km", "angular_rate_dps"):
        assert np.array_equal(getattr(by_time, name), getattr(by_jd, name)), name
    assert np.array_equal(site_elevation_deg(r, SITE, stamps), site_elevation_deg(r, SITE, jd))
    one_time = eci_to_topocentric(r[3], v[3], SITE, stamps[3])
    one_jd = eci_to_topocentric(r[3], v[3], SITE, one)
    assert one_time == one_jd and isinstance(one_jd.elevation_deg, float)
    assert site_elevation_deg(r[3], SITE, stamps[3]) == site_elevation_deg(r[3], SITE, one)
