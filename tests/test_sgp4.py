"""Propagator checks against frozen reference vectors."""
from __future__ import annotations

import warnings
from datetime import timedelta

import numpy as np
import pytest

from qkdpass.errors import (DecayedOrbit, SimulationError, StaleElements,
                            UnsupportedDeepSpace)
from qkdpass.orbit_dynamics import (EARTH_RADIUS_KM, Sgp4Propagator,
                                    gmst_radians, julian_date, make_tle,
                                    parse_tle)
from conftest import EPOCH
from sgp4_vectors import TLES, VECTORS


@pytest.mark.parametrize("key", sorted(VECTORS))
def test_reference_vectors_within_1km(key):
    tle = parse_tle(TLES[key])
    prop = Sgp4Propagator(tle)
    worst = 0.0
    for minutes, r_ref, v_ref in VECTORS[key]:
        t = tle.epoch + timedelta(minutes=minutes)
        r, v = prop.propagate(t)
        dr = float(np.linalg.norm(np.asarray(r) - np.asarray(r_ref)))
        dv = float(np.linalg.norm(np.asarray(v) - np.asarray(v_ref)))
        worst = max(worst, dr)
        assert dr < 1.0, f"{key} at {minutes} min: {dr} km"
        assert dv < 1e-3
    assert worst < 1.0


@pytest.mark.parametrize("key", sorted(VECTORS))
def test_array_call_matches_per_time_calls(key):
    tle = parse_tle(TLES[key])
    prop = Sgp4Propagator(tle)
    minutes = np.array([m for m, _, _ in VECTORS[key]])
    r, v = prop.propagate_minutes(minutes)
    assert r.shape == v.shape == (len(minutes), 3)
    one_by_one = [prop.propagate_minutes(float(m)) for m in minutes]
    assert np.array_equal(r, np.array([ri for ri, _ in one_by_one]))
    assert np.array_equal(v, np.array([vi for _, vi in one_by_one]))
    r_ref = np.array([ref for _, ref, _ in VECTORS[key]])
    assert np.max(np.linalg.norm(r - r_ref, axis=1)) < 1.0
    # datetimes go through the same path, one Julian date each
    stamps = [tle.epoch + timedelta(minutes=float(m)) for m in minutes]
    r_dt, _ = prop.propagate(stamps)
    assert np.array_equal(r_dt, np.array([prop.propagate(t)[0] for t in stamps]))


@pytest.mark.parametrize("elements, error, first_bad_min", [
    (dict(mean_motion=15.9, bstar=0.1, eccentricity=0.001), DecayedOrbit, 700.0),
    (dict(mean_motion=16.3, bstar=0.05, eccentricity=0.0001), SimulationError, 220.0),
])
def test_array_call_raises_at_first_bad_time(elements, error, first_bad_min):
    prop = Sgp4Propagator(make_tle(epoch=EPOCH, inclination=51.6, **elements))
    prop.propagate_minutes(first_bad_min - 10.0)
    with pytest.raises(error) as one:
        prop.propagate_minutes(first_bad_min)
    with pytest.raises(error) as batch:
        prop.propagate_minutes(np.arange(0.0, 2000.0, 10.0))
    assert type(batch.value) is type(one.value)
    assert f"t={first_bad_min:.1f} min" in str(batch.value)


def test_stale_elements_warn_once_per_call():
    prop = Sgp4Propagator(parse_tle(TLES["tle_28057"]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prop.propagate_minutes(np.arange(0.0, 40 * 1440.0, 60.0))
    stale = [w for w in caught if issubclass(w.category, StaleElements)]
    assert len(stale) == 1
    assert "40.0 days" in str(stale[0].message)  # the farthest time, 39.96 days


def test_propagation_is_deterministic():
    tle = parse_tle(TLES["tle_06251"])
    prop = Sgp4Propagator(tle)
    t = tle.epoch + timedelta(minutes=47.5)
    r1, v1 = prop.propagate(t)
    r2, v2 = Sgp4Propagator(tle).propagate(t)
    assert np.array_equal(r1, r2) and np.array_equal(v1, v2)


def test_short_step_continuity():
    tle = parse_tle(TLES["tle_06251"])
    prop = Sgp4Propagator(tle)
    base = tle.epoch + timedelta(minutes=30)
    r0, v0 = prop.propagate(base)
    r1, _ = prop.propagate(base + timedelta(seconds=1))
    step = np.linalg.norm(np.asarray(r1) - np.asarray(r0))
    # one second at orbital speed, allowing for curvature
    assert abs(step - np.linalg.norm(v0)) < 0.05


def test_altitude_plausible():
    tle = parse_tle(TLES["tle_28057"])
    prop = Sgp4Propagator(tle)
    radius = np.linalg.norm(prop.propagate(tle.epoch)[0])
    assert 200.0 < radius - EARTH_RADIUS_KM < 2000.0


def test_deep_space_rejected():
    tle = make_tle(epoch=EPOCH, inclination=63.4, mean_motion=2.0,
                   eccentricity=0.7)
    with pytest.raises(UnsupportedDeepSpace):
        Sgp4Propagator(tle)


def test_gmst_j2000_anchor():
    # 2000-01-01 12:00 UT: GMST is 280.4606 deg
    from datetime import datetime, timezone
    jd = julian_date(datetime(2000, 1, 1, 12, 0, 0, tzinfo=timezone.utc))
    assert np.degrees(gmst_radians(jd)) % 360.0 == pytest.approx(280.4606, abs=0.001)
