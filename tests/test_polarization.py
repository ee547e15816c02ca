"""Polarization reference-frame tracking and correction."""
from __future__ import annotations

import math

import numpy as np
import pytest

import qkdpass.orbit_dynamics.sgp4 as sgp4
from qkdpass.orbit_dynamics.sgp4 import gmst_radians
import qkdpass.polarization_correction as polarization_correction
from qkdpass.errors import LowCounts, OutOfRange, ProfileGap, ZeroCounts
from qkdpass.polarization_correction import (FrameOffsetProfile, PcsConfig,
                                             PolarimeterConfig,
                                             estimate_offset,
                                             frame_offset_profile,
                                             polarimeter_counts,
                                             qber_from_residual,
                                             run_polarization_correction,
                                             wrap_half_turn)
from qkdpass.seeding import module_rng


def exact_rows(theta_deg: float, settings=(0.0, 22.5), total: float = 1e9):
    """Noise-free polarimeter triples for a known frame rotation."""
    rows = []
    for hwp in settings:
        p = math.cos(math.radians(theta_deg - 2.0 * hwp)) ** 2
        rows.append((hwp, total * p, total * (1.0 - p)))
    return rows


def test_wrap_half_turn_values():
    assert wrap_half_turn(0.0) == 0.0
    assert wrap_half_turn(90.0) == 90.0
    assert wrap_half_turn(-90.0) == 90.0
    assert wrap_half_turn(180.0) == 0.0
    assert wrap_half_turn(135.0) == -45.0
    assert wrap_half_turn(-45.0) == -45.0
    assert wrap_half_turn(90.1) == pytest.approx(-89.9)
    out = wrap_half_turn(np.array([270.0, -180.0]))
    assert out == pytest.approx([90.0, 0.0])


def test_profile_validation():
    with pytest.raises(ProfileGap):
        FrameOffsetProfile(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ProfileGap):
        FrameOffsetProfile(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ProfileGap):
        # 20 deg in one second breaks the continuity bound
        FrameOffsetProfile(np.array([0.0, 1.0]), np.array([0.0, 20.0]))


def test_profile_interpolates_and_guards_range():
    profile = FrameOffsetProfile(np.array([0.0, 10.0]), np.array([0.0, 30.0]))
    assert profile.theta_at(5.0) == pytest.approx(15.0)
    with pytest.raises(ProfileGap):
        profile.theta_at(11.0)
    with pytest.raises(ProfileGap):
        profile.theta_at(-1.0)


def test_estimate_offset_exact():
    for theta in (-89.5, -45.0, -5.74, 0.0, 12.3, 23.7, 60.0, 90.0):
        est = estimate_offset(exact_rows(theta))
        assert est == pytest.approx(theta, abs=1e-9)


def test_estimate_offset_efficiency_ratio_compensated():
    theta = 31.0
    ratio = 0.8
    rows = [(hwp, n_t, n_r * ratio) for hwp, n_t, n_r in exact_rows(theta)]
    assert estimate_offset(rows, ratio) == pytest.approx(theta, abs=1e-9)
    # ignoring the ratio biases the estimate
    assert abs(estimate_offset(rows) - theta) > 0.5


def test_estimate_offset_guards():
    with pytest.raises(OutOfRange):
        estimate_offset(exact_rows(10.0)[:1])
    with pytest.raises(ZeroCounts):
        estimate_offset([(0.0, 0, 0), (22.5, 10, 10)])
    with pytest.warns(LowCounts):
        estimate_offset([(0.0, 30, 10), (22.5, 20, 20)])


def test_qber_from_residual():
    assert qber_from_residual(0.0) == 0.0
    assert qber_from_residual(90.0) == pytest.approx(1.0)
    assert qber_from_residual(5.74) == pytest.approx(
        math.sin(math.radians(5.74)) ** 2
    )
    arr = qber_from_residual(np.array([0.0, 45.0]))
    assert arr == pytest.approx([0.0, 0.5])


def test_polarimeter_counts_statistics():
    config = PolarimeterConfig(count_rate_hz=1e6, integration_s=1.0)
    n_t, n_r = polarimeter_counts(0.0, 0.0, config,
                                  module_rng(0, polarization_correction.MODULE_NAME))
    # aligned frame: everything lands in the transmit arm
    assert n_t > 0.99e6
    assert n_r < 5.0 * np.sqrt(1e6) * 0.01 + 100
    n_t, n_r = polarimeter_counts(45.0, 0.0, config,
                                  module_rng(0, polarization_correction.MODULE_NAME))
    total = n_t + n_r
    assert abs(n_t - total / 2) < 5.0 * np.sqrt(total)


def test_scripted_profiles():
    constant = frame_offset_profile(None, PcsConfig(scripted_constant_deg=12.0), 1.0,
                                    duration_s=50.0)
    assert constant.theta_at(np.array([0.0, 25.0, 50.0])) == pytest.approx([12.0] * 3)
    ramp = frame_offset_profile(None, PcsConfig(scripted_ramp_deg=(-10.0, 20.0)), 1.0,
                                duration_s=100.0)
    assert ramp.theta_at(0.0) == pytest.approx(-10.0)
    assert ramp.theta_at(100.0) == pytest.approx(20.0)
    assert ramp.theta_at(50.0) == pytest.approx(5.0)
    with pytest.raises(ProfileGap):
        frame_offset_profile(None, PcsConfig(scripted_constant_deg=12.0), 1.0)
    with pytest.raises(ProfileGap):
        frame_offset_profile(None, PcsConfig(), 1.0, duration_s=10.0)


def test_geometric_profile_is_smooth(zenith_profile):
    # the constructor enforces the 5 deg/s continuity bound, so building
    # the profile is itself the smoothness check
    profile = frame_offset_profile(zenith_profile, PcsConfig(), 1.0)
    assert len(profile.times_s) == len(zenith_profile.times_s)
    assert np.all(np.isfinite(profile.theta_deg))
    span = profile.theta_deg.max() - profile.theta_deg.min()
    assert span > 5.0  # overhead geometry sweeps the frame visibly


def reference_geometric_theta(profile, config: PcsConfig) -> np.ndarray:
    """The frame rotation computed one sample at a time with 3-vector numpy
    calls, as the geometric profile was before it became array operations."""
    site_ecef = profile.site.ecef_km()
    lat = math.radians(profile.site.latitude_deg)
    lon = math.radians(profile.site.longitude_deg)
    yaw = math.radians(config.body_yaw_deg)
    theta = np.empty(len(profile.jd))
    reference, previous = None, 0.0
    for i, jd in enumerate(profile.jd):
        gmst = gmst_radians(jd)
        c, s = math.cos(gmst), math.sin(gmst)
        site_teme = np.array([c * site_ecef[0] - s * site_ecef[1],
                              s * site_ecef[0] + c * site_ecef[1], site_ecef[2]])
        r, v = profile.r_teme_km[i], profile.v_teme_kms[i]
        nadir = -r / np.linalg.norm(r)
        orbit_normal = np.cross(r, v)
        orbit_normal /= np.linalg.norm(orbit_normal)
        along = np.cross(-orbit_normal, nadir)
        along /= np.linalg.norm(along)
        transmit = math.cos(yaw) * along + math.sin(yaw) * np.cross(nadir, along)
        los = r - site_teme
        los /= np.linalg.norm(los)
        if reference is None:
            lam = lon + gmst
            zenith = np.array([math.cos(lat) * math.cos(lam),
                               math.cos(lat) * math.sin(lam), math.sin(lat)])
            east = np.array([-math.sin(lam), math.cos(lam), 0.0])
            for anchor in (zenith, east):
                candidate = anchor - np.dot(anchor, los) * los
                if np.linalg.norm(candidate) > 1e-6:
                    reference = candidate / np.linalg.norm(candidate)
                    break
        else:
            candidate = reference - np.dot(reference, los) * los
            if np.linalg.norm(candidate) > 1e-9:
                reference = candidate / np.linalg.norm(candidate)
        t_perp = transmit - np.dot(transmit, los) * los
        nt = np.linalg.norm(t_perp)
        if nt < 1e-9 or reference is None:
            theta[i] = previous
            continue
        t_perp /= nt
        previous = theta[i] = math.degrees(math.atan2(
            float(np.dot(np.cross(reference, t_perp), los)),
            float(np.dot(reference, t_perp))))
    return polarization_correction._unwrap_half_turn(theta)


@pytest.mark.parametrize("yaw", [0.0, 12.0, 90.0, -135.0])
def test_geometric_profile_matches_per_sample_loop(zenith_profile, yaw):
    # array operations sum the dot products in another order than BLAS:
    # the angles agree to well under a nanodegree
    config = PcsConfig(body_yaw_deg=yaw)
    got = frame_offset_profile(zenith_profile, config, 1.0).theta_deg
    want = reference_geometric_theta(zenith_profile, config)
    assert np.max(np.abs(got - want)) < 1e-9


def test_geometric_body_yaw_shifts_angle(zenith_profile):
    base = frame_offset_profile(zenith_profile, PcsConfig(), 1.0)
    yawed = frame_offset_profile(zenith_profile, PcsConfig(body_yaw_deg=30.0), 1.0)
    peak = int(np.argmax(zenith_profile.elevation_deg))
    # near culmination the line of sight is close to nadir, so the body
    # yaw appears almost directly as a frame rotation; the sign flips
    # because a rotation about nadir is seen mirrored along the upward
    # line of sight
    delta = wrap_half_turn(yawed.theta_deg[peak] - base.theta_deg[peak])
    assert delta == pytest.approx(-30.0, abs=2.0)


def test_correction_tracks_constant_offset():
    profile = frame_offset_profile(None, PcsConfig(scripted_constant_deg=17.0), 1.0,
                                   duration_s=20.0)
    series = run_polarization_correction(profile, PcsConfig(), seed=5)
    assert len(series.update_times_s) == 20
    assert np.all(np.abs(series.theta_hat_deg - 17.0) < 0.5)
    assert np.all(np.abs(series.residual_at(series.update_times_s + 0.5)) < 0.5)


def test_correction_tracks_ramp():
    profile = frame_offset_profile(None, PcsConfig(scripted_ramp_deg=(-20.0, 20.0)), 1.0,
                                   duration_s=40.0)
    series = run_polarization_correction(profile, PcsConfig(), seed=6)
    # residual is bounded by estimator noise plus the 1 deg/s hold lag
    residual = series.residual_at(np.linspace(0.0, 40.0, 400))
    assert np.max(np.abs(residual)) < 1.6
    assert np.mean(np.abs(residual)) < 0.8


def test_correction_extra_offset_becomes_residual():
    profile = frame_offset_profile(None, PcsConfig(scripted_constant_deg=0.0), 1.0,
                                   duration_s=10.0)
    series = run_polarization_correction(
        profile, PcsConfig(uncompensated_offset_deg=5.74), seed=7)
    residual = series.residual_at(series.update_times_s + 0.5)
    assert np.mean(residual) == pytest.approx(5.74, abs=0.3)


def test_correction_deterministic():
    profile = frame_offset_profile(None, PcsConfig(scripted_constant_deg=3.0), 1.0,
                                   duration_s=10.0)
    a = run_polarization_correction(profile, PcsConfig(), seed=1)
    b = run_polarization_correction(profile, PcsConfig(), seed=1)
    assert np.array_equal(a.theta_hat_deg, b.theta_hat_deg)
    c = run_polarization_correction(profile, PcsConfig(), seed=2)
    assert not np.array_equal(a.theta_hat_deg, c.theta_hat_deg)


def test_unbalanced_detector_pair_stays_unbiased():
    profile = frame_offset_profile(None, PcsConfig(scripted_constant_deg=25.0), 1.0,
                                   duration_s=30.0)
    config = PcsConfig(polarimeter=PolarimeterConfig(detector_pair_efficiency_ratio=0.8))
    series = run_polarization_correction(profile, config, seed=8)
    assert abs(np.mean(series.theta_hat_deg) - 25.0) < 0.2


def test_geometric_profile_reads_the_sampled_julian_dates(zenith_profile, monkeypatch):
    """The site is rotated to the instants the states were propagated at."""
    def no_conversion(t):
        raise AssertionError("frame_offset_profile converted a datetime")

    for module in (sgp4, polarization_correction):
        monkeypatch.setattr(module, "julian_date", no_conversion, raising=False)
    profile = frame_offset_profile(zenith_profile, PcsConfig(), 1.0)
    assert len(profile.theta_deg) == len(zenith_profile.jd)
