"""Polarization reference-frame tracking between satellite and ground.

The relative rotation of the satellite's linear-polarization frame as
seen at the ground station drifts during a pass. A two-detector
polarimeter (polarizing splitter behind a half-wave plate) measures
the downlink beacon at two or more wave-plate settings; the fringe
visibilities at those settings determine the rotation angle, which is
handed to the quantum receiver as a basis correction. Only the single
linear rotation angle is modeled; all angles are half-turn periodic.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import LowCounts, OutOfRange, ProfileGap, ZeroCounts
from .orbit_dynamics.passes import PassProfile
from .orbit_dynamics.sgp4 import gmst_radians
from .seeding import module_rng

MODULE_NAME = "polarization_correction"

MAX_THETA_STEP_DEG_PER_S = 5.0


@dataclass(frozen=True)
class FrameOffsetProfile:
    """Relative frame rotation theta(t) over a pass.

    Samples are continuous in time (consecutive values within the
    5 deg/s continuity bound); values may run outside (-90, 90] so the
    curve stays unwrapped, since every consumer is 180 deg periodic.
    """

    times_s: np.ndarray
    theta_deg: np.ndarray

    def __post_init__(self):
        if len(self.times_s) != len(self.theta_deg) or len(self.times_s) < 2:
            raise ProfileGap("need at least two (time, theta) samples")
        dt = np.diff(self.times_s)
        if np.any(dt <= 0.0):
            raise ProfileGap("sample times must be strictly increasing")
        step = np.abs(np.diff(self.theta_deg)) / dt
        if np.any(step > MAX_THETA_STEP_DEG_PER_S):
            raise ProfileGap(
                f"theta changes faster than {MAX_THETA_STEP_DEG_PER_S} deg/s "
                "between samples; profile has a hole or discontinuity"
            )

    def theta_at(self, t_s) -> np.ndarray:
        t = np.asarray(t_s, dtype=float)
        if t.size and (t.min() < self.times_s[0] - 1e-9 or t.max() > self.times_s[-1] + 1e-9):
            raise ProfileGap("time outside frame-offset profile coverage")
        return np.interp(t, self.times_s, self.theta_deg)


@dataclass(frozen=True)
class PolarimeterConfig:
    """Beacon polarimeter settings."""

    hwp_settings_deg: tuple[float, ...] = (0.0, 22.5)
    detector_pair_efficiency_ratio: float = 1.0
    integration_s: float = 1.0
    count_rate_hz: float = 1e5

    def __post_init__(self):
        if len(set(self.hwp_settings_deg)) < 2:
            raise OutOfRange("need at least two distinct wave-plate settings")
        if self.detector_pair_efficiency_ratio <= 0.0:
            raise OutOfRange("efficiency ratio must be positive")
        if self.integration_s <= 0.0 or self.count_rate_hz <= 0.0:
            raise OutOfRange("integration and count rate must be positive")


@dataclass(frozen=True)
class PcsConfig:
    """Polarization-correction settings: the polarimeter, profile and cadence.

    The frame rotation follows scripted_constant_deg or scripted_ramp_deg
    when one is set, and the pass geometry (with body_yaw_deg) otherwise.
    """

    polarimeter: PolarimeterConfig = PolarimeterConfig()
    body_yaw_deg: float = 0.0
    scripted_constant_deg: float | None = None
    scripted_ramp_deg: tuple[float, float] | None = None
    update_interval_s: float = 1.0
    uncompensated_offset_deg: float = 0.0

    def __post_init__(self):
        scripted = (self.scripted_constant_deg is not None,
                    self.scripted_ramp_deg is not None)
        if all(scripted):
            raise OutOfRange("set scripted_constant_deg or scripted_ramp_deg, "
                             "not both")
        if scripted[1] and len(self.scripted_ramp_deg) != 2:
            raise OutOfRange("scripted_ramp_deg must be a [start, end] pair")
        if any(scripted) and self.body_yaw_deg != 0.0:
            raise OutOfRange("body_yaw_deg applies only to the geometric "
                             "profile, not to a scripted one")
        if not self.update_interval_s > 0.0:
            raise OutOfRange("update_interval_s must be positive")


def wrap_half_turn(theta_deg):
    """Map an angle to the linear-polarization convention (-90, 90]."""
    wrapped = -((-np.asarray(theta_deg, dtype=float) + 90.0) % 180.0 - 90.0)
    return wrapped if np.ndim(theta_deg) else float(wrapped)


def _unwrap_half_turn(theta_deg: np.ndarray) -> np.ndarray:
    """Remove 180 deg jumps so consecutive samples stay close."""
    out = np.asarray(theta_deg, dtype=float).copy()
    for i in range(1, len(out)):
        step = out[i] - out[i - 1]
        out[i] -= 180.0 * round(step / 180.0)
    return out


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, 3) arrays, summed left to right."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Each row of an (n, 3) array over its Euclidean norm."""
    return vectors / np.sqrt(_dot_rows(vectors, vectors))[:, None]


def _transported_reference(los: np.ndarray, lam: np.ndarray, lat: float) -> np.ndarray:
    """The receiver's reference axis at every line of sight, NaN before it exists.

    It starts as the site's zenith, or east when zenith nearly lies along
    the line of sight, projected onto the first sample's image plane
    (lam the sample's local sidereal angle), and is then parallel
    transported: each step projects the previous axis onto the new
    image plane, and keeps it when the projection degenerates. Each
    step needs the last, so this runs sample by sample, on floats.
    """
    out = np.full(los.shape, np.nan)
    reference = None
    for i, (lx, ly, lz) in enumerate(los.tolist()):
        if reference is None:
            c = math.cos(lat)
            anchors = ((c * math.cos(lam[i]), c * math.sin(lam[i]), math.sin(lat)),
                       (-math.sin(lam[i]), math.cos(lam[i]), 0.0))
            floor = 1e-6
        else:
            anchors, floor = (reference,), 1e-9
        for ax, ay, az in anchors:
            along = ax * lx + ay * ly + az * lz
            cx, cy, cz = ax - along * lx, ay - along * ly, az - along * lz
            norm = math.sqrt(cx * cx + cy * cy + cz * cz)
            if norm > floor:
                reference = (cx / norm, cy / norm, cz / norm)
                break
        if reference is not None:
            out[i] = reference
    return out


def _geometric_theta(profile: PassProfile, config: PcsConfig) -> np.ndarray:
    """Rotation of a nadir-pointing satellite's transmit axis at the site.

    The satellite frame has its z axis at nadir and its x axis
    along-track, rotated by config.body_yaw_deg; the transmit axis is
    that x axis. The receiver's reference axis is anchored to the
    site's zenith direction at the first sample and then parallel
    transported along the line of sight as it sweeps, which is how the
    image-plane basis of smoothly tracking optics evolves. theta is
    the signed angle from the transported reference to the projected
    transmit axis around the line of sight. Transporting (rather than
    re-projecting zenith each step) keeps theta smooth through
    culmination, where the instantaneous zenith projection is
    singular. Where the geometry degenerates theta carries the last
    angle (0 before the first). Only the transport is sequential
    (_transported_reference); every other step is one array operation
    over all samples.
    """
    site_ecef = profile.site.ecef_km()
    lat = math.radians(profile.site.latitude_deg)
    lon = math.radians(profile.site.longitude_deg)
    yaw = math.radians(config.body_yaw_deg)
    gmst = gmst_radians(np.asarray(profile.jd, dtype=float))
    c, s = np.cos(gmst), np.sin(gmst)
    # Earth-fixed -> inertial rotation of the site position
    site_teme = np.column_stack([c * site_ecef[0] - s * site_ecef[1],
                                 s * site_ecef[0] + c * site_ecef[1],
                                 np.full(len(gmst), site_ecef[2])])
    r = np.asarray(profile.r_teme_km, dtype=float)
    v = np.asarray(profile.v_teme_kms, dtype=float)
    nadir = -_unit_rows(r)
    orbit_normal = _unit_rows(np.cross(r, v))
    along = _unit_rows(np.cross(-orbit_normal, nadir))
    transmit = math.cos(yaw) * along + math.sin(yaw) * np.cross(nadir, along)
    los = _unit_rows(r - site_teme)
    reference = _transported_reference(los, lon + gmst, lat)

    t_perp = transmit - _dot_rows(transmit, los)[:, None] * los
    nt = np.sqrt(_dot_rows(t_perp, t_perp))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_perp /= nt[:, None]
        angle = np.degrees(np.arctan2(_dot_rows(np.cross(reference, t_perp), los),
                                      _dot_rows(reference, t_perp)))
    # degenerate geometry: carry the last angle
    valid = ~(nt < 1e-9) & ~np.isnan(reference[:, 0])
    last = np.maximum.accumulate(np.where(valid, np.arange(1, len(valid) + 1), 0))
    return _unwrap_half_turn(np.append(0.0, angle)[last])


def frame_offset_profile(
    geometry: PassProfile | None,
    config: PcsConfig,
    step_s: float,
    duration_s: float | None = None,
) -> FrameOffsetProfile:
    """Build the frame rotation profile for a pass.

    The config's scripted constant, or its linear (start, end) ramp over
    the pass duration, gives a curve sampled every step_s. With neither,
    theta is derived from the pass geometry assuming a nadir-pointing
    satellite with a fixed body yaw.
    """
    constant, ramp = config.scripted_constant_deg, config.scripted_ramp_deg
    if constant is None and ramp is None:
        if geometry is None:
            raise ProfileGap("geometric profile needs pass geometry")
        return FrameOffsetProfile(
            times_s=geometry.times_s.copy(),
            theta_deg=_geometric_theta(geometry, config),
        )
    span = duration_s if duration_s is not None else \
        (geometry.duration_s if geometry is not None else None)
    if span is None:
        raise ProfileGap("scripted profile needs a duration or pass geometry")
    n = max(2, int(math.ceil(span / step_s)) + 1)
    times = np.linspace(0.0, span, n)
    if constant is not None:
        return FrameOffsetProfile(times_s=times,
                                  theta_deg=np.full(n, float(constant)))
    start, end = ramp
    return FrameOffsetProfile(times_s=times,
                              theta_deg=np.linspace(start, end, n))


def polarimeter_counts(
    theta_true_deg: float,
    hwp_deg: float,
    config: PolarimeterConfig,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Transmit/reflect beacon counts for one wave-plate setting.

    The wave plate rotates the incoming linear polarization by twice
    its angle, so the transmitted fraction is cos^2(theta - 2 hwp).
    The reflect arm's efficiency is scaled by the configured detector
    pair ratio.
    """
    x = math.radians(theta_true_deg - 2.0 * hwp_deg)
    p_t = math.cos(x) ** 2
    mean = config.count_rate_hz * config.integration_s
    n_t = int(rng.poisson(mean * p_t))
    n_r = int(rng.poisson(mean * (1.0 - p_t) * config.detector_pair_efficiency_ratio))
    return n_t, n_r


def estimate_offset(
    measurements: Iterable[tuple[float, int, int]],
    detector_pair_efficiency_ratio: float = 1.0,
) -> float:
    """Frame rotation estimate from (hwp_deg, n_transmit, n_reflect) triples.

    Each setting yields a visibility v = (n_t - n_r)/(n_t + n_r) whose
    expectation is cos(2 theta - 4 hwp); a linear least-squares fit of
    the (cos 2 theta, sin 2 theta) components recovers theta on
    (-90, 90]. Two distinct settings resolve the sign a single
    visibility cannot.
    """
    rows = list(measurements)
    if len(rows) < 2:
        raise OutOfRange("need measurements at two or more settings")
    design = np.empty((len(rows), 2))
    vis = np.empty(len(rows))
    for i, (hwp, n_t, n_r) in enumerate(rows):
        n_r = n_r / detector_pair_efficiency_ratio
        total = n_t + n_r
        if total <= 0:
            raise ZeroCounts(f"no counts at wave-plate setting {hwp} deg")
        if total < 100:
            warnings.warn(
                f"only {total:.0f} counts at setting {hwp} deg; estimate is noisy",
                LowCounts,
                stacklevel=2,
            )
        vis[i] = (n_t - n_r) / total
        phase = math.radians(4.0 * hwp)
        design[i] = (math.cos(phase), math.sin(phase))
    (c2, s2), *_ = np.linalg.lstsq(design, vis, rcond=None)
    theta = 0.5 * math.degrees(math.atan2(s2, c2))
    return wrap_half_turn(theta)


def qber_from_residual(delta_deg) -> float:
    """Error rate added by a linear-basis misalignment: sin^2 delta."""
    value = np.sin(np.radians(delta_deg)) ** 2
    return value if np.ndim(delta_deg) else float(value)


@dataclass(frozen=True)
class PcsSeries:
    """Stepwise correction history over a pass."""

    update_times_s: np.ndarray   # start of each correction interval
    theta_true_deg: np.ndarray   # frame rotation at each update
    theta_hat_deg: np.ndarray    # estimate applied over the interval
    profile: FrameOffsetProfile = field(repr=False)

    def theta_hat_at(self, t_s) -> np.ndarray:
        idx = np.clip(
            np.searchsorted(self.update_times_s, np.asarray(t_s, dtype=float),
                            side="right") - 1,
            0, len(self.update_times_s) - 1,
        )
        return self.theta_hat_deg[idx]

    def residual_at(self, t_s) -> np.ndarray:
        """Uncorrected misalignment theta_true(t) - theta_hat(t), wrapped.

        Wrapped to (-90, 90] so an unwrapped truth curve against a
        wrapped estimate never reads as a half-turn error.
        """
        true = self.profile.theta_at(t_s)
        return wrap_half_turn(true - self.theta_hat_at(t_s))


def run_polarization_correction(
    profile: FrameOffsetProfile,
    config: PcsConfig,
    seed: int,
) -> PcsSeries:
    """Estimate and apply the frame correction every config.update_interval_s.

    Each interval integrates the beacon at every wave-plate setting,
    estimates theta, and applies it until the next update. A nonzero
    uncompensated_offset_deg biases the applied correction away from
    the estimate, modeling an uncompensated systematic (used for
    error-budget studies).
    """
    polarimeter = config.polarimeter
    rng = module_rng(seed, MODULE_NAME)
    start = float(profile.times_s[0])
    end = float(profile.times_s[-1])
    n = max(1, int(math.ceil((end - start) / config.update_interval_s)))
    update_times = start + np.arange(n) * config.update_interval_s
    theta_true = np.empty(n)
    theta_hat = np.empty(n)
    for i, t in enumerate(update_times):
        true = float(profile.theta_at(min(t, end)))
        theta_true[i] = true
        rows = [(hwp, *polarimeter_counts(true, hwp, polarimeter, rng))
                for hwp in polarimeter.hwp_settings_deg]
        theta_hat[i] = estimate_offset(rows, polarimeter.detector_pair_efficiency_ratio) \
            - config.uncompensated_offset_deg
    return PcsSeries(
        update_times_s=update_times,
        theta_true_deg=theta_true,
        theta_hat_deg=theta_hat,
        profile=profile,
    )
