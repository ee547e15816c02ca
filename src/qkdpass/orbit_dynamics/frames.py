"""Coordinate frames: inertial (TEME) to Earth-fixed to topocentric.

Earth rotation uses the standard GMST polynomial; UT1-UTC is neglected
(sub-second, far below tracking tolerances). Site coordinates use the
WGS-84 ellipsoid. Azimuth is measured clockwise from North, elevation
from the local horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sgp4 import gmst_radians, julian_date

# WGS-84 ellipsoid
_WGS84_A_KM = 6378.137
_WGS84_F = 1.0 / 298.257223563
_WGS84_E2 = _WGS84_F * (2.0 - _WGS84_F)

RATE_DELTA_S = 0.1  # symmetric finite-difference half-step for angular rates


@dataclass(frozen=True)
class GroundSite:
    """Ground station location on the WGS-84 ellipsoid."""

    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude {self.latitude_deg} outside [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ValueError(f"longitude {self.longitude_deg} outside [-180, 180]")

    def ecef_km(self) -> np.ndarray:
        """Earth-fixed position of the site in km."""
        lat = math.radians(self.latitude_deg)
        lon = math.radians(self.longitude_deg)
        sin_lat = math.sin(lat)
        n = _WGS84_A_KM / math.sqrt(1.0 - _WGS84_E2 * sin_lat * sin_lat)
        alt_km = self.altitude_m / 1000.0
        return np.array([
            (n + alt_km) * math.cos(lat) * math.cos(lon),
            (n + alt_km) * math.cos(lat) * math.sin(lon),
            (n * (1.0 - _WGS84_E2) + alt_km) * sin_lat,
        ])


@dataclass(frozen=True)
class TopocentricState:
    """Satellite as seen from a ground site.

    One instant gives float fields; a sequence of instants gives arrays
    that share one index.
    """

    azimuth_deg: float | np.ndarray       # [0, 360), clockwise from North
    elevation_deg: float | np.ndarray     # [-90, 90]
    range_km: float | np.ndarray
    angular_rate_dps: float | np.ndarray  # sky-plane magnitude

    def __post_init__(self):
        if np.any(np.asarray(self.range_km) <= 0.0):
            raise ValueError(f"range {self.range_km} km must be positive")
        if np.any(np.asarray(self.angular_rate_dps) < 0.0):
            raise ValueError("angular_rate must be nonnegative")


def teme_to_ecef(r_teme_km: np.ndarray, jd_ut1) -> np.ndarray:
    """Rotate inertial (TEME) vectors, (3,) or (n, 3), into the Earth-fixed frame."""
    theta = gmst_radians(jd_ut1)
    c, s = np.cos(theta), np.sin(theta)
    x, y, z = np.moveaxis(np.asarray(r_teme_km, dtype=float), -1, 0)
    return np.stack([c * x + s * y, -s * x + c * y, z], axis=-1)


def _sez_vector(r_teme_km: np.ndarray, site: GroundSite, jd) -> np.ndarray:
    """Topocentric south-east-zenith components of the site->satellite vectors."""
    rho_x, rho_y, rho_z = np.moveaxis(teme_to_ecef(r_teme_km, jd) - site.ecef_km(), -1, 0)
    lat = math.radians(site.latitude_deg)
    lon = math.radians(site.longitude_deg)
    sin_lat, cos_lat = math.sin(lat), math.cos(lat)
    sin_lon, cos_lon = math.sin(lon), math.cos(lon)
    south = sin_lat * cos_lon * rho_x + sin_lat * sin_lon * rho_y - cos_lat * rho_z
    east = -sin_lon * rho_x + cos_lon * rho_y
    zenith = cos_lat * cos_lon * rho_x + cos_lat * sin_lon * rho_y + sin_lat * rho_z
    return np.stack([south, east, zenith], axis=-1)


def _look_angles(sez: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Azimuth and elevation (deg) and range (km) of south-east-zenith vectors."""
    south, east, zenith = np.moveaxis(sez, -1, 0)
    rng = np.sqrt(south * south + east * east + zenith * zenith)
    elevation = np.degrees(np.arcsin(zenith / rng))
    azimuth = np.degrees(np.arctan2(east, -south)) % 360.0
    return azimuth, elevation, rng


def _rate_vectors(
    r_teme_km: np.ndarray, v_teme_kms: np.ndarray, site: GroundSite, jd
) -> tuple[np.ndarray, np.ndarray]:
    """Line-of-sight vectors RATE_DELTA_S before and after each instant."""
    delta_days = RATE_DELTA_S / 86400.0
    sez_m = _sez_vector(r_teme_km - v_teme_kms * RATE_DELTA_S, site, jd - delta_days)
    sez_p = _sez_vector(r_teme_km + v_teme_kms * RATE_DELTA_S, site, jd + delta_days)
    return sez_m, sez_p


def eci_to_topocentric(
    r_teme_km: np.ndarray,
    v_teme_kms: np.ndarray,
    site: GroundSite,
    t,
) -> TopocentricState:
    """Look angles, range, and sky-plane rate for inertial states.

    One datetime or Julian date with (3,) vectors gives one state; a
    sequence of n datetimes, or an array of n Julian dates, with (n, 3)
    stacks gives array fields. The rate comes from a
    symmetric finite difference with a 100 ms half step; the inertial
    trajectory is linearized over that step (the curvature term is
    below a micro-arcsecond) while Earth rotation is evaluated exactly
    at each sample time. The sky-plane angular rate is the angle swept
    by the line-of-sight unit vector, taken as atan2(|m x p|, m . p),
    which stays accurate for the small angles a 200 ms step sweeps and
    well behaved through zenith, where the az/el rates are singular.
    """
    jd = julian_date(t)
    az, el, rng = _look_angles(_sez_vector(r_teme_km, site, jd))
    sez_m, sez_p = _rate_vectors(r_teme_km, v_teme_kms, site, jd)
    sweep = np.degrees(np.arctan2(
        np.linalg.norm(np.cross(sez_m, sez_p), axis=-1),
        np.sum(sez_m * sez_p, axis=-1),
    ))
    fields = (az, el, rng, sweep / (2.0 * RATE_DELTA_S))
    if np.ndim(jd) == 0:
        fields = tuple(value.item() for value in fields)
    return TopocentricState(*fields)


def site_elevation_deg(r_teme_km: np.ndarray, site: GroundSite, t):
    """Elevation only (cheap path for pass searching); arrays for many datetimes or JDs."""
    _, elevation, _ = _look_angles(_sez_vector(r_teme_km, site, julian_date(t)))
    return elevation
