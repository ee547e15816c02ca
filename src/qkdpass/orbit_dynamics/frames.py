"""Coordinate frames: inertial (TEME) to Earth-fixed to topocentric.

Earth rotation uses the standard GMST polynomial; UT1-UTC is neglected
(sub-second, far below tracking tolerances). Site coordinates use the
WGS-84 ellipsoid. Azimuth is measured clockwise from North, elevation
from the local horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

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
    name: str = "site"

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
    """Satellite as seen from a ground site at one instant."""

    time: datetime
    azimuth_deg: float       # [0, 360), clockwise from North
    elevation_deg: float     # [-90, 90]
    range_km: float
    azimuth_rate_dps: float
    elevation_rate_dps: float
    angular_rate_dps: float  # sky-plane magnitude

    def __post_init__(self):
        if self.range_km <= 0.0:
            raise ValueError(f"range {self.range_km} km must be positive")
        if self.angular_rate_dps < 0.0:
            raise ValueError("angular_rate must be nonnegative")


def teme_to_ecef(r_teme_km: np.ndarray, jd_ut1: float) -> np.ndarray:
    """Rotate an inertial (TEME) vector into the Earth-fixed frame."""
    theta = gmst_radians(jd_ut1)
    c, s = math.cos(theta), math.sin(theta)
    x, y, z = r_teme_km
    return np.array([c * x + s * y, -s * x + c * y, z])


def _sez_vector(r_teme_km: np.ndarray, site: GroundSite, jd: float) -> np.ndarray:
    """Topocentric south-east-zenith components of the site->satellite vector."""
    rho_ecef = teme_to_ecef(r_teme_km, jd) - site.ecef_km()
    lat = math.radians(site.latitude_deg)
    lon = math.radians(site.longitude_deg)
    sin_lat, cos_lat = math.sin(lat), math.cos(lat)
    sin_lon, cos_lon = math.sin(lon), math.cos(lon)
    south = (
        sin_lat * cos_lon * rho_ecef[0]
        + sin_lat * sin_lon * rho_ecef[1]
        - cos_lat * rho_ecef[2]
    )
    east = -sin_lon * rho_ecef[0] + cos_lon * rho_ecef[1]
    zenith = (
        cos_lat * cos_lon * rho_ecef[0]
        + cos_lat * sin_lon * rho_ecef[1]
        + sin_lat * rho_ecef[2]
    )
    return np.array([south, east, zenith])


def _azimuth_elevation_range(
    r_teme_km: np.ndarray, site: GroundSite, jd: float
) -> tuple[float, float, float]:
    south, east, zenith = _sez_vector(r_teme_km, site, jd)
    rng = math.sqrt(south * south + east * east + zenith * zenith)
    elevation = math.degrees(math.asin(zenith / rng))
    azimuth = math.degrees(math.atan2(east, -south)) % 360.0
    return azimuth, elevation, rng


def eci_to_topocentric(
    r_teme_km: np.ndarray,
    v_teme_kms: np.ndarray,
    site: GroundSite,
    t: datetime,
) -> TopocentricState:
    """Look angles, range, and sky-plane rates for one inertial state.

    Rates come from a symmetric finite difference with a 100 ms half
    step; the inertial trajectory is linearized over that step (the
    curvature term is below a micro-arcsecond) while Earth rotation is
    evaluated exactly at each sample time. The sky-plane angular rate
    is the angle swept by the line-of-sight unit vector, which stays
    well behaved through zenith where the az/el rates are singular.
    """
    jd = julian_date(t)
    delta_days = RATE_DELTA_S / 86400.0
    az0, el0, rng0 = _azimuth_elevation_range(r_teme_km, site, jd)
    sez_m = _sez_vector(r_teme_km - v_teme_kms * RATE_DELTA_S, site, jd - delta_days)
    sez_p = _sez_vector(r_teme_km + v_teme_kms * RATE_DELTA_S, site, jd + delta_days)
    az_m = math.degrees(math.atan2(sez_m[1], -sez_m[0])) % 360.0
    az_p = math.degrees(math.atan2(sez_p[1], -sez_p[0])) % 360.0
    el_m = math.degrees(math.asin(sez_m[2] / np.linalg.norm(sez_m)))
    el_p = math.degrees(math.asin(sez_p[2] / np.linalg.norm(sez_p)))
    daz = (az_p - az_m + 180.0) % 360.0 - 180.0
    az_rate = daz / (2.0 * RATE_DELTA_S)
    el_rate = (el_p - el_m) / (2.0 * RATE_DELTA_S)
    cos_sweep = float(
        np.dot(sez_m, sez_p) / (np.linalg.norm(sez_m) * np.linalg.norm(sez_p))
    )
    sweep = math.degrees(math.acos(min(1.0, max(-1.0, cos_sweep))))
    angular = sweep / (2.0 * RATE_DELTA_S)
    return TopocentricState(
        time=t,
        azimuth_deg=az0,
        elevation_deg=el0,
        range_km=rng0,
        azimuth_rate_dps=az_rate,
        elevation_rate_dps=el_rate,
        angular_rate_dps=angular,
    )


def site_elevation_deg(r_teme_km: np.ndarray, site: GroundSite, t: datetime) -> float:
    """Elevation only (cheap path for pass searching)."""
    _, elevation, _ = _azimuth_elevation_range(r_teme_km, site, julian_date(t))
    return elevation
