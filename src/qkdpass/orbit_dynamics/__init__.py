"""Orbit propagation, coordinate conversion, and pass prediction."""
from .frames import (
    GroundSite,
    TopocentricState,
    eci_to_topocentric,
    site_elevation_deg,
    teme_to_ecef,
)
from .passes import (
    PassProfile,
    PassWindow,
    max_angular_rate,
    max_angular_rates,
    predict_passes,
    sample_pass,
)
from .sgp4 import EARTH_RADIUS_KM, Sgp4Propagator, gmst_radians, julian_date
from .tle import TwoLineElement, format_tle, line_checksum, make_tle, parse_tle, parse_tle_file

__all__ = [
    "EARTH_RADIUS_KM",
    "GroundSite",
    "PassProfile",
    "PassWindow",
    "Sgp4Propagator",
    "TopocentricState",
    "TwoLineElement",
    "eci_to_topocentric",
    "format_tle",
    "gmst_radians",
    "julian_date",
    "line_checksum",
    "make_tle",
    "max_angular_rate",
    "max_angular_rates",
    "parse_tle",
    "parse_tle_file",
    "predict_passes",
    "sample_pass",
    "site_elevation_deg",
    "teme_to_ecef",
]
