"""Seeded input generation for the benchmark workloads.

Everything a workload reads is built here from the workload seed with
the package's own public helpers (make_tle, save_scenario), so the
benchmark never imports the test suite and its set-up cost is only
what a user of the package pays.
"""
from __future__ import annotations

import dataclasses
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from qkdpass.channel_link import LinkConfig
from qkdpass.orbit_dynamics import GroundSite, format_tle, gmst_radians, \
    julian_date, make_tle
from qkdpass.photon_source import SourceConfig
from qkdpass.scenario import PredictionConfig, ProtocolConfig, Scenario, \
    save_scenario

EPOCH = datetime(2024, 3, 1, 12, 0, 0, tzinfo=timezone.utc)
SITE = GroundSite(latitude_deg=47.0, longitude_deg=8.0, altitude_m=540.0)

# Full-size parameters; smoke mode shrinks the photon cap, the search
# span and the PAT step count so the whole pipeline runs in seconds.
PARAMS = {
    "night_pass": {"max_source_events": 10_000_000,
                   "sky_background_rate_zenith": 0.0, "pat_dt_s": 0.01},
    "day_pass": {"max_source_events": 5_000_000,
                 "sky_background_rate_zenith": 1e6, "pat_dt_s": 0.01},
    "pass_planning": {"search_hours": 168.0,
                      "inclinations_deg": (90.0, 51.6, 97.5), "pat_dt_s": 0.01},
}
SMOKE_PARAMS = {
    "night_pass": {"max_source_events": 200_000,
                   "sky_background_rate_zenith": 0.0, "pat_dt_s": 0.05},
    "day_pass": {"max_source_events": 200_000,
                 "sky_background_rate_zenith": 1e6, "pat_dt_s": 0.05},
    "pass_planning": {"search_hours": 24.0,
                      "inclinations_deg": (90.0, 51.6, 97.5), "pat_dt_s": 0.05},
}


def _node_over_site_deg() -> float:
    """RAAN that puts the ascending node over the site's meridian at epoch."""
    gmst_deg = np.degrees(gmst_radians(julian_date(EPOCH))) % 360.0
    return float((gmst_deg + SITE.longitude_deg) % 360.0)


def _tle_lines(inclination: float,
               satellite_number: int = 99999) -> tuple[str, str]:
    return format_tle(make_tle(
        satellite_number=satellite_number,
        epoch=EPOCH,
        inclination=inclination,
        raan=_node_over_site_deg(),
        mean_motion=15.2,
        mean_anomaly=30.0,
    ))


def _base(seed: int, sky_background_rate_zenith: float = 0.0,
          **overrides) -> Scenario:
    """The test pass: zenith polar orbit, 0.05 mW pump, 1 m aperture."""
    fields = dict(
        tle_lines=_tle_lines(90.0),
        site=SITE,
        source=dataclasses.replace(SourceConfig(), pump_power_mw=0.05),
        link=dataclasses.replace(
            LinkConfig(), rx_aperture_diameter_m=1.0, tx_divergence_rad=10e-6,
            sky_background_rate_zenith=sky_background_rate_zenith),
        seed=seed,
    )
    fields.update(overrides)
    return dataclasses.replace(Scenario(), **fields)


def write_inputs(workload: str, seed: int, directory: Path,
                 smoke: bool = False) -> dict:
    """Write a workload's scenario files into directory.

    Returns {"scenarios": [paths], "params": {...}}. Simulate workloads
    get one scenario; pass_planning gets one per generated TLE. The seed
    is the scenario seed and nothing else: it picks the random streams,
    while the orbits, and so the amount of work, stay the same.
    """
    params = dict((SMOKE_PARAMS if smoke else PARAMS)[workload])
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "pass_planning":
        scenarios = []
        for k, inc in enumerate(params["inclinations_deg"]):
            scenario = _base(
                seed,
                pat_dt_s=params["pat_dt_s"],
                tle_lines=_tle_lines(inc, satellite_number=90001 + k),
                prediction=dataclasses.replace(
                    PredictionConfig(), search_hours=params["search_hours"]),
            )
            path = directory / f"planning_{k}.cfg"
            save_scenario(scenario, path)
            scenarios.append(str(path))
    else:
        scenario = _base(
            seed,
            pat_dt_s=params["pat_dt_s"],
            sky_background_rate_zenith=params["sky_background_rate_zenith"],
            protocol=dataclasses.replace(
                ProtocolConfig(), max_source_events=params["max_source_events"]),
        )
        path = directory / f"{workload}.cfg"
        save_scenario(scenario, path)
        scenarios = [str(path)]
    params["seed"] = seed
    return {"scenarios": scenarios, "params": params}
