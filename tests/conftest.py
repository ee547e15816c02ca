"""Shared fixtures: a synthetic zenith pass and scenario builders."""
from __future__ import annotations

import dataclasses
from datetime import datetime, timezone

import numpy as np
import pytest

from qkdpass.channel_link import LinkConfig
from qkdpass.orbit_dynamics import (GroundSite, format_tle, gmst_radians,
                                    julian_date, make_tle, predict_passes,
                                    sample_pass)
from qkdpass.photon_source import SourceConfig
from qkdpass.scenario import Scenario

EPOCH = datetime(2024, 3, 1, 12, 0, 0, tzinfo=timezone.utc)
SITE = GroundSite(latitude_deg=47.0, longitude_deg=8.0, altitude_m=540.0)


def zenith_tle(mean_motion: float = 15.2, inclination: float = 90.0,
               mean_anomaly: float = 30.0):
    """Polar orbit whose ascending node sits over the site at epoch.

    With the site on the orbit plane the first pass culminates near
    zenith, which is the stressing geometry for slew rate and frame
    rotation.
    """
    gmst_deg = np.degrees(gmst_radians(julian_date(EPOCH))) % 360.0
    return make_tle(
        epoch=EPOCH,
        inclination=inclination,
        raan=(gmst_deg + SITE.longitude_deg) % 360.0,
        mean_motion=mean_motion,
        mean_anomaly=mean_anomaly,
    )


def base_scenario(**overrides) -> Scenario:
    """Small, fast end-to-end scenario: modest pump, bright link."""
    defaults = dict(
        tle_lines=format_tle(zenith_tle()),
        site=SITE,
        source=dataclasses.replace(SourceConfig(), pump_power_mw=0.05),
        link=dataclasses.replace(LinkConfig(), rx_aperture_diameter_m=1.0,
                                 tx_divergence_rad=10e-6),
        seed=7,
    )
    defaults.update(overrides)
    return dataclasses.replace(Scenario(), **defaults)


def stable_sorted(times, *columns):
    """times and each column reordered by a stable argsort of times: the
    order of a tag stream whose blocks were corrected and joined."""
    order = np.argsort(times, kind="stable")
    return (times[order], *(column[order] for column in columns))


@pytest.fixture(scope="session")
def zenith_pass():
    tle = zenith_tle()
    passes = predict_passes(tle, SITE, EPOCH, EPOCH.replace(hour=14),
                            min_elevation_deg=10.0)
    assert passes, "fixture orbit must produce a pass"
    return tle, passes[0]


@pytest.fixture(scope="session")
def zenith_profile(zenith_pass):
    tle, window = zenith_pass
    return sample_pass(tle, SITE, window, step_s=1.0)


@pytest.fixture(scope="session")
def sim_result():
    """One shared full-pipeline run for tests that only inspect it."""
    import warnings
    from qkdpass.bbm92_pipeline import simulate_pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate_pass(base_scenario())


def write_demo_inputs(tmp_path, **extra_sections) -> tuple[str, str]:
    """Write a TLE file and scenario file for CLI tests.

    extra_sections maps section name (dots spelled as double
    underscores) to "key = json" lines merged over the defaults;
    a repeated key replaces the default.
    """
    l1, l2 = format_tle(zenith_tle())
    tle_path = tmp_path / "demo.tle"
    tle_path.write_text(f"DEMO SAT\n{l1}\n{l2}\n")
    sections: dict[str, dict[str, str]] = {
        "scenario": {"tle_path": f'"{tle_path}"', "seed": "7",
                     "output_dir": f'"{tmp_path / "out"}"'},
        "site": {"latitude_deg": "47.0", "longitude_deg": "8.0",
                 "altitude_m": "540.0"},
        "source": {"pump_power_mw": "0.05"},
        "link": {"rx_aperture_diameter_m": "1.0", "tx_divergence_rad": "1e-05"},
        "protocol": {"max_source_events": "500000"},
    }
    for key, lines in extra_sections.items():
        target = sections.setdefault(key.replace("__", "."), {})
        for line in lines:
            name, _, value = line.partition("=")
            target[name.strip()] = value.strip()
    body: list[str] = []
    for section, pairs in sections.items():
        body.append(f"[{section}]")
        body += [f"{name} = {value}" for name, value in pairs.items()]
        body.append("")
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text("\n".join(body))
    return str(cfg_path), str(tle_path)
