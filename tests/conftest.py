"""Shared fixtures: a synthetic zenith pass and scenario builders."""
from __future__ import annotations

import dataclasses
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from qkdpass import channel_link, quantum_receiver
from qkdpass.channel_link import BackgroundCarry, ChannelResult, LinkConfig, apply_channel
from qkdpass.orbit_dynamics import (GroundSite, format_tle, gmst_radians,
                                    julian_date, make_tle, predict_passes,
                                    sample_pass)
from qkdpass.photon_source import (PairCarry, PairEventStream, SourceConfig,
                                   generate_pair_stream)
from qkdpass.quantum_receiver import DetectorCarry, TagStream, apply_detector
from qkdpass.scenario import Scenario
from qkdpass.seeding import module_rng, module_streams

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


def pair_stream(config: SourceConfig, duration_s: float, seed: int = 0) -> PairEventStream:
    """The window's pair stream for a seed: generate_pair_stream's blocks
    from PairCarry.seeded(seed), joined."""
    carry, blocks = PairCarry.seeded(seed), []
    while not carry.done:
        blocks.append(generate_pair_stream(config, duration_s, carry))
    return PairEventStream(np.concatenate([b.emission_times for b in blocks]),
                           np.concatenate([b.idler_channel for b in blocks]),
                           duration_s, config)


def channel_window(stream: PairEventStream, profile, seed: int) -> ChannelResult:
    """apply_channel over a whole window from the seed's channel stream:
    the survivors, then every block of background over the window, joined."""
    rng = module_rng(seed, channel_link.MODULE_NAME)
    survivors = apply_channel(stream, profile, rng).survivor_indices
    no_pairs = dataclasses.replace(stream, emission_times=np.empty(0),
                                   idler_channel=np.empty(0, np.uint8))
    carry, background = BackgroundCarry((0.0, stream.duration_s)), []
    while not carry.done:
        background.append(apply_channel(no_pairs, profile, rng, carry).background_times)
    return ChannelResult(survivors, np.concatenate(background))


def detect(times, channels, model, clock, rng, span_s=None, origins=None) -> TagStream:
    """apply_detector on a whole arrival stream, its only block.

    rng is one Generator, passed as all three streams, or a seed of the
    detector's three child streams; span_s defaults to the arrivals' extent.
    """
    rngs = (rng,) * 3 if isinstance(rng, np.random.Generator) \
        else module_streams(rng, quantum_receiver.MODULE_NAME + ".detector", 3)
    if span_s is None:
        span_s = (float(np.min(times)), float(np.max(times))) if len(times) else (0.0, 0.0)
    return apply_detector(times, channels, model, clock, rngs, span_s, DetectorCarry(),
                          origins=origins)


def arm_tags(result, arm: str) -> TagStream:
    """A pass's "onboard" or "ground" tags: that arm's result.tag_blocks(), joined."""
    side = ("onboard", "ground").index(arm)
    columns = [(blocks[side].times_s, blocks[side].channels, blocks[side].origins)
               for blocks in result.tag_blocks()]
    return TagStream(*(np.concatenate(column) for column in zip(*columns)))


def write_blocks(writer, blocks, path) -> None:
    """A tag writer's file: each of blocks sent to writer(path), then closed."""
    sink = writer(path)
    for block in blocks:
        sink.send(block)
    sink.close()


def traced_memory(fn, *args, **kwargs):
    """fn(*args, **kwargs), and the traced memory live after it and at its
    peak, both in bytes above what was live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, live - base, peak - base


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
