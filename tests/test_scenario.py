"""Scenario files: both formats, round trips, validation."""
from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from qkdpass.orbit_dynamics import format_tle
from qkdpass.pat_controller import DEFAULT_NFOV, MountModel
from qkdpass.scenario import (Scenario, ScenarioError, load_scenario,
                              save_scenario, scenario_from_nested,
                              scenario_to_nested, write_example)
from conftest import base_scenario, zenith_tle


def test_round_trip_cfg(tmp_path):
    scenario = base_scenario(seed=42, output_dir="results")
    path = tmp_path / "pass.cfg"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_round_trip_json(tmp_path):
    scenario = base_scenario(seed=42)
    path = tmp_path / "pass.json"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_save_is_byte_stable(tmp_path):
    scenario = base_scenario()
    for suffix in ("cfg", "json"):
        first = tmp_path / f"a.{suffix}"
        second = tmp_path / f"b.{suffix}"
        save_scenario(scenario, first)
        save_scenario(scenario, second)
        assert first.read_bytes() == second.read_bytes()


def test_defaults_round_trip_through_nested():
    scenario = Scenario()
    assert scenario_from_nested(scenario_to_nested(scenario)) == scenario


def test_minimal_file_uses_defaults(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text("[scenario]\nseed = 9\n")
    scenario = load_scenario(path)
    assert scenario.seed == 9
    assert scenario == Scenario(seed=9)


def test_nested_sections_reach_subobjects(tmp_path):
    path = tmp_path / "nested.cfg"
    path.write_text(
        "[scenario]\n"
        "seed = 3\n"
        "[site]\n"
        "latitude_deg = -33.9\n"
        "longitude_deg = 18.4\n"
        "[pat.mount]\n"
        "systematic_bias_arcsec = [10.0, -20.0]\n"
        "jitter_rms_arcsec = 2.5\n"
        "[pat.nfov]\n"
        "frame_rate_hz = 20\n"
        "[detectors.ground]\n"
        "efficiency = 0.25\n"
        "[sync]\n"
        "bin_s = 5e-08\n"
    )
    scenario = load_scenario(path)
    # a partial section keeps the defaults of the keys it leaves out
    assert scenario.pat.nfov == replace(DEFAULT_NFOV, frame_rate_hz=20)
    assert scenario.site.latitude_deg == -33.9
    assert scenario.pat.mount == MountModel(systematic_bias_arcsec=(10.0, -20.0),
                                            jitter_rms_arcsec=2.5)
    assert scenario.ground_detector.efficiency == 0.25
    assert scenario.onboard_detector.efficiency != 0.25
    assert scenario.sync.bin_s == 5e-8


def test_inline_tle_lines(tmp_path):
    line1, line2 = format_tle(zenith_tle())
    path = tmp_path / "inline.json"
    scenario = base_scenario()
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded.tle_lines == (line1, line2)
    tle = loaded.load_tle()
    assert tle.satellite_number == 99999


def test_tle_path_reads_file(tmp_path):
    line1, line2 = format_tle(zenith_tle())
    tle_file = tmp_path / "sat.tle"
    tle_file.write_text(f"{line1}\n{line2}\n")
    scenario = Scenario(tle_path=str(tle_file))
    assert scenario.load_tle().satellite_number == 99999
    missing = Scenario(tle_path=str(tmp_path / "nope.tle"))
    with pytest.raises(FileNotFoundError):
        missing.load_tle()


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[warp_drive]\npower = 11\n")
    with pytest.raises(ScenarioError):
        load_scenario(path)


@pytest.mark.parametrize("section, key", [
    ("site", "elevation_furlongs"),
    # keys no code read, removed from the scenario surface
    ("source", "rng_seed"),
    ("source", "beacon_pulse_width_s"),
    ("pat.wfov", "detection_snr_threshold"),
    ("source", "signal_wavelength_nm"),
    ("source", "idler_wavelength_nm"),
    ("site", "name"),
    # the frame-offset profile follows from the keys that are set
    ("pcs", "mode"),
    # a subsection is not a key of its parent
    ("pat", "mount"),
    ("pcs", "polarimeter"),
    ("pat", "wfov"),
])
def test_unknown_key_rejected(tmp_path, section, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{key} = 3\n")
    with pytest.raises(ScenarioError, match="unknown key"):
        load_scenario(path)


def test_invalid_value_surfaces_as_scenario_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[site]\nlatitude_deg = 200.0\n")
    with pytest.raises(ScenarioError):
        load_scenario(path)


@pytest.mark.parametrize("lines", [
    ["scripted_constant_deg = 30", "scripted_ramp_deg = [-10, 20]"],
    ["scripted_constant_deg = 30", "body_yaw_deg = 5"],
    ["scripted_ramp_deg = [-10, 20]", "body_yaw_deg = 5"],
    ["scripted_ramp_deg = [-10, 0, 20]"],
])
def test_invalid_pcs_keys_rejected(tmp_path, lines):
    path = tmp_path / "bad.cfg"
    path.write_text("[pcs]\n" + "\n".join(lines) + "\n")
    with pytest.raises(ScenarioError, match="invalid \\[pcs\\]"):
        load_scenario(path)


@pytest.mark.parametrize("lines, loads", [
    (["[sync]", "bin_s = 1e-14"], False),  # 1e10 bins at 10 kHz
    (["[sync]", "bin_s = 1e-11"], True),   # 1e7 bins: sync fails, the run does not
    (["[sync]", "bin_s = 1e-11", "[source]", "beacon_frequency_hz = 1e3"], False),
    (["[sync]", "bin_s = 1e-14", "[source]", "beacon_frequency_hz = 0"], True),  # no beacon
])
def test_sync_bins_per_beacon_period_are_bounded(tmp_path, lines, loads):
    path = tmp_path / "bins.cfg"
    path.write_text("\n".join(lines) + "\n")
    if loads:
        load_scenario(path)
    else:
        with pytest.raises(ScenarioError, match="fold bins"):
            load_scenario(path)


def test_write_example_is_loadable(tmp_path):
    path = tmp_path / "scenario.example"
    write_example(path)
    scenario = load_scenario(path)
    assert scenario.tle_path == "satellite.tle"
    text = path.read_text()
    # every section appears spelled out so the example doubles as docs
    for section in ("[scenario]", "[site]", "[source]", "[link]", "[pat]",
                    "[pcs]", "[detectors.ground]", "[clock]", "[sync]",
                    "[prediction]", "[protocol]"):
        assert section in text


def test_malformed_files_surface_as_scenario_error(tmp_path):
    missing = tmp_path / "absent.cfg"
    with pytest.raises(ScenarioError):
        load_scenario(missing)
    not_ini = tmp_path / "pass.cfg"
    not_ini.write_text("seed = 1\n")  # key before any section header
    with pytest.raises(ScenarioError):
        load_scenario(not_ini)
    bad_json = tmp_path / "pass.json"
    bad_json.write_text("{broken")
    with pytest.raises(ScenarioError):
        load_scenario(bad_json)
    list_json = tmp_path / "list.json"
    list_json.write_text("[1, 2]")
    with pytest.raises(ScenarioError):
        load_scenario(list_json)
    scalar_section = tmp_path / "scalar.json"
    scalar_section.write_text('{"site": 5}')
    with pytest.raises(ScenarioError, match="invalid \\[site\\]"):
        load_scenario(scalar_section)


# sha256 of the writer's output for the default scenario: files written by
# earlier versions must keep loading, so the section layout may not drift.
# Re-recorded when [site] name was removed; both files lost exactly that
# key (the JSON file also the comma before it).
EXAMPLE_SHA256 = "ea7da4283c01cdc6c4ecda18d6d45bfbad23179efdaab4175f7bfbdd19d23026"
DEFAULT_JSON_SHA256 = "3eaf49c90c1b73c55fe14148c409740c92debfaca1f8fca315cbdf4915ff2977"


def test_writer_bytes_are_pinned(tmp_path):
    example = tmp_path / "scenario.example"
    write_example(example)
    assert hashlib.sha256(example.read_bytes()).hexdigest() == EXAMPLE_SHA256
    defaults = tmp_path / "defaults.json"
    save_scenario(Scenario(), defaults)
    assert hashlib.sha256(defaults.read_bytes()).hexdigest() == DEFAULT_JSON_SHA256
