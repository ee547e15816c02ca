"""Every [pcs] and [sync] key changes an output in a named regime.

Each case perturbs one leaf key as a scenario file would set it and
names the regime where the change must show. A key with no such regime
is dead and goes. [pcs] keys run the frame profile and its correction on
the zenith pass; [sync] keys run the whole pass on a small pair cap.
"""
from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from qkdpass.bbm92_pipeline import simulate_pass
from qkdpass.polarization_correction import frame_offset_profile, \
    run_polarization_correction
from qkdpass.scenario import ProtocolConfig, Scenario, scenario_from_nested, \
    scenario_to_nested
from conftest import base_scenario

# (section, key): (perturbed value, regime where the change shows)
PCS_KEYS = {
    ("pcs", "body_yaw_deg"): (12.0, "geometric profile: theta shifts"),
    ("pcs", "scripted_constant_deg"): (30.0, "scripted constant profile"),
    ("pcs", "scripted_ramp_deg"): ([-10.0, 20.0], "scripted ramp profile"),
    ("pcs", "update_interval_s"): (2.5, "any profile: fewer updates"),
    ("pcs", "uncompensated_offset_deg"): (2.0, "any profile: biased estimate"),
    ("pcs.polarimeter", "hwp_settings_deg"): (
        [0.0, 22.5, 45.0], "any profile: estimator counts"),
    ("pcs.polarimeter", "detector_pair_efficiency_ratio"): (
        0.8, "any profile: estimator counts"),
    ("pcs.polarimeter", "integration_s"): (0.5, "any profile: estimator counts"),
    ("pcs.polarimeter", "count_rate_hz"): (2e4, "any profile: estimator counts"),
}

# (section, key): (perturbed value, regime, whether sync fails in it)
SYNC_KEYS = {
    ("sync", "beacon_jitter_rms_s"): (2e-9, "any beacon: the fitted clock", False),
    ("sync", "max_offset_s"): (
        1e-3, "clock offset 1.2345 ms beyond the bound", True),
    ("sync", "min_matched"): (10**9, "more matches demanded than pulses", True),
    # bins from 1 ns to 60 us leave the fold peak and the fit as they are
    ("sync", "bin_s"): (1e-11, "bins too fine for a fold peak", True),
}


def test_every_pcs_and_sync_key_has_a_case():
    data = scenario_to_nested(Scenario())
    leaves = {(section, key) for section in ("pcs", "pcs.polarimeter", "sync")
              for key in data[section]}
    assert leaves == set(PCS_KEYS) | set(SYNC_KEYS)


def _pcs_series(profile, data: dict) -> list[np.ndarray]:
    config = scenario_from_nested(data).pcs
    frame = frame_offset_profile(profile, config, 1.0, float(profile.duration_s))
    series = run_polarization_correction(frame, config, seed=7)
    return [series.update_times_s, series.theta_true_deg, series.theta_hat_deg]


@pytest.mark.parametrize("section, key", sorted(PCS_KEYS))
def test_pcs_key_changes_the_correction_series(zenith_profile, section, key):
    value, regime = PCS_KEYS[section, key]
    base = _pcs_series(zenith_profile, {})
    changed = _pcs_series(zenith_profile, {section: {key: value}})
    assert not all(np.array_equal(a, b) for a, b in zip(base, changed)), regime


def _report(sync_data: dict) -> dict:
    scenario = base_scenario(
        pat_dt_s=0.05,
        protocol=dataclasses.replace(ProtocolConfig(), max_source_events=30_000),
        sync=scenario_from_nested({"sync": sync_data}).sync)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate_pass(scenario).report.to_dict()


@pytest.fixture(scope="module")
def base_report():
    report = _report({})
    assert report["sync_offset_s"] is not None
    return report


@pytest.mark.parametrize("section, key", sorted(SYNC_KEYS))
def test_sync_key_changes_the_report(base_report, section, key):
    value, regime, fails = SYNC_KEYS[section, key]
    report = _report({key: value})
    assert report != base_report, regime
    assert (report["sync_offset_s"] is None) == fails, regime
