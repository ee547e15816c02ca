"""Acquisition sequence and tracking-loop behavior."""
from __future__ import annotations

import numpy as np
import pytest

from qkdpass.errors import OutOfRange
from qkdpass.pat_controller import (NOT_DETECTED, CameraModel, FsmModel,
                                    MountModel, PatControllerConfig,
                                    PatMeasurements, PatPhase, centroid_offset,
                                    mount_step, pat_transition, run_pat)


def first_index(phases: np.ndarray, phase: PatPhase) -> int:
    hits = np.flatnonzero(phases == int(phase))
    return int(hits[0]) if hits.size else -1


def test_phase_sequence_order():
    series = run_pat(45.0, duration_s=30.0, dt_s=0.01, seed=0)
    uplink = first_index(series.phases, PatPhase.UplinkBeaconPointing)
    open_coarse = first_index(series.phases, PatPhase.OpenLoopCoarse)
    closed_coarse = first_index(series.phases, PatPhase.ClosedLoopCoarse)
    fine = first_index(series.phases, PatPhase.ClosedLoopFine)
    assert 0 <= uplink < open_coarse < closed_coarse < fine
    assert first_index(series.phases, PatPhase.SignalLost) == -1


def test_error_shrinks_through_sequence():
    series = run_pat(45.0, duration_s=30.0, dt_s=0.01, seed=1)
    fine_mask = series.phases == int(PatPhase.ClosedLoopFine)
    coarse_mask = series.phases == int(PatPhase.OpenLoopCoarse)
    assert fine_mask.any() and coarse_mask.any()
    initial = float(np.hypot(*MountModel().systematic_bias_arcsec))
    assert series.residual_arcsec[coarse_mask].mean() > 0.5 * initial
    assert series.residual_arcsec[fine_mask].mean() < 5.0
    assert np.mean(series.fine_residual_norm() <= 7.5) > 0.8


def test_run_pat_deterministic():
    a = run_pat(45.0, duration_s=10.0, seed=12)
    b = run_pat(45.0, duration_s=10.0, seed=12)
    assert np.array_equal(a.phases, b.phases)
    assert np.array_equal(a.residual_arcsec, b.residual_arcsec)
    assert np.array_equal(a.fine_residual, b.fine_residual)
    c = run_pat(45.0, duration_s=10.0, seed=13)
    assert not np.array_equal(a.residual_arcsec, c.residual_arcsec)


def test_low_elevation_stays_idle():
    series = run_pat(10.0, duration_s=5.0, seed=0)
    assert np.all(series.phases == int(PatPhase.Idle))
    assert series.lock_fraction() == 0.0
    assert series.fine_times_s.size == 0


def test_run_pat_validates_steps():
    with pytest.raises(OutOfRange):
        run_pat(45.0, duration_s=0.0)
    with pytest.raises(OutOfRange):
        run_pat(45.0, dt_s=-0.01)


def test_transition_table():
    config = PatControllerConfig()
    high = PatMeasurements(elevation_deg=45.0)
    low = PatMeasurements(elevation_deg=5.0)
    seen = PatMeasurements(elevation_deg=45.0, wfov=np.zeros(2), nfov=np.zeros(2))
    assert pat_transition(PatPhase.Idle, high, config) == PatPhase.UplinkBeaconPointing
    assert pat_transition(PatPhase.Idle, low, config) == PatPhase.Idle
    assert pat_transition(PatPhase.UplinkBeaconPointing, high, config) == PatPhase.OpenLoopCoarse
    assert pat_transition(PatPhase.OpenLoopCoarse, high, config) == PatPhase.OpenLoopCoarse
    assert pat_transition(PatPhase.OpenLoopCoarse, seen, config) == PatPhase.ClosedLoopCoarse
    assert pat_transition(PatPhase.ClosedLoopCoarse, high, config) == PatPhase.ClosedLoopCoarse
    assert pat_transition(PatPhase.ClosedLoopCoarse, seen, config) == PatPhase.ClosedLoopFine
    assert pat_transition(PatPhase.ClosedLoopFine, seen, config) == PatPhase.ClosedLoopFine
    lost = PatMeasurements(elevation_deg=45.0, consecutive_dropouts=config.dropout_limit)
    assert pat_transition(PatPhase.ClosedLoopFine, lost, config) == PatPhase.SignalLost
    assert pat_transition(PatPhase.SignalLost, seen, config) == PatPhase.ClosedLoopCoarse
    # dipping below the elevation gate aborts from any phase
    assert pat_transition(PatPhase.ClosedLoopFine, low, config) == PatPhase.Idle


def test_centroid_detection_bounds():
    camera = CameraModel(fov_arcsec=100.0, centroid_noise_rms_arcsec=0.0, frame_rate_hz=10.0)
    inside = centroid_offset(camera, np.array([30.0, 30.0]), 0)
    assert inside is not NOT_DETECTED
    assert inside == pytest.approx([30.0, 30.0])
    assert centroid_offset(camera, np.array([40.0, 40.0]), 0) is NOT_DETECTED


def test_mount_step_slew_limit_and_latency():
    mount = MountModel(max_slew_rate_dps=1.0, command_latency_s=0.02,
                       jitter_rms_arcsec=0.0)
    # 0.1 s interval leaves 0.08 s of motion: 0.08 deg = 288 arcsec
    move = mount_step(mount, np.array([1000.0, 0.0]), 0.1, 0)
    assert np.hypot(*move) == pytest.approx(288.0, rel=1e-9)
    # small command within the limit is executed fully
    move = mount_step(mount, np.array([10.0, 5.0]), 0.1, 0)
    assert move == pytest.approx([10.0, 5.0])
    # interval shorter than the latency moves nothing
    move = mount_step(mount, np.array([10.0, 5.0]), 0.01, 0)
    assert move == pytest.approx([0.0, 0.0])


def test_elevation_callable_evaluated_once_on_the_grid():
    calls = []

    def elevation(times_s):
        calls.append(np.array(times_s))
        return np.full(len(times_s), 45.0)

    series = run_pat(elevation, duration_s=5.0, dt_s=0.01, seed=3)
    assert len(calls) == 1
    assert np.array_equal(calls[0], series.times_s)
    assert len(calls[0]) == 500
    constant = run_pat(45.0, duration_s=5.0, dt_s=0.01, seed=3)
    assert np.array_equal(series.residual_arcsec, constant.residual_arcsec)


def test_fsm_command_stays_within_mirror_range():
    config = PatControllerConfig(fsm=FsmModel(range_arcsec=2.0))
    series = run_pat(45.0, config, duration_s=20.0, dt_s=0.01, seed=4)
    norms = np.hypot(series.fsm_cmd[:, 0], series.fsm_cmd[:, 1])
    assert series.lock_fraction() > 0.5
    # a range this small is hit on most steps, so the limit is exercised
    assert np.mean(norms >= 2.0 * (1.0 - 1e-9)) > 0.5
    assert np.all(norms <= 2.0 * (1.0 + 1e-12))


def test_fine_loop_telemetry_shape():
    series = run_pat(45.0, duration_s=20.0, dt_s=0.01, seed=4)
    assert series.fine_times_s.size == series.fine_residual.shape[0]
    assert series.fine_residual.shape[1] == 2
    assert np.all(np.diff(series.fine_times_s) > 0.0)
    assert 0.0 < series.lock_fraction() <= 1.0
    times, residual = series.residual_profile()
    assert times.shape == residual.shape
    assert np.all(residual >= 0.0)


def test_config_requires_nested_fields():
    with pytest.raises(OutOfRange):
        PatControllerConfig(nfov=CameraModel(fov_arcsec=7200.0,
                                             centroid_noise_rms_arcsec=0.5,
                                             frame_rate_hz=100.0))
    with pytest.raises(OutOfRange):
        MountModel(max_slew_rate_dps=0.0)
    with pytest.raises(OutOfRange):
        FsmModel(loop_gain=0.0)
