"""Acquisition sequence and tracking-loop behavior."""
from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from qkdpass import pat_controller
from qkdpass.bbm92_pipeline import link_budget, simulate_pass
from qkdpass.errors import OutOfRange
from qkdpass.pat_controller import (MODULE_NAME, CameraModel, FsmModel,
                                    MountModel, PatControllerConfig,
                                    PatMeasurements, PatPhase, _CHAIN_ROUNDS,
                                    _frame_chain, _servo_response,
                                    centroid_offset, mount_step, pat_transition,
                                    run_pat)
from qkdpass.seeding import module_streams
from conftest import base_scenario, traced_memory


def first_index(phases: np.ndarray, phase: PatPhase) -> int:
    hits = np.flatnonzero(phases == int(phase))
    return int(hits[0]) if hits.size else -1


def phase_runs(phases: np.ndarray) -> list[PatPhase]:
    """The phase sequence with repeats collapsed."""
    keep = np.concatenate([[True], phases[1:] != phases[:-1]])
    return [PatPhase(int(code)) for code in phases[keep]]


def assert_transitions_allowed(phases: np.ndarray, config: PatControllerConfig) -> None:
    """Every consecutive phase pair is one pat_transition can produce."""
    gate = config.threshold_elevation_deg
    seen = (None, np.zeros(2))
    allowed = {
        (phase, pat_transition(phase, PatMeasurements(el, wfov, nfov, drops), config))
        for phase in PatPhase for el in (gate - 1.0, gate + 1.0)
        for wfov in seen for nfov in seen for drops in (0, config.dropout_limit)
    }
    pairs = set(zip(phases[:-1].tolist(), phases[1:].tolist()))
    assert pairs <= {(int(a), int(b)) for a, b in allowed}


def assert_trace_ends_at_step_ends(series):
    """Each update's last rebuilt sub-step is the loop's step-end residual."""
    steps = series._fine_updates.steps
    if not len(steps):
        return
    ends = series.fine_residual.reshape(len(steps), -1, 2)[:, -1]
    step_end = series.true_error[steps] - series.fsm_cmd[steps]
    assert np.allclose(ends, step_end, rtol=0.0, atol=1e-9)


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
    meas = centroid_offset(camera, np.array([[30.0, 30.0], [40.0, 40.0]]),
                           np.array([[0.5, -0.5], [0.0, 0.0]]))
    assert meas[0] == pytest.approx([30.5, 29.5])
    assert np.all(np.isnan(meas[1]))


def test_mount_step_slew_limit_and_latency():
    mount = MountModel(max_slew_rate_dps=1.0, command_latency_s=0.02,
                       jitter_rms_arcsec=0.0)
    commands = np.array([[1000.0, 0.0], [10.0, 5.0]])
    move = mount_step(mount, commands, 0.1, np.zeros((2, 2)))
    # 0.1 s interval leaves 0.08 s of motion: 0.08 deg = 288 arcsec
    assert np.hypot(*move[0]) == pytest.approx(288.0, rel=1e-9)
    # small command within the limit is executed fully
    assert move[1] == pytest.approx([10.0, 5.0])
    # interval shorter than the latency moves nothing but the jitter
    jitter = np.array([[0.25, -0.5], [0.0, 0.0]])
    assert mount_step(mount, commands, 0.01, jitter) == pytest.approx(jitter)
    with pytest.raises(OutOfRange):
        mount_step(mount, commands, 0.0, jitter)


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


def test_run_pat_memory_is_bounded_per_step():
    # the sub-step trace is rebuilt only when read: run_pat keeps about
    # 40 B per fine update, not the 60 sub-steps of each (the whole trace
    # took 1505 B per step live and a 77.5 MiB peak). The fine loop draws
    # only each update's step end, so no sub-step noise buffer remains:
    # the peak is 7.8 MiB measured, bounded here with 2.2 MiB of margin
    # (14.5 MiB while it drew 60 sub-steps per update)
    n = 45_000
    series, live, peak = traced_memory(run_pat, 45.0, duration_s=450.0, dt_s=0.01)
    assert len(series.times_s) == n and series.lock_fraction() > 0.99
    assert live / n <= 200.0
    assert peak <= 10 * 2**20


def test_pipeline_leaves_fine_trace_unbuilt(monkeypatch):
    def refuse(self, times_s):
        raise AssertionError("fine-loop trace built")

    monkeypatch.setattr(pat_controller._FineUpdates, "trace", refuse)
    scenario = base_scenario(protocol=replace(base_scenario().protocol,
                                              max_source_events=20_000))
    assert len(link_budget(scenario).times_s) > 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = simulate_pass(scenario)
    assert result.pat.lock_fraction() > 0.5
    with pytest.raises(AssertionError, match="trace built"):
        result.pat.fine_residual_norm()


def test_fine_loop_step_end_variance_pull():
    """Steady fine tracking: each axis of the step-end residual has variance
    sigma^2 alpha / (2 - alpha), since the carry-over from the step's start
    decays by (1 - alpha)^n_sub, about 4e-17."""
    config = PatControllerConfig()
    dt = 0.01
    series = run_pat(45.0, config, duration_s=210.0, dt_s=dt, seed=5)
    updates = np.count_nonzero(series.phases == int(PatPhase.ClosedLoopFine))
    n_sub = len(series.fine_times_s) // updates
    alpha = 1.0 - np.exp(-2.0 * np.pi * config.fsm.bandwidth_hz * dt / n_sub)
    # skip the first half second: the fine loop starts on the uncorrected
    # mount bias, beyond the mirror range, until the next wide-camera frame
    ends = series.fine_residual.reshape(updates, n_sub, 2)[50:, -1]
    fine = series.phases == int(PatPhase.ClosedLoopFine)
    assert np.all(np.hypot(*series.fsm_cmd[fine][50:].T) < config.fsm.range_arcsec)
    assert len(ends) > 20_000
    expected = config.nfov.centroid_noise_rms_arcsec ** 2 * alpha / (2.0 - alpha)
    observed = np.mean(ends ** 2, axis=0)  # the residual has zero mean
    pulls = (observed - expected) / (expected * np.sqrt(2.0 / len(ends)))
    assert np.all(np.abs(pulls) < 4.0), pulls


def test_fine_loop_sub_step_noise_is_white():
    """The trace's sub-step noise, recovered from consecutive residuals as
    n[k] = -(r[k] - (1 - alpha) r[k-1]) / alpha for k >= 1, has variance
    sigma^2 and no lag-1 correlation, though each update's noise is
    conditioned on the step end the loop drew directly."""
    config = PatControllerConfig()
    dt = 0.01
    series = run_pat(45.0, config, duration_s=210.0, dt_s=dt, seed=5)
    assert_trace_ends_at_step_ends(series)
    updates = np.count_nonzero(series.phases == int(PatPhase.ClosedLoopFine))
    n_sub = len(series.fine_times_s) // updates
    alpha = 1.0 - np.exp(-2.0 * np.pi * config.fsm.bandwidth_hz * dt / n_sub)
    r = series.fine_residual.reshape(updates, n_sub, 2)[50:]
    noise = -(r[:, 1:] - (1.0 - alpha) * r[:, :-1]) / alpha
    sigma2 = config.nfov.centroid_noise_rms_arcsec ** 2
    observed = np.mean(noise ** 2, axis=(0, 1))  # the noise has zero mean
    pulls = (observed - sigma2) / (sigma2 * np.sqrt(2.0 / (noise.size // 2)))
    assert np.all(np.abs(pulls) < 4.0), pulls
    lag = noise[:, 1:] * noise[:, :-1]
    corr = np.mean(lag, axis=(0, 1)) / sigma2
    assert np.all(np.abs(corr) * np.sqrt(lag.size // 2) < 4.0), corr


def test_fine_loop_draws_two_normals_per_update(monkeypatch):
    """run_pat draws one step-end pair per narrow-camera frame slot from the
    fine-loop stream, and never runs the sub-step servo."""
    drawn = []

    def streams(*args):
        drawn.append(module_streams(*args))
        return drawn[-1]

    def refuse(*args):
        raise AssertionError("sub-step servo run")

    monkeypatch.setattr(pat_controller, "module_streams", streams)
    monkeypatch.setattr(pat_controller, "_servo_rows", refuse)
    series = run_pat(45.0, duration_s=20.0, dt_s=0.01, seed=4)
    assert len(drawn) == 1 and series.lock_fraction() > 0.9
    slots = len(series.times_s)  # the narrow camera frames every step
    assert len(series._fine_updates.steps) <= slots
    fresh = module_streams(4, MODULE_NAME, 5)[4]
    fresh.standard_normal(2 * slots)
    assert drawn[0][4].bit_generator.state == fresh.bit_generator.state


def test_dropouts_fall_back_to_coarse_and_reacquire():
    # a 6 arcsec narrow field loses the beacon to ordinary mount jitter
    config = PatControllerConfig(nfov=CameraModel(fov_arcsec=6.0, centroid_noise_rms_arcsec=0.5,
                                                  frame_rate_hz=100.0))
    series = run_pat(45.0, config, duration_s=30.0, dt_s=0.01, seed=0)
    runs = phase_runs(series.phases)
    lost = [k for k, phase in enumerate(runs) if phase == PatPhase.SignalLost]
    assert lost, "the narrow field must drop the beacon"
    for k in lost:
        assert runs[k - 1] == PatPhase.ClosedLoopFine
        assert runs[k + 1] == PatPhase.ClosedLoopCoarse
    assert PatPhase.ClosedLoopFine in runs[lost[0] + 1:]
    # the mirror is re-centred for re-acquisition
    assert np.all(series.fsm_cmd[series.phases == int(PatPhase.SignalLost)] == 0.0)
    assert_transitions_allowed(series.phases, config)


def test_elevation_dip_drops_to_idle_and_reacquires():
    config = PatControllerConfig()

    def elevation(times_s):
        return np.where((times_s >= 12.0) & (times_s < 13.5), 10.0, 45.0)

    series = run_pat(elevation, config, duration_s=30.0, dt_s=0.01, seed=2)
    sequence = [PatPhase.Idle, PatPhase.UplinkBeaconPointing, PatPhase.OpenLoopCoarse,
                PatPhase.ClosedLoopCoarse, PatPhase.ClosedLoopFine]
    assert phase_runs(series.phases) == sequence + sequence
    dip = (series.times_s >= 12.0 + series.dt_s) & (series.times_s < 13.5)
    assert np.all(series.phases[dip] == int(PatPhase.Idle))
    assert np.all(series.fsm_cmd[dip] == 0.0)
    assert_transitions_allowed(series.phases, config)


@pytest.mark.parametrize("frame_rate_hz", [100.0, 50.0, 33.4, 25.0, 20.0])
def test_lock_fraction_independent_of_narrow_camera_rate(frame_rate_hz):
    """dropout_limit counts missed frames: a slow camera that always sees the
    beacon never trips it, even when frames are further apart than the limit
    in steps (25 Hz and 20 Hz at dt = 0.01 s with a limit of 3)."""
    config = PatControllerConfig(nfov=CameraModel(120.0, 0.5, frame_rate_hz),
                                 dropout_limit=3)
    series = run_pat(60.0, config, duration_s=60.0, dt_s=0.01, seed=1)
    assert series.lock_fraction() >= 0.99
    assert not np.any(series.phases == int(PatPhase.SignalLost))


def reference_run_pat(elevations, config, dt, seed):
    """The acquisition sequence one step at a time, on run_pat's noise streams.

    Each source draws as run_pat documents: step jitter per step, the
    two camera centroids and the mount jitter per frame slot, and the
    fine loop's step-end response z, one (x, y) pair per update in
    order. Each update's sub-step noise comes from the sixth stream,
    conditioned on c . n = z, where c weighs each sub-step's noise in
    the step end.
    """
    n = len(elevations)
    wfov_every = max(1, int(round(1.0 / (config.wfov.frame_rate_hz * dt))))
    nfov_every = max(1, int(round(1.0 / (config.nfov.frame_rate_hz * dt))))
    n_sub = max(1, int(round(dt * 10.0 * config.fsm.bandwidth_hz)))
    alpha = config.fsm.loop_gain * (1.0 - math.exp(-2.0 * math.pi * config.fsm.bandwidth_hz
                                                   * dt / n_sub))
    sigma = config.nfov.centroid_noise_rms_arcsec
    c = np.array([-alpha * (1.0 - alpha) ** (n_sub - 1 - k) for k in range(n_sub)])
    end_sigma = sigma * alpha * math.sqrt(sum((1.0 - alpha) ** (2 * j) for j in range(n_sub)))
    jitter_rng, wfov_rng, nfov_rng, mount_rng, fine_rng, sub_rng = module_streams(
        seed, MODULE_NAME, 6)
    jitter = jitter_rng.normal(0.0, config.mount.jitter_rms_arcsec, (n, 2))
    n_wfov, n_nfov = -(-n // wfov_every), -(-n // nfov_every)
    wfov_noise = wfov_rng.normal(0.0, config.wfov.centroid_noise_rms_arcsec, (n_wfov, 2))
    nfov_noise = nfov_rng.normal(0.0, config.nfov.centroid_noise_rms_arcsec, (n_nfov, 2))
    mount_jitter = mount_rng.normal(0.0, config.mount.jitter_rms_arcsec, (n_wfov, 2))

    phases = np.empty(n, dtype=np.int8)
    true_err, fsm_cmd, mount_cmd = np.empty((n, 2)), np.empty((n, 2)), np.empty((n, 2))
    fine = []
    phase, dropouts = PatPhase.Idle, 0
    base = np.array(config.mount.systematic_bias_arcsec, dtype=float)
    mount_total, fsm = np.zeros(2), np.zeros(2)
    for i in range(n):
        err = base + jitter[i]
        wfov = nfov = None
        if phase in (PatPhase.OpenLoopCoarse, PatPhase.ClosedLoopCoarse,
                     PatPhase.ClosedLoopFine, PatPhase.SignalLost):
            if i % wfov_every == 0 and np.hypot(*err) <= config.wfov.fov_arcsec / 2.0:
                wfov = err + wfov_noise[i // wfov_every]
            if i % nfov_every == 0 and np.hypot(*(err - fsm)) <= config.nfov.fov_arcsec / 2.0:
                nfov = err - fsm + nfov_noise[i // nfov_every]
        if phase == PatPhase.ClosedLoopFine:
            if i % nfov_every == 0:  # count missed frames, not steps between frames
                dropouts = dropouts + 1 if nfov is None else 0
        else:
            dropouts = 0
        if phase in (PatPhase.ClosedLoopCoarse, PatPhase.ClosedLoopFine,
                     PatPhase.SignalLost) and wfov is not None:
            move = mount_step(config.mount, -wfov[np.newaxis], wfov_every * dt,
                              mount_jitter[i // wfov_every][np.newaxis])[0]
            base = base + move
            mount_total = mount_total + move
            err = base
        if phase == PatPhase.ClosedLoopFine and nfov is not None:
            z = fine_rng.normal(0.0, end_sigma, 2)
            noises = sub_rng.normal(0.0, sigma, (n_sub, 2))
            noises += np.outer(c, (z - c @ noises) / (c @ c))
            trace, _ = lfilter([1.0], [1.0, -(1.0 - alpha)], -alpha * noises, axis=0,
                               zi=np.outer([1.0 - alpha], err - fsm))
            mirror = err[np.newaxis] - trace
            norms = np.hypot(mirror[:, 0], mirror[:, 1])
            mirror *= np.minimum(1.0, config.fsm.range_arcsec / np.maximum(norms, 1e-12))[:, np.newaxis]
            fsm = mirror[-1]
            fine.append(err[np.newaxis] - mirror)
        phases[i], true_err[i], mount_cmd[i], fsm_cmd[i] = phase, err, mount_total, fsm
        new_phase = pat_transition(
            phase, PatMeasurements(float(elevations[i]), wfov, nfov, dropouts), config)
        if new_phase == PatPhase.SignalLost or (
                new_phase == PatPhase.Idle and phase != PatPhase.Idle):
            fsm, dropouts = np.zeros(2), 0
        phase = new_phase
    return phases, true_err, mount_cmd, fsm_cmd, np.concatenate(fine) if fine else np.empty((0, 2))


_DIP = np.where((np.arange(1500) >= 600) & (np.arange(1500) < 700), 10.0, 45.0)
_REFERENCE_CASES = {
    "default": (PatControllerConfig(), 0.01),
    "mirror_range": (PatControllerConfig(fsm=FsmModel(range_arcsec=2.0)), 0.01),
    "narrow_field": (PatControllerConfig(nfov=CameraModel(6.0, 0.5, 100.0)), 0.01),
    "slow_narrow_camera": (PatControllerConfig(nfov=CameraModel(120.0, 0.5, 20.0),
                                               dropout_limit=3), 0.01),
    "slew_limit": (PatControllerConfig(mount=MountModel(
        max_slew_rate_dps=0.001, systematic_bias_arcsec=(900.0, 500.0))), 0.01),
    "wide_camera_misses": (PatControllerConfig(wfov=CameraModel(40.0, 5.0, 10.0),
                                               nfov=CameraModel(12.0, 0.5, 100.0)), 0.01),
    "coarse_step": (PatControllerConfig(), 0.05),
    # one sub-step per frame and beta = 0.99: the cross-frame chain runs row by row
    "low_gain": (PatControllerConfig(fsm=FsmModel(bandwidth_hz=10.0, loop_gain=0.01)), 0.01),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_segment_kernels_match_step_loop(case):
    """The phase-segment arrays reproduce the per-step loop on the same draws."""
    config, dt = _REFERENCE_CASES[case]
    phases, true_err, mount_cmd, fsm_cmd, fine = reference_run_pat(_DIP, config, dt, 3)
    series = run_pat(lambda times: _DIP, config, duration_s=len(_DIP) * dt, dt_s=dt, seed=3)
    assert np.array_equal(series.phases, phases)
    # the kernels reorder the arithmetic: agreement to rounding, not bits
    for got, want in ((series.true_error, true_err), (series.mount_cmd, mount_cmd),
                      (series.fsm_cmd, fsm_cmd), (series.fine_residual, fine)):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-9)
    assert_trace_ends_at_step_ends(series)


_PINNED_SERIES = ("phases", "true_error", "mount_cmd", "fsm_cmd", "residual_arcsec",
                  "fine_residual", "fine_times_s")
# sha256 of each of _PINNED_SERIES on _DIP at seed 3, recorded when the fine
# loop began to draw each update's step-end noise directly
PAT_SERIES_SHA256 = {
    "coarse_step": (
        "f817f15e6339b454385cd46eebee9e3c4e37b6d3fc60d54253bb57e1c5ebc849",
        "7c1e74e9617f32d6869bb1417cec48c6e1044e9683a958eb56dfc7f949281d46",
        "c691ff2428a7ee5a8518e7583e5dfca944ec7e65341505d15e070cd3cc27e9ea",
        "f68d24c0222b037d7ec59363d2ced4ea0e0db26435aaf5cdedf0865a8032c363",
        "ea83de2f765dc3b7515375160cd7e60e26bb6b36d7e781ead551ee11df097d12",
        "4577fd0fcacb48819f434ec4a4c4cd2888c680291e8b68ad0f54952fe3f0620b",
        "7fe599bf886284651a7471c8c3b7c89b5e16c2f7a7ced4f6c88756180aab9581",
    ),
    "default": (
        "c7208ffacbe0db1dbfec3010e9c9dc571547793a2718d9e65115680fd91ecb46",
        "e368fc62f037e7c12a87b2029e3814a7ebff9764819784acef47b09faf37ff05",
        "73178b6905706fa416f4ef4baf57b40b525693ff47f617245e9d258b245630ed",
        "72b85d1e5addb12e91df93e23eb3e7038eb78be82cbc2f1d8cb25a6efaa55cf7",
        "949a764ea4a49c83145e749041d338b27c09a04be6158b52d0212a8da97ef2ea",
        "6cc25c62b2ba4af46eaf1021196020a0597a37baa9eba967c13d885bf25133d6",
        "f1f3c9a2bff0f34dbd7a14e2c8012eebe3d2b0566470375c174a290b035b9fce",
    ),
    "low_gain": (
        "c7208ffacbe0db1dbfec3010e9c9dc571547793a2718d9e65115680fd91ecb46",
        "8461840ae4cdd4fbf41be224a9ff8f3bc67a018a9b7222673251cfd74e720df8",
        "f779faa39cda7c0fb47d5f499f3f3219c39b6839cd9a9758dadf87c4dc9c8d0e",
        "2ba89d267774e5df0efa18b4451643bde97dd57f5751c0dbab0dd6f0911568a5",
        "abdee436c7ef15809221cb7d8538258dfc2487c30c8f2755c33799e1d4cb7f4f",
        "bc6709e6fe8b0c33c3511e9dad19b84b7dcaf6a712b246fd23e8a0acc730dac1",
        "239fa8c78c0b2039fb042c9c983632b9289c67c90ce74024782a1904246e2fd8",
    ),
    "mirror_range": (
        "c7208ffacbe0db1dbfec3010e9c9dc571547793a2718d9e65115680fd91ecb46",
        "3f81571e5529281ce352db699387e308df62943ac133b419185df31e6c1d8106",
        "91cce8722a405050ad180e30cfe171eb23e74f5818410f1690f3d827acdbe70d",
        "34bf8c58bd02d8e88cab7e221070866b634a4414d2eed3486aca80dd6b0e526c",
        "9201acedd4dab6defd10c1f32829c01af7261ac50cd167d0b3dab9cc04e2816a",
        "5083fa30ef6533cb313668fb53b642ae232b723c9b8649f46e71f49c4c2fb9f5",
        "f1f3c9a2bff0f34dbd7a14e2c8012eebe3d2b0566470375c174a290b035b9fce",
    ),
    "narrow_field": (
        "4cedcc245f48a3ffc2694e33733fcd1f0aafe97bd8123a5ff14afd26ae1e64f9",
        "f48c1cf3149e58aadf00df6f94d86eb2190abcec252259f30ed1330f0ed0cb0b",
        "0c250e93861baa23b9e20e6148842ee25c2d4fae7c347ac77b1e779f12e1b713",
        "2c815b15f23ca6ac62aa990b4fdd0ed14a9f4f129220fe46a4afcff9dc7562e1",
        "1d79066440eb5126beee3240aa98986d63f932c7c148fc39f8a3a8ee0e5e5212",
        "9a1ba328deb673af30b0a14f79f2877b6fd97a64328f7d5088776afaa5419d9f",
        "d2de7f0ed9887007ff36bf98bda29537d83c69f337fafc78662e61426f876e23",
    ),
    "slew_limit": (
        "90392c56e6321b583d3cf9b6f73c6c4c837d95bea5ad211cddc5d46145a09117",
        "d71af013cc7a8bbc2961ee232ad95ea2652340bf50d74d8a177989e95192d2c8",
        "ee7b87f0710fe16c0a0df321dae105110801058b090b8992d07f587c970cc00d",
        "151ff79f29e96d211576b9a2e3e78f518b26109916616945d50cdee82dd2ba8b",
        "855baa96868f3243639cede1480bb3d96666f6118a4fe443118bbf82404f36bf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "slow_narrow_camera": (
        "48ce01a18f8180547d2bfa743fb636be1bf26a95eebe030df30444215ce91ee2",
        "8461840ae4cdd4fbf41be224a9ff8f3bc67a018a9b7222673251cfd74e720df8",
        "f779faa39cda7c0fb47d5f499f3f3219c39b6839cd9a9758dadf87c4dc9c8d0e",
        "28987bdac0032548be450a19ee215767f7123b213d8de7b74e9cc3dc69fb5934",
        "745270157b0cad5f33eb8d21143c89b118eb1f406aeb436b9d384d916a53f230",
        "2f6147c322430445c15ca667573fc2d6397a967dc90c6babefc0005c25d2b044",
        "3fb6849c9748c0edcd212321073d837641e10fcd0b7bccbb69fcd6f17403e4a4",
    ),
    "wide_camera_misses": (
        "a9ebaf5cb653aa7a53a3a1e0be8dd24f3f8b7bda83d67fe6eb4a75da48d45ecb",
        "edb7e972ddc6e4c253c38c4e14ce3c7633ac7f1f977343a0a988db4c39d2807b",
        "151ff79f29e96d211576b9a2e3e78f518b26109916616945d50cdee82dd2ba8b",
        "151ff79f29e96d211576b9a2e3e78f518b26109916616945d50cdee82dd2ba8b",
        "774d5ebaaa6b0deb4d3eff9b8c6358d453aa3011bbc6bc5b4719eba070226af1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("coarse_try_steps", [None, 1, 7])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_series_bits_are_pinned(case, coarse_try_steps, monkeypatch):
    """Every bit of the outer series and the sub-step trace: the step-loop
    comparison above holds only to 1e-9. However few steps a coarse loop
    tries first, the bits stay."""
    if coarse_try_steps:
        monkeypatch.setattr(pat_controller, "_COARSE_TRY_STEPS", coarse_try_steps)
    config, dt = _REFERENCE_CASES[case]
    series = run_pat(lambda times: _DIP, config, duration_s=len(_DIP) * dt, dt_s=dt, seed=3)
    digests = tuple(hashlib.sha256(np.ascontiguousarray(getattr(series, name)).tobytes())
                    .hexdigest() for name in _PINNED_SERIES)
    assert dict(zip(_PINNED_SERIES, digests)) == dict(
        zip(_PINNED_SERIES, PAT_SERIES_SHA256[case]))


def _oracle_noise(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Gaussian noise with zeros, -0.0 and values small enough to underflow mixed in."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, shape)
    kind = rng.integers(0, 6, shape)
    noise[kind == 0] = 0.0
    noise[kind == 1] = -0.0
    tiny = kind == 2
    noise[tiny] *= 10.0 ** rng.uniform(-325.0, -300.0, np.count_nonzero(tiny))
    return noise


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


_ALPHA = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=40, deadline=None)
@given(alpha=_ALPHA, n_sub=st.integers(1, 120), frames=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1))
@example(alpha=0.3, n_sub=60, frames=1, seed=0)  # a transposed (60, 1) block is contiguous
@example(alpha=0.3, n_sub=60, frames=1450, seed=1)
def test_servo_response_is_lfilter_bit_for_bit(alpha, n_sub, frames, seed):
    noise = _oracle_noise(seed, (frames, n_sub, 2))
    before = noise.copy()
    want = lfilter([-alpha], [1.0, -(1.0 - alpha)], noise, axis=1)
    assert _same_bits(_servo_response(noise, alpha), want)
    assert _same_bits(noise, before)


@settings(max_examples=40, deadline=None)
@given(alpha=_ALPHA, n_sub=st.integers(1, 120), frames=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1))
@example(alpha=0.3, n_sub=60, frames=1450, seed=2)  # converges in a few steps
@example(alpha=0.01, n_sub=1, frames=3000, seed=3)  # beta near 1: chained row by row
@example(alpha=0.5, n_sub=1, frames=_CHAIN_ROUNDS, seed=4)
@example(alpha=0.5, n_sub=1, frames=_CHAIN_ROUNDS + 1, seed=5)
def test_frame_chain_is_lfilter_bit_for_bit(alpha, n_sub, frames, seed):
    beta = (1.0 - alpha) ** n_sub
    x = _oracle_noise(seed, (frames, 2))
    before = x.copy()
    assert _same_bits(_frame_chain(x, beta), lfilter([1.0], [1.0, -beta], x, axis=0))
    assert _same_bits(x, before)

