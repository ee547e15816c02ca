"""Pointing, acquisition, and tracking sequence as a state machine.

Phases run Idle -> UplinkBeaconPointing -> OpenLoopCoarse ->
ClosedLoopCoarse -> ClosedLoopFine, with SignalLost re-entering the
coarse loop after repeated fine-camera dropouts and any phase dropping
to Idle below the uplink threshold elevation. The mount closes a slow
loop on the wide-field camera; a fast-steering mirror closes the fine
loop on the narrow-field camera at ten samples per servo time
constant. The emitted residual series is what the link budget sees.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .errors import OutOfRange
from .seeding import module_rng

MODULE_NAME = "pat_controller"


class PatPhase(enum.IntEnum):
    Idle = 0
    UplinkBeaconPointing = 1
    OpenLoopCoarse = 2
    ClosedLoopCoarse = 3
    ClosedLoopFine = 4
    SignalLost = 5


@dataclass(frozen=True)
class MountModel:
    """Tracking mount following the predicted trajectory."""

    max_slew_rate_dps: float = 1.0
    command_latency_s: float = 0.02
    systematic_bias_arcsec: tuple[float, float] = (45.0, -30.0)
    jitter_rms_arcsec: float = 1.5

    def __post_init__(self):
        if self.max_slew_rate_dps <= 0.0:
            raise OutOfRange("max slew rate must be positive")
        if self.command_latency_s < 0.0 or self.jitter_rms_arcsec < 0.0:
            raise OutOfRange("latency and jitter must be nonnegative")


@dataclass(frozen=True)
class CameraModel:
    """Beacon camera producing centroid measurements."""

    fov_arcsec: float
    centroid_noise_rms_arcsec: float
    frame_rate_hz: float

    def __post_init__(self):
        if self.fov_arcsec <= 0.0 or self.frame_rate_hz <= 0.0:
            raise OutOfRange("camera fov and frame rate must be positive")
        if self.centroid_noise_rms_arcsec < 0.0:
            raise OutOfRange("centroid noise must be nonnegative")


@dataclass(frozen=True)
class FsmModel:
    """Fast-steering mirror servo."""

    bandwidth_hz: float = 600.0
    range_arcsec: float = 30.0
    loop_gain: float = 1.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0.0 or self.range_arcsec <= 0.0:
            raise OutOfRange("bandwidth and range must be positive")
        if not 0.0 < self.loop_gain <= 1.0:
            raise OutOfRange(f"loop gain {self.loop_gain} outside (0, 1]")


DEFAULT_WFOV = CameraModel(fov_arcsec=3600.0, centroid_noise_rms_arcsec=5.0,
                           frame_rate_hz=10.0)
DEFAULT_NFOV = CameraModel(fov_arcsec=120.0, centroid_noise_rms_arcsec=0.5,
                           frame_rate_hz=100.0)


@dataclass(frozen=True)
class PatControllerConfig:
    """All models plus the sequence guards."""

    mount: MountModel = MountModel()
    wfov: CameraModel = DEFAULT_WFOV
    nfov: CameraModel = DEFAULT_NFOV
    fsm: FsmModel = FsmModel()
    threshold_elevation_deg: float = 20.0
    dropout_limit: int = 5

    def __post_init__(self):
        if not self.wfov.fov_arcsec > self.nfov.fov_arcsec:
            raise OutOfRange("WFOV field must exceed NFOV field")
        if self.dropout_limit < 1:
            raise OutOfRange("dropout limit must be at least 1")


@dataclass(frozen=True)
class PatMeasurements:
    """Sensor snapshot feeding one transition decision."""

    elevation_deg: float
    wfov: np.ndarray | None = None
    nfov: np.ndarray | None = None
    consecutive_dropouts: int = 0


NOT_DETECTED = None  # centroid_offset return value outside the field


def elevation_gate(elevation_deg: float, threshold_deg: float) -> bool:
    """Uplink beacon permitted at or above the threshold elevation."""
    return elevation_deg >= threshold_deg


def centroid_offset(
    camera: CameraModel,
    true_error_arcsec: np.ndarray,
    rng: np.random.Generator | int,
) -> np.ndarray | None:
    """Centroid measurement, or NOT_DETECTED outside the half-field."""
    rng = rng if isinstance(rng, np.random.Generator) else module_rng(rng, MODULE_NAME)
    err = np.asarray(true_error_arcsec, dtype=float)
    if float(np.hypot(err[0], err[1])) > camera.fov_arcsec / 2.0:
        return NOT_DETECTED
    return err + rng.normal(0.0, camera.centroid_noise_rms_arcsec, size=2)


def mount_step(
    mount: MountModel,
    commanded_offset_arcsec: np.ndarray,
    dt_s: float,
    rng: np.random.Generator | int,
) -> np.ndarray:
    """Realized pointing change for one command interval.

    The mount moves toward the commanded offset at the slew-rate limit
    once the command latency has elapsed, and adds its jitter.
    """
    if dt_s <= 0.0:
        raise OutOfRange("dt must be positive")
    rng = rng if isinstance(rng, np.random.Generator) else module_rng(rng, MODULE_NAME)
    cmd = np.asarray(commanded_offset_arcsec, dtype=float)
    available = max(0.0, dt_s - mount.command_latency_s)
    limit = mount.max_slew_rate_dps * 3600.0 * available
    size = float(np.hypot(cmd[0], cmd[1]))
    move = cmd if size <= limit else cmd * (limit / size)
    return move + rng.normal(0.0, mount.jitter_rms_arcsec, size=2)


def pat_transition(
    phase: PatPhase,
    measurements: PatMeasurements,
    config: PatControllerConfig,
) -> PatPhase:
    """Next phase from the current phase and sensor snapshot."""
    if not elevation_gate(measurements.elevation_deg, config.threshold_elevation_deg):
        return PatPhase.Idle
    if phase == PatPhase.Idle:
        return PatPhase.UplinkBeaconPointing
    if phase == PatPhase.UplinkBeaconPointing:
        return PatPhase.OpenLoopCoarse
    if phase == PatPhase.OpenLoopCoarse:
        if measurements.wfov is not None:
            return PatPhase.ClosedLoopCoarse
        return PatPhase.OpenLoopCoarse
    if phase == PatPhase.ClosedLoopCoarse:
        if measurements.nfov is not None:
            return PatPhase.ClosedLoopFine
        return PatPhase.ClosedLoopCoarse
    if phase == PatPhase.ClosedLoopFine:
        if measurements.consecutive_dropouts >= config.dropout_limit:
            return PatPhase.SignalLost
        return PatPhase.ClosedLoopFine
    return PatPhase.ClosedLoopCoarse  # SignalLost re-enters the coarse loop


@dataclass(frozen=True)
class PatSeries:
    """run_pat output: outer-step telemetry plus fine-loop residuals."""

    times_s: np.ndarray
    phases: np.ndarray            # PatPhase integer codes
    true_error: np.ndarray        # (n, 2) pre-mirror pointing error
    measured_error: np.ndarray    # (n, 2) latest wide-camera centroid, nan if none
    mount_cmd: np.ndarray         # (n, 2) cumulative mount correction
    fsm_cmd: np.ndarray           # (n, 2)
    residual_arcsec: np.ndarray   # (n,) |true - fsm| at step end
    fine_times_s: np.ndarray      # fine-loop sample times (ClosedLoopFine only)
    fine_residual: np.ndarray     # (m, 2)
    dt_s: float
    config: PatControllerConfig = field(repr=False)

    def lock_fraction(self) -> float:
        """Fraction of steps spent in closed-loop fine tracking."""
        if len(self.phases) == 0:
            return 0.0
        return float(np.mean(self.phases == int(PatPhase.ClosedLoopFine)))

    def fine_residual_norm(self) -> np.ndarray:
        return np.hypot(self.fine_residual[:, 0], self.fine_residual[:, 1])

    def residual_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Outer-rate (time, residual) pair for the link budget."""
        return self.times_s, self.residual_arcsec


def _fine_loop_segment(
    r0: np.ndarray, alpha: float, noises: np.ndarray
) -> np.ndarray:
    """Residual trace over one outer step of sub-stepped servo updates.

    Each sub-step moves the mirror by alpha times a fresh narrow-camera
    measurement of the residual, before the mirror range limit:
    r[k+1] = (1 - alpha) r[k] - alpha n[k].
    """
    u = -alpha * noises
    zi = np.outer([1.0 - alpha], r0)
    out, _ = lfilter([1.0], [1.0, -(1.0 - alpha)], u, axis=0, zi=zi)
    return out


def run_pat(
    elevation_deg,
    config: PatControllerConfig = PatControllerConfig(),
    duration_s: float = 60.0,
    dt_s: float = 0.01,
    seed: int = 0,
) -> PatSeries:
    """Simulate the acquisition sequence over a pass.

    elevation_deg is either a constant or a callable that maps the
    array of pass-relative step times in seconds to elevations (e.g.
    PassProfile.elevation_at); it is evaluated once, on the whole grid.
    Deterministic for a given seed.
    """
    if dt_s <= 0.0 or duration_s <= 0.0:
        raise OutOfRange("duration and dt must be positive")
    rng = module_rng(seed, MODULE_NAME)

    n = int(round(duration_s / dt_s))
    sub_dt = 1.0 / (10.0 * config.fsm.bandwidth_hz)
    n_sub = max(1, int(round(dt_s / sub_dt)))
    sub_dt = dt_s / n_sub
    alpha = config.fsm.loop_gain * (1.0 - math.exp(-2.0 * math.pi * config.fsm.bandwidth_hz * sub_dt))
    wfov_every = max(1, int(round(1.0 / (config.wfov.frame_rate_hz * dt_s))))
    nfov_every = max(1, int(round(1.0 / (config.nfov.frame_rate_hz * dt_s))))

    times = np.arange(n) * dt_s
    elevations = np.broadcast_to(
        elevation_deg(times) if callable(elevation_deg) else elevation_deg, (n,))
    phases = np.empty(n, dtype=np.int8)
    true_err = np.empty((n, 2))
    meas_err = np.full((n, 2), np.nan)
    mount_cmd = np.empty((n, 2))
    fsm_cmd = np.empty((n, 2))
    residual = np.empty(n)
    fine_times: list[np.ndarray] = []
    fine_res: list[np.ndarray] = []

    phase = PatPhase.Idle
    base_err = np.array(config.mount.systematic_bias_arcsec, dtype=float)
    mount_total = np.zeros(2)
    fsm = np.zeros(2)
    dropouts = 0

    for i in range(n):
        t = float(times[i])
        err = base_err + rng.normal(0.0, config.mount.jitter_rms_arcsec, size=2)

        wfov_meas = None
        nfov_meas = None
        if phase in (PatPhase.OpenLoopCoarse, PatPhase.ClosedLoopCoarse,
                     PatPhase.ClosedLoopFine, PatPhase.SignalLost):
            if i % wfov_every == 0:
                wfov_meas = centroid_offset(config.wfov, err, rng)
            if i % nfov_every == 0:
                nfov_meas = centroid_offset(config.nfov, err - fsm, rng)

        if phase == PatPhase.ClosedLoopFine:
            dropouts = dropouts + 1 if nfov_meas is None else 0
        else:
            dropouts = 0

        # closed-loop mount correction on wide-camera frames
        if phase in (PatPhase.ClosedLoopCoarse, PatPhase.ClosedLoopFine,
                     PatPhase.SignalLost) and wfov_meas is not None:
            move = mount_step(config.mount, -wfov_meas, wfov_every * dt_s, rng)
            base_err = base_err + move
            mount_total = mount_total + move
            err = base_err  # command settles within the frame interval

        if phase == PatPhase.ClosedLoopFine and nfov_meas is not None:
            noises = rng.normal(0.0, config.nfov.centroid_noise_rms_arcsec,
                                size=(n_sub, 2))
            trace = _fine_loop_segment(err - fsm, alpha, noises)
            # apply the mirror range limit sample by sample
            mirror = err[np.newaxis, :] - trace
            norms = np.hypot(mirror[:, 0], mirror[:, 1])
            scale = np.minimum(1.0, config.fsm.range_arcsec / np.maximum(norms, 1e-12))
            mirror *= scale[:, np.newaxis]
            trace = err[np.newaxis, :] - mirror
            fsm = mirror[-1]
            fine_times.append(t + (np.arange(1, n_sub + 1) * sub_dt))
            fine_res.append(trace)

        phases[i] = int(phase)
        true_err[i] = err
        if wfov_meas is not None:
            meas_err[i] = wfov_meas
        mount_cmd[i] = mount_total
        fsm_cmd[i] = fsm
        residual[i] = float(np.hypot(*(err - fsm)))

        meas = PatMeasurements(
            elevation_deg=float(elevations[i]),
            wfov=wfov_meas,
            nfov=nfov_meas,
            consecutive_dropouts=dropouts,
        )
        new_phase = pat_transition(phase, meas, config)
        if new_phase == PatPhase.SignalLost:
            fsm = np.zeros(2)  # re-center the mirror for re-acquisition
            dropouts = 0
        if new_phase == PatPhase.Idle and phase != PatPhase.Idle:
            fsm = np.zeros(2)
            dropouts = 0
        phase = new_phase

    return PatSeries(
        times_s=times,
        phases=phases,
        true_error=true_err,
        measured_error=meas_err,
        mount_cmd=mount_cmd,
        fsm_cmd=fsm_cmd,
        residual_arcsec=residual,
        fine_times_s=np.concatenate(fine_times) if fine_times else np.empty(0),
        fine_residual=np.vstack(fine_res) if fine_res else np.empty((0, 2)),
        dt_s=dt_s,
        config=config,
    )
