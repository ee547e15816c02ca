"""Pointing, acquisition, and tracking sequence as a state machine.

Phases run Idle -> UplinkBeaconPointing -> OpenLoopCoarse ->
ClosedLoopCoarse -> ClosedLoopFine, with SignalLost re-entering the
coarse loop after dropout_limit consecutive narrow-camera frames miss
the beacon, and any phase dropping to Idle below the uplink threshold
elevation. The mount closes a slow loop on the wide-field camera; a
fast-steering mirror closes the fine loop on the narrow-field camera
at ten samples per servo time constant. The emitted residual series
is what the link budget sees.

run_pat computes each phase segment as arrays, up to the step at which
pat_transition may change the phase, and draws each noise source (step
jitter, wide- and narrow-camera centroids, mount jitter, the fine
loop's step-end noise) from its own stream.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import OutOfRange
from .seeding import module_streams

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
    dropout_limit: int = 5  # consecutive narrow-camera frames that miss the beacon

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


def elevation_gate(elevation_deg, threshold_deg: float):
    """Uplink beacon permitted at or above the threshold elevation (elementwise)."""
    return elevation_deg >= threshold_deg


def centroid_offset(
    camera: CameraModel,
    true_error_arcsec: np.ndarray,
    noise_arcsec: np.ndarray,
) -> np.ndarray:
    """Centroid measurements of (k, 2) true errors; nan rows outside the half-field.

    noise_arcsec holds one centroid-noise draw per row at the camera's rms.
    """
    err = np.asarray(true_error_arcsec, dtype=float)
    meas = err + noise_arcsec
    meas[np.hypot(err[:, 0], err[:, 1]) > camera.fov_arcsec / 2.0] = np.nan
    return meas


def _slew_limit_arcsec(mount: MountModel, dt_s: float) -> float:
    """Largest move the mount completes in one command interval."""
    return mount.max_slew_rate_dps * 3600.0 * max(0.0, dt_s - mount.command_latency_s)


def mount_step(
    mount: MountModel,
    commanded_offset_arcsec: np.ndarray,
    dt_s: float,
    jitter_arcsec: np.ndarray,
) -> np.ndarray:
    """Realized pointing changes for (k, 2) commands, one per command interval.

    The mount moves toward each commanded offset at the slew-rate limit
    once the command latency has elapsed, and adds its jitter draw.
    """
    if dt_s <= 0.0:
        raise OutOfRange("dt must be positive")
    cmd = np.asarray(commanded_offset_arcsec, dtype=float)
    size = np.hypot(cmd[:, 0], cmd[:, 1])
    limit = _slew_limit_arcsec(mount, dt_s)
    scale = np.where(size <= limit, 1.0, limit / np.maximum(size, 1e-300))
    return cmd * scale[:, np.newaxis] + jitter_arcsec


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
    """run_pat output: outer-step telemetry plus fine-loop residuals.

    fine_times_s and fine_residual, the fine loop's sub-step trace, are
    not kept by run_pat: the first read rebuilds them from the fine
    loop's per-update state and caches them. simulate and link-budget
    read only the outer series, so they never build the trace.
    """

    times_s: np.ndarray
    phases: np.ndarray            # PatPhase integer codes
    true_error: np.ndarray        # (n, 2) pre-mirror pointing error
    mount_cmd: np.ndarray         # (n, 2) cumulative mount correction
    fsm_cmd: np.ndarray           # (n, 2)
    residual_arcsec: np.ndarray   # (n,) |true - fsm| at step end
    dt_s: float
    _fine_updates: _FineUpdates = field(repr=False)

    @cached_property
    def _fine_trace(self) -> tuple[np.ndarray, np.ndarray]:
        return self._fine_updates.trace(self.times_s)

    @property
    def fine_times_s(self) -> np.ndarray:
        """Fine-loop sample times (ClosedLoopFine only)."""
        return self._fine_trace[0]

    @property
    def fine_residual(self) -> np.ndarray:
        """(m, 2) fine-loop residual at each sample of fine_times_s."""
        return self._fine_trace[1]

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


_FINE_BLOCK_SAMPLES = 1 << 17  # sub-steps per fine run and per trace block
_CHAIN_ROUNDS = 8  # fixed-point steps before _frame_chain chains row by row
_COARSE_TRY_STEPS = 256  # steps a coarse loop tries before running on to the gate


def _first(mask: np.ndarray, default: int) -> int:
    """Index of the first true element, or default."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


def _row(values: np.ndarray) -> np.ndarray | None:
    """One measurement row, or None where the camera saw nothing."""
    return None if np.isnan(values[0]) else values


def _servo_rows(noise: np.ndarray, alpha: float) -> np.ndarray:
    """Each frame's sub-step noise response, sub-step axis leading: (n_sub, 2 frames).

    r[k] = (1 - alpha) r[k-1] - alpha n[k] from r = 0, for the
    (frames, n_sub, 2) noise, which is left unchanged. The recurrence is
    rolled in place over one complex (2, n_sub, frames) buffer: the
    noise is copied into its first half sub-step axis leading, and the
    response fills its second. The (x, y) pairs travel as complex
    numbers, so the transposing copy moves 16-byte items.

    This is lfilter([-alpha], [1, -(1 - alpha)], noise, axis=1) bit for
    bit: that filter's state after sample k-1 is 0 n[k-1] + (1 - alpha)
    r[k-1], and since 0 n[k-1] is a signed zero, adding it to -alpha n[k]
    first gives the same sum; its zero initial state turns a -0.0 at
    k = 0 into +0.0. Each pass of the loop is one vector operation
    across all frames.
    """
    frames, n_sub, _ = noise.shape
    x, r = np.empty((2, n_sub, frames), np.complex128)
    np.copyto(x, noise.view(np.complex128)[..., 0].T)
    x, r = x.view(np.float64), r.view(np.float64)
    np.multiply(x, -alpha, out=r)
    r[0] += 0.0
    x[:-1] *= 0.0
    r[1:] += x[:-1]
    keep = 1.0 - alpha
    for k in range(1, n_sub):
        r[k] += keep * r[k - 1]
    return r


def _servo_response(noise: np.ndarray, alpha: float) -> np.ndarray:
    """Each frame's sub-step noise response as (frames, n_sub, 2), from _servo_rows."""
    frames, n_sub, _ = noise.shape
    r = _servo_rows(noise, alpha)
    return np.ascontiguousarray(r.view(np.complex128).T).view(np.float64).reshape(
        frames, n_sub, 2)


def _mirror_command(e: np.ndarray, residual: np.ndarray,
                    range_arcsec: float) -> tuple[np.ndarray, np.ndarray]:
    """The mirror command e - residual, cut back to the mirror range, and where it was.

    The last axis holds (x, y); a command beyond the range keeps its
    direction at the range's length.
    """
    mirror = e - residual
    over = np.einsum("...k,...k->...", mirror, mirror) > range_arcsec ** 2
    if over.any():
        clip = mirror[over]
        clip *= range_arcsec / np.hypot(clip[:, 0], clip[:, 1])[:, np.newaxis]
        mirror[over] = clip
    return mirror, over


def _frame_chain(x: np.ndarray, beta: float) -> np.ndarray:
    """y[n] = beta y[n-1] + x[n] down axis 0, from y[-1] = 0.

    lfilter([1], [1, -beta], x, axis=0) bit for bit. It is found as the
    fixed point of one vector step: the recurrence has one solution, so
    a step that changes no bit has reached it. Each step shrinks the
    error by beta, so a handful of steps do at the default loop gain,
    where beta is about 4e-17. When _CHAIN_ROUNDS steps have not
    converged (beta near 1: a low loop gain with one sub-step per frame)
    the rows are chained one by one in Python floats, the same operations
    in the same order, which keeps the cost linear in len(x). As in
    _servo_rows, the filter state's signed zero 0 x[n-1] is added to
    x[n]; 0.0 + x turns -0.0 into +0.0 as its zero initial state does.
    """
    y = 0.0 + x
    drive = x[1:] + 0.0 * x[:-1]
    for _ in range(_CHAIN_ROUNDS):
        step = beta * y[:-1] + drive
        if np.array_equal(step.view(np.int64), y[1:].view(np.int64)):
            return y
        y[1:] = step
    chained = [list(accumulate(d, lambda prev, dn: beta * prev + dn, initial=y0))
               for y0, d in zip(y[0].tolist(), drive.T.tolist())]
    return np.array(chained).T


class _FineLoop:
    """The mirror servo's constants and noise streams, shared by run_pat and the trace rebuild.

    An update runs n_sub servo sub-steps, r[k] = (1 - alpha) r[k-1] -
    alpha n[k], so its step-end residual is r0 (1 - alpha)^n_sub plus
    the noise response c . n, with c[k] = -alpha (1 - alpha)^(n_sub-1-k)
    and n the update's (n_sub, 2) sub-step noise at sigma. run_pat reads
    only step ends, so it draws that response directly: one normal per
    axis at end_sigma = sigma |c|. The trace draws the sub-step noise on
    a stream of its own and conditions it on the step end.
    """

    def __init__(self, config: PatControllerConfig, dt_s: float, seed: int):
        sub_dt = 1.0 / (10.0 * config.fsm.bandwidth_hz)
        self.n_sub = max(1, int(round(dt_s / sub_dt)))
        sub_dt = dt_s / self.n_sub
        self.sub_times = np.arange(1, self.n_sub + 1) * sub_dt
        self.alpha = config.fsm.loop_gain * (
            1.0 - math.exp(-2.0 * math.pi * config.fsm.bandwidth_hz * sub_dt))
        # carry-over of an update's initial residual to each of its sub-steps
        self.decay = ((1.0 - self.alpha) ** np.arange(1, self.n_sub + 1))[:, np.newaxis]
        # weight of each sub-step's noise in the step-end residual
        self.weights = -self.alpha * (1.0 - self.alpha) ** np.arange(self.n_sub - 1, -1, -1)
        self.block = max(1, _FINE_BLOCK_SAMPLES // self.n_sub)
        self.sigma = config.nfov.centroid_noise_rms_arcsec
        self.end_sigma = self.sigma * math.sqrt(self.weights @ self.weights)
        self.range_arcsec = config.fsm.range_arcsec
        self.seed = seed

    def streams(self) -> list[np.random.Generator]:
        """Fresh copies of run_pat's step-end stream and the trace's sub-step stream."""
        return module_streams(self.seed, MODULE_NAME, 6)[4:]

    def step_ends(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The next count updates' step-end noise responses, (count, 2)."""
        return rng.normal(0.0, self.end_sigma, (count, 2))


@dataclass(frozen=True)
class _FineUpdates:
    """The fine loop's updates, from which its sub-step trace is rebuilt.

    Update u ran at step steps[u] from residual r0[u] while the mirror
    tracked pointing error e[u] (40 B per update), on the u-th row of
    run_pat's step-end stream.
    """

    loop: _FineLoop
    steps: np.ndarray
    r0: np.ndarray
    e: np.ndarray

    def trace(self, times_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sample times, (m, 2) residuals) at every sub-step of every update.

        Block updates at a time, the step-end responses z are drawn again
        from a fresh copy of run_pat's stream, and sub-step noise n' from
        the trace's own. n = n' + c (z - c . n') / |c|^2 has c . n = z, and
        is distributed as the sub-step noise given that step end, so the
        rebuilt last sub-step is the step end run_pat used (to rounding).
        Each sub-step residual is r0 (1 - alpha)^(k+1) plus the noise
        response of n; where the mirror command it leaves is beyond the
        range, the clipped command's residual replaces it.
        """
        loop, count = self.loop, len(self.steps)
        w = loop.weights
        times = (times_s[self.steps, np.newaxis] + loop.sub_times).reshape(-1)
        residual = np.empty((count, loop.n_sub, 2))
        ends_rng, sub_rng = loop.streams()
        for lo in range(0, count, loop.block):
            hi = min(lo + loop.block, count)
            z = loop.step_ends(ends_rng, hi - lo)
            noise = sub_rng.normal(0.0, loop.sigma, (hi - lo, loop.n_sub, 2))
            shift = (z - np.einsum("k,ukx->ux", w, noise)) / (w @ w)
            noise += w[:, np.newaxis] * shift[:, np.newaxis]
            trace = residual[lo:hi]
            e = self.e[lo:hi, np.newaxis]
            np.multiply(loop.decay, self.r0[lo:hi, np.newaxis], out=trace)
            trace += _servo_response(noise, loop.alpha)
            mirror, over = _mirror_command(e, trace, loop.range_arcsec)
            np.subtract(e, mirror, out=trace, where=over[..., np.newaxis])
        return times, residual.reshape(-1, 2)


class _PatRun:
    """One run_pat call: the pre-drawn noise, the output arrays and the loop state.

    Each phase segment is computed as arrays up to the first step at
    which pat_transition may leave the phase (or the loop state stops
    being a linear function of the noise), and that step's measurements
    go to pat_transition. Every noise source draws from its own stream,
    once per step or frame slot whether or not the draw is used: step
    jitter, the camera centroids, the mount jitter, and the fine loop's
    step-end noise, one (x, y) pair per narrow-camera frame slot that
    the fine updates take in order (the u-th update the u-th pair). So
    what is drawn for one source does not depend on what the cameras saw.
    """

    def __init__(self, config: PatControllerConfig, times: np.ndarray,
                 elevations: np.ndarray, dt_s: float, seed: int):
        self.config = config
        self.times = times
        self.elevations = elevations
        n = self.n = len(times)
        loop = self.loop = _FineLoop(config, dt_s, seed)
        self.wfov_every = max(1, int(round(1.0 / (config.wfov.frame_rate_hz * dt_s))))
        self.nfov_every = max(1, int(round(1.0 / (config.nfov.frame_rate_hz * dt_s))))
        self.frame_dt = self.wfov_every * dt_s
        self.fine_len = loop.block  # steps tried per fine run; shrinks where runs stop early

        jitter, wfov, nfov, mount, fine = module_streams(seed, MODULE_NAME, 5)
        n_wfov = -(-n // self.wfov_every)
        n_nfov = -(-n // self.nfov_every)
        self.jitter = jitter.normal(0.0, config.mount.jitter_rms_arcsec, (n, 2))
        self.wfov_noise = wfov.normal(0.0, config.wfov.centroid_noise_rms_arcsec, (n_wfov, 2))
        self.nfov_noise = nfov.normal(0.0, config.nfov.centroid_noise_rms_arcsec, (n_nfov, 2))
        self.mount_jitter = mount.normal(0.0, config.mount.jitter_rms_arcsec, (n_wfov, 2))
        self.fine_ends = loop.step_ends(fine, n_nfov)

        self.phases = np.empty(n, dtype=np.int8)
        self.true_err = np.empty((n, 2))
        self.mount_cmd = np.empty((n, 2))
        self.fsm_cmd = np.empty((n, 2))
        # sized for a fine update on every narrow-camera frame
        self.upd_steps = np.empty(n_nfov, dtype=np.int64)
        self.upd_r0 = np.empty((n_nfov, 2))
        self.upd_e = np.empty((n_nfov, 2))
        self.n_upd = 0

        self.base = np.array(config.mount.systematic_bias_arcsec, dtype=float)
        self.mount_total = np.zeros(2)
        self.fsm = np.zeros(2)
        self.dropouts = 0
        gate = elevation_gate(elevations, config.threshold_elevation_deg)
        self.gate_closed = np.flatnonzero(~gate)
        self.gate_open = np.flatnonzero(gate)

    def _next(self, steps: np.ndarray, i: int) -> int:
        """First of the sorted steps at or after i, or the last step of the run."""
        k = np.searchsorted(steps, i)
        return int(steps[k]) if k < steps.size else self.n - 1

    def run(self) -> None:
        phase = PatPhase.Idle
        i = 0
        while i < self.n:
            if phase == PatPhase.ClosedLoopFine:
                end, meas = self._fine(i)
            else:
                end, meas = self._coarse(i, phase)
            new_phase = pat_transition(phase, meas, self.config)
            if new_phase != PatPhase.ClosedLoopFine:
                self.dropouts = 0
            if new_phase == PatPhase.SignalLost or (
                    new_phase == PatPhase.Idle and phase != PatPhase.Idle):
                self.fsm = np.zeros(2)  # re-center the mirror for re-acquisition
            phase = new_phase
            i = end + 1

    def _pointing(self, i: int, j: int, measured: bool, closed: bool):
        """Pointing error over steps i..j and the wide-camera frames among them.

        With the coarse loop closed, the mount moves on every frame the
        camera sees. A frame that is seen and whose command is met in
        full lands the mount on the jitter draw minus the measured error
        relative to the old base, whatever that base was; so the base
        before every frame follows from the frame before, until a frame
        is missed or the slew limit engages. That frame ends the stretch:
        the returned arrays stop there and the returned j is its step.
        """
        steps = np.arange(i, j + 1)
        jit = self.jitter[i:j + 1]
        frames = np.flatnonzero(steps % self.wfov_every == 0) if measured else np.empty(0, int)
        slots = steps[frames] // self.wfov_every
        noise = self.wfov_noise[slots]
        base = np.repeat(self.base[np.newaxis], frames.size, axis=0)
        if closed and frames.size > 1:
            base[1:] = (self.mount_jitter[slots[:-1]]
                        - (jit[frames[:-1]] + noise[:-1]))
        wfov = centroid_offset(self.config.wfov, base + jit[frames], noise)
        seen = ~np.isnan(wfov[:, 0]) if closed else np.zeros(frames.size, bool)
        moves = np.zeros_like(base)
        moves[seen] = mount_step(self.config.mount, -wfov[seen], self.frame_dt,
                                 self.mount_jitter[slots[seen]])
        if closed:
            limit = _slew_limit_arcsec(self.config.mount, self.frame_dt)
            stop = _first(~seen | (np.hypot(wfov[:, 0], wfov[:, 1]) > limit), frames.size)
            if stop < frames.size:
                j = i + int(frames[stop])
                steps, jit = steps[:j - i + 1], jit[:j - i + 1]
                frames, base, wfov, moves, seen = (
                    frames[:stop + 1], base[:stop + 1], wfov[:stop + 1],
                    moves[:stop + 1], seen[:stop + 1])
        # index of the latest frame at or before each step (0: none yet)
        latest = np.searchsorted(frames, np.arange(len(steps)), side="right")
        base_after = np.vstack([self.base, base + moves])[latest]
        err_post = base_after + jit
        err_pre = err_post.copy()
        err_pre[frames] = base + jit[frames]
        err_post[frames[seen]] = base_after[frames[seen]]  # the command settles within the frame
        wfov_steps = np.full((len(steps), 2), np.nan)
        wfov_steps[frames] = wfov
        mount_total = self.mount_total + np.vstack([np.zeros(2), np.cumsum(moves, axis=0)])[latest]
        return j, err_pre, err_post, wfov_steps, mount_total, base_after

    def _nfov(self, i: int, err_pre: np.ndarray, fsm_before: np.ndarray) -> np.ndarray:
        """Narrow-camera measurements at each step from i (nan off-frame or unseen)."""
        steps = np.arange(i, i + len(err_pre))
        frames = np.flatnonzero(steps % self.nfov_every == 0)
        meas = np.full((len(steps), 2), np.nan)
        meas[frames] = centroid_offset(self.config.nfov, err_pre[frames] - fsm_before[frames],
                                       self.nfov_noise[steps[frames] // self.nfov_every])
        return meas

    def _commit(self, i: int, last: int, phase: PatPhase, err_post, mount_total,
                base_after, fsm) -> None:
        k = last - i + 1
        self.phases[i:last + 1] = int(phase)
        self.true_err[i:last + 1] = err_post[:k]
        self.mount_cmd[i:last + 1] = mount_total[:k]
        self.fsm_cmd[i:last + 1] = fsm[:k]
        self.base = base_after[k - 1]
        self.mount_total = mount_total[k - 1]
        self.fsm = fsm[k - 1]

    def _coarse(self, i: int, phase: PatPhase) -> tuple[int, PatMeasurements]:
        """Idle, beacon pointing, the coarse loops and SignalLost, up to a phase change.

        Idle lasts until the elevation gate opens; beacon pointing and
        SignalLost last one step; open-loop coarse lasts until the wide
        camera sees the beacon and closed-loop coarse until the narrow
        camera does. The coarse loops usually end within a few frames, so
        they first try _COARSE_TRY_STEPS steps and run on to the gate only
        when the phase outlasts them: every array is a function of the
        steps before it, so a stop inside the first try is the stop of
        the whole stretch, bit for bit.
        """
        if phase == PatPhase.Idle:
            ends = [self._next(self.gate_open, i)]
        elif phase in (PatPhase.UplinkBeaconPointing, PatPhase.SignalLost):
            ends = [i]
        else:
            j = self._next(self.gate_closed, i)
            ends = [i + _COARSE_TRY_STEPS - 1, j] if i + _COARSE_TRY_STEPS - 1 < j else [j]
        measured = phase not in (PatPhase.Idle, PatPhase.UplinkBeaconPointing)
        closed = phase in (PatPhase.ClosedLoopCoarse, PatPhase.SignalLost)
        for end in ends:
            j, err_pre, err_post, wfov, mount_total, base_after = self._pointing(
                i, end, measured, closed)
            fsm = np.repeat(self.fsm[np.newaxis], len(err_pre), axis=0)
            nfov = self._nfov(i, err_pre, fsm) if measured else np.full_like(err_pre, np.nan)
            seen = (wfov if phase == PatPhase.OpenLoopCoarse
                    else nfov if phase == PatPhase.ClosedLoopCoarse else None)
            last = j - i if seen is None else _first(~np.isnan(seen[:, 0]), j - i)
            if last < end - i:
                break
        j = i + last
        self._commit(i, j, phase, err_post, mount_total, base_after, fsm)
        return j, PatMeasurements(float(self.elevations[j]), _row(wfov[j - i]),
                                  _row(nfov[j - i]))

    def _fine(self, i: int) -> tuple[int, PatMeasurements]:
        """ClosedLoopFine from step i, up to the first step that breaks the linear loop.

        Each narrow-camera frame runs n_sub servo sub-steps,
        r[k+1] = (1 - alpha) r[k] - alpha n[k]. Only each frame's last
        sub-step reaches the outer series: its noise response is the
        update's row of fine_ends, the step-end residuals chain across
        frames with coefficient (1 - alpha)^n_sub through _frame_chain,
        and the step-end residual is r0 (1 - alpha)^n_sub plus that
        response. That holds until the narrow camera misses a frame, the
        mirror range clamps the step-end command or the elevation gate
        closes; the run stops at that step. Each committed update keeps
        its step, r0 and e, from which PatSeries rebuilds the sub-step
        trace on demand.
        """
        loop, alpha = self.loop, self.loop.alpha
        j = min(self._next(self.gate_closed, i), i + self.fine_len - 1)
        j, err_pre, err_post, wfov, mount_total, base_after = self._pointing(
            i, j, True, True)
        steps = np.arange(i, j + 1)
        upd = np.flatnonzero(steps % self.nfov_every == 0)
        e = err_post[upd]
        response = self.fine_ends[self.n_upd:self.n_upd + len(upd)]
        beta = (1.0 - alpha) ** loop.n_sub
        drive = np.diff(e, axis=0, prepend=self.fsm[np.newaxis])
        ends = _frame_chain(beta * drive + response, beta)
        r0 = drive + np.vstack([np.zeros(2), ends[:-1]])
        fsm_upd, clamped = _mirror_command(e, loop.decay[-1] * r0 + response,
                                           loop.range_arcsec)

        # the mirror command each step's camera frame sees, and the one it leaves
        held = np.searchsorted(upd, np.arange(len(steps)), side="right")
        before = np.searchsorted(upd, np.arange(len(steps)))
        nfov = self._nfov(i, err_pre, np.vstack([self.fsm, fsm_upd])[before])
        seen = ~np.isnan(nfov[:, 0])
        missed = np.zeros(len(steps), bool)
        missed[upd] = ~seen[upd]
        clamp_step = np.zeros(len(steps), bool)
        clamp_step[upd] = clamped
        last = _first(missed | clamp_step, j - i)

        done = int(np.searchsorted(upd, last, side="right")) - int(missed[last])
        fsm = np.vstack([self.fsm, fsm_upd[:done]])[np.minimum(held, done)]
        kept = slice(self.n_upd, self.n_upd + done)
        self.upd_steps[kept] = i + upd[:done]
        self.upd_r0[kept] = r0[:done]
        self.upd_e[kept] = e[:done]
        self.n_upd += done
        self._commit(i, i + last, PatPhase.ClosedLoopFine, err_post, mount_total,
                     base_after, fsm)
        # consecutive missed narrow-camera frames; the run ends at its first miss
        self.dropouts = (0 if seen[:last + 1].any() else self.dropouts) + int(missed[last])
        self.fine_len = min(loop.block, 2 * (last + 1))
        return i + last, PatMeasurements(float(self.elevations[i + last]), _row(wfov[last]),
                                         _row(nfov[last]), self.dropouts)


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
    n = int(round(duration_s / dt_s))
    times = np.arange(n) * dt_s
    elevations = np.broadcast_to(
        elevation_deg(times) if callable(elevation_deg) else elevation_deg, (n,))
    run = _PatRun(config, times, elevations, dt_s, seed)
    run.run()
    return PatSeries(
        times_s=times,
        phases=run.phases,
        true_error=run.true_err,
        mount_cmd=run.mount_cmd,
        fsm_cmd=run.fsm_cmd,
        residual_arcsec=np.hypot(run.true_err[:, 0] - run.fsm_cmd[:, 0],
                                 run.true_err[:, 1] - run.fsm_cmd[:, 1]),
        dt_s=dt_s,
        _fine_updates=_FineUpdates(run.loop, run.upd_steps[:run.n_upd],
                                   run.upd_r0[:run.n_upd], run.upd_e[:run.n_upd]),
    )
