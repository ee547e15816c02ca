"""Behavioral model of the onboard entangled-pair source and sync beacon.

The source is characterized entirely by its output statistics: pair
rate (brightness x pump power), polarization-correlation visibility,
and the split ratio sending signal photons to the ground link. Pairs
are emitted as a homogeneous Poisson process; each pair carries only
the onboard (idler) basis choice and outcome. The ground photon's
outcome, and the visibility's error on it, are drawn by the ground
analyzer for the photons that arrive. The beacon is an exact
arithmetic pulse train used by the receivers for clock
synchronization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidExtrema, NonpositiveBrightness, OutOfRange
from .seeding import _two_bit_codes, module_rng, module_streams

MODULE_NAME = "photon_source"

BASIS_HV = 0


@dataclass(frozen=True)
class SourceConfig:
    """Source operating point and statistical parameters."""

    brightness_pairs_per_s_mw: float = 13.6e6
    pump_power_mw: float = 1.84
    visibility: float = 0.98
    downlink_fraction: float = 0.9   # as-built 90/10 splitter; intended design 0.99
    beacon_frequency_hz: float = 10e3
    intensity_imbalance: float = 0.0

    def __post_init__(self):
        if self.brightness_pairs_per_s_mw <= 0.0:
            raise NonpositiveBrightness(
                f"brightness must be positive, got {self.brightness_pairs_per_s_mw}"
            )
        if self.pump_power_mw < 0.0:
            raise OutOfRange(f"pump power must be nonnegative, got {self.pump_power_mw}")
        if not 0.0 <= self.visibility <= 1.0:
            raise OutOfRange(f"visibility {self.visibility} outside [0, 1]")
        if not 0.0 < self.downlink_fraction <= 1.0:
            raise OutOfRange(f"downlink_fraction {self.downlink_fraction} outside (0, 1]")
        if self.beacon_frequency_hz and not 1e3 <= self.beacon_frequency_hz <= 50e3:
            raise OutOfRange(
                f"beacon frequency {self.beacon_frequency_hz} Hz outside [1, 50] kHz"
            )
        if self.intensity_imbalance < 0.0:
            raise OutOfRange("intensity_imbalance must be nonnegative")


@dataclass(frozen=True)
class PairEventStream:
    """Timed pair emissions over [0, duration_s), or one block of them.

    Columns share one index: emission_times (s, strictly increasing)
    and idler_channel, the onboard arm's channel code basis * 2 +
    outcome (basis 0=HV, 1=AD), 9 bytes per pair in all. The ground arm
    derives its outcome from the idler's when it measures an arriving
    photon.
    """

    emission_times: np.ndarray
    idler_channel: np.ndarray
    duration_s: float
    config: SourceConfig = field(repr=False)

    def __len__(self) -> int:
        return len(self.emission_times)


def pair_rate(config: SourceConfig) -> float:
    """Generated pair rate in pairs/s."""
    return config.brightness_pairs_per_s_mw * config.pump_power_mw


def required_pump_power(target_rate: float, brightness: float) -> float:
    """Pump power (mW) needed to reach a target pair rate."""
    if brightness <= 0.0:
        raise NonpositiveBrightness(f"brightness must be positive, got {brightness}")
    if target_rate < 0.0:
        raise OutOfRange(f"target rate must be nonnegative, got {target_rate}")
    return target_rate / brightness


def visibility_from_extrema(c_max: float, c_min: float) -> float:
    """Polarization-correlation visibility from fringe extrema counts."""
    if not c_max >= c_min >= 0.0:
        raise InvalidExtrema(f"need c_max >= c_min >= 0, got ({c_max}, {c_min})")
    if c_max <= 0.0:
        raise InvalidExtrema("c_max must be positive")
    return (c_max - c_min) / (c_max + c_min)


def qber_from_visibility(vis: float) -> float:
    """QBER implied by a correlation visibility: (1 - VIS)/2."""
    if not 0.0 <= vis <= 1.0:
        raise OutOfRange(f"visibility {vis} outside [0, 1]")
    return (1.0 - vis) / 2.0


def beacon_pulse_count(config: SourceConfig, duration_s: float) -> int:
    """Pulses of the beacon train on [0, duration_s], none without a beacon.

    The train is an exact arithmetic progression from t=0: pulse k
    leaves at k / beacon_frequency_hz.
    """
    if not config.beacon_frequency_hz:
        return 0
    return int(np.floor(duration_s * config.beacon_frequency_hz)) + 1


# Pairs per block of generate_pair_stream: bounds the per-pair working
# set of a window's chain, whatever the window's length. On a 1e7-pair
# window (147k beacon pulses) the arms' matching, which sets the traced
# peak, reaches 8.5 MB at 2^17 against 12.5 MB at 2^18; at 2^16 (7.3 MB)
# the beacon sync's 6.6 MB is close and each halving doubles the calls.
_BLOCK_PAIRS = 1 << 17


@dataclass
class PairCarry:
    """Where one window's pair sequence stands between blocks.

    times_rng draws the exponential spacings and idler_rng the idler
    channels; last_s is the last time drawn (0 before the first), spare
    the idler channels drawn but not yet given to a pair, and done is
    set once a time reaches the window's end.
    """

    times_rng: np.random.Generator
    idler_rng: np.random.Generator
    last_s: float = 0.0
    spare: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint8))
    done: bool = False

    @classmethod
    def seeded(cls, seed: int) -> PairCarry:
        return cls(*module_streams(seed, MODULE_NAME, 2))


def generate_pair_stream(config: SourceConfig, duration_s: float,
                         carry: PairCarry) -> PairEventStream:
    """The next block of a Poisson pair stream over [0, duration_s).

    The pair times are running sums of exponential spacings of mean
    1/rate from carry.times_rng, and the idler channels (basis * 2 +
    outcome, all four equally likely) come from the raw words of
    carry.idler_rng; a time that repeats its predecessor is dropped.
    Each call returns the next block of at most _BLOCK_PAIRS pairs, and
    carry.done is set by the call that returns the last. Every draw is
    sequential in its own stream, so the pairs do not depend on how the
    window is split into blocks: the blocks of PairCarry.seeded(seed),
    joined, are the window's stream for that seed.
    """
    if duration_s <= 0.0:
        raise OutOfRange(f"duration must be positive, got {duration_s}")
    rate = pair_rate(config)
    times = np.empty(0)
    if rate > 0.0:
        # draw about what is left of the window when that is under a block
        left = rate * (duration_s - carry.last_s)
        times = carry.times_rng.standard_exponential(
            min(_BLOCK_PAIRS, int(left + 6.0 * math.sqrt(left)) + 1))
        times *= 1.0 / rate
        times[0] += carry.last_s
        np.cumsum(times, out=times)
        inside = int(np.searchsorted(times, duration_s, side="left"))
        carry.done = inside < len(times)
        times = times[:inside]
    else:
        carry.done = True
    if len(times):
        # a spacing below half an ulp of the time repeats it: keep the first
        fresh = np.empty(len(times), dtype=bool)
        fresh[0] = times[0] > carry.last_s
        np.greater(times[1:], times[:-1], out=fresh[1:])
        carry.last_s = float(times[-1])
        if not fresh.all():
            times = times[fresh]
    idler, carry.spare = _two_bit_codes(carry.idler_rng, carry.spare, len(times))
    return PairEventStream(
        emission_times=times,
        idler_channel=idler,
        duration_s=duration_s,
        config=config,
    )


def scan_fringe_mean(
    config: SourceConfig, angles_deg: np.ndarray, integration_s: float,
    peak_angle_deg: float = 0.0,
) -> np.ndarray:
    """Expected coincidence counts of a single-polarizer scan.

    The fringe is A(theta) * [1 + V cos 2(theta - theta0)] / 2 with a
    full-turn amplitude envelope A(theta) = A0 (1 + b cos(theta -
    theta0)) so the two maxima carry amplitudes A0(1 +/- b), the
    intensity-imbalance signature; b = 0 gives one shared amplitude.
    """
    theta = np.radians(np.asarray(angles_deg, dtype=float) - peak_angle_deg)
    amplitude = 0.5 * pair_rate(config) * integration_s
    envelope = 1.0 + config.intensity_imbalance * np.cos(theta)
    fringe = 0.5 * (1.0 + config.visibility * np.cos(2.0 * theta))
    return amplitude * envelope * fringe


def polarizer_scan(
    config: SourceConfig,
    angles_deg: np.ndarray,
    integration_s: float,
    peak_angle_deg: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Poisson-fluctuated coincidence counts per polarizer angle."""
    if integration_s <= 0.0:
        raise OutOfRange(f"integration must be positive, got {integration_s}")
    mean = scan_fringe_mean(config, angles_deg, integration_s, peak_angle_deg)
    rng = module_rng(seed, MODULE_NAME + ".scan")
    return rng.poisson(mean).astype(np.int64)


def scan_visibility(angles_deg: np.ndarray, counts: np.ndarray) -> float:
    """Visibility of a scanned fringe via its extrema.

    Fits the scan with angular harmonics 0 through 3, which span the
    imbalanced-envelope fringe exactly, and reads the extrema from the
    fit. The mean of the two maxima (and of the two minima) is used,
    so an intensity imbalance between the peaks cancels and only the
    half-turn fringe component sets the contrast.
    """
    angles = np.asarray(angles_deg, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if len(angles) != len(counts) or len(angles) < 8:
        raise InvalidExtrema("need matching angle/count arrays with >= 8 samples")
    theta = np.radians(angles)
    design = np.column_stack(
        [np.ones_like(theta)]
        + [f(m * theta) for m in (1, 2, 3) for f in (np.cos, np.sin)]
    )
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    dc = float(coef[0])
    fringe_amp = float(np.hypot(coef[3], coef[4]))
    if dc <= 0.0:
        raise InvalidExtrema(f"fitted mean count {dc} is not positive")
    c_max = dc + fringe_amp
    c_min = dc - fringe_amp
    if c_min < 1e-9 * dc:
        # fitted minimum indistinguishable from zero at double precision
        c_min = 0.0
    return visibility_from_extrema(c_max, c_min)
