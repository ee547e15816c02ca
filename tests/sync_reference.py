"""The beacon schedule as one array, and the beacon clock fit over it.

This is the clock fit as it stood before the sync walked the pulse
train in blocks: np.polyfit over boolean-masked copies of the tags and
an explicit schedule array. The tests hold beacon_clock_sync to it. One
thing differs: the period is the schedule's first spacing, exactly
1/f, where the old fit took the median spacing. Rounding k/f spreads
the spacings by up to an ulp of the latest pulse time, and so could
their median sit off 1/f: enough to move the fold window's edge across
a pulse, which sent the two fits different ways on a train with no
jitter, a blackout and noise tags.
"""
from __future__ import annotations

import math

import numpy as np

from qkdpass.errors import OutOfRange, SyncFailed
from qkdpass.photon_source import SourceConfig, beacon_pulse_count
from qkdpass.quantum_receiver import (MAX_CLOCK_DRIFT, ClockModel, SyncConfig,
                                      SyncResult)


def beacon_schedule(config: SourceConfig, duration_s: float) -> np.ndarray:
    """Every pulse time of the beacon train on [0, duration_s]."""
    return np.arange(beacon_pulse_count(config, duration_s)) / config.beacon_frequency_hz


def reference_beacon_clock_sync(beacon_tag_times_s: np.ndarray, schedule_s: np.ndarray,
                                config: SyncConfig) -> SyncResult:
    bin_s, max_offset_s = config.bin_s, config.max_offset_s
    tags = np.sort(np.asarray(beacon_tag_times_s, dtype=float))
    schedule = np.asarray(schedule_s, dtype=float)
    if len(tags) == 0 or len(schedule) == 0:
        raise SyncFailed("no beacon tags to synchronize on")
    if len(schedule) < 2:
        raise SyncFailed("schedule must contain at least two pulses")
    period = float(schedule[1] - schedule[0])

    fold_window = min(0.1 * period / MAX_CLOCK_DRIFT,
                      float(tags[-1] - tags[0]) + period)
    segment = tags[tags <= tags[0] + fold_window]
    folded = (segment - schedule[0]) % period
    n_bins = max(4, int(round(period / bin_s)))
    counts, edges = np.histogram(folded, bins=n_bins, range=(0.0, period))
    peak = int(np.argmax(counts))
    floor = max(float(np.median(counts)), 1.0)
    if counts[peak] <= 5.0 * floor:
        raise SyncFailed(
            f"correlation peak {counts[peak]} not above 5x median bin {floor:.1f}")
    center = 0.5 * (edges[peak] + edges[peak + 1])
    delta = (folded - center + 0.5 * period) % period - 0.5 * period
    near = np.abs(delta) <= 2.0 * (period / n_bins)
    offset_mod = center + (float(np.mean(delta[near])) if np.any(near) else 0.0)
    whole = round(float(segment[0] - schedule[0] - offset_mod) / period)
    coarse = offset_mod + whole * period
    if abs(coarse) > max_offset_s:
        raise SyncFailed(f"coarse offset {coarse:.6g} s outside +/-{max_offset_s:.3g} s")

    offset, drift = coarse, 0.0
    matched_tags = matched_pulses = np.empty(0)
    rms = math.inf
    for round_index, pool in enumerate((segment, segment, tags, tags)):
        predicted = (pool - offset) / (1.0 + drift)
        j = np.clip(np.searchsorted(schedule, predicted), 1, len(schedule) - 1)
        nearer_left = (predicted - schedule[j - 1]) < (schedule[j] - predicted)
        j = j - nearer_left
        residual = pool - (schedule[j] * (1.0 + drift) + offset)
        if round_index == 0:
            tol = 0.4 * period
        else:
            mad = float(np.median(np.abs(residual - np.median(residual))))
            tol = min(max(8.0 * 1.4826 * mad, 4.0 * bin_s), 0.4 * period)
        good = np.abs(residual) <= tol
        if int(good.sum()) < 2:
            raise SyncFailed("too few beacon tags matched schedule pulses")
        matched_tags, matched_pulses = pool[good], schedule[j[good]]
        slope, intercept = np.polyfit(matched_pulses, matched_tags, 1)
        offset, drift = float(intercept), float(slope) - 1.0
        rms = float(np.sqrt(np.mean(
            (matched_tags - (matched_pulses * (1.0 + drift) + offset)) ** 2)))
    if len(matched_tags) < config.min_matched:
        raise SyncFailed(f"only {len(matched_tags)} beacon pulses matched; "
                         f"need {config.min_matched}")
    if rms > 0.1 * period:
        raise SyncFailed(f"fit residual rms {rms:.3g} s is not well below the beacon period")
    try:
        clock = ClockModel(offset_s=offset, drift=drift)
    except OutOfRange as exc:
        raise SyncFailed(f"implausible clock fit: {exc}") from exc
    return SyncResult(clock=clock, n_matched=int(len(matched_tags)), residual_rms_s=rms)
