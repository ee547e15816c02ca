"""Four-channel polarization detection, time tagging, and sync.

One detection unit model serves both ends of the link: the ground
receiver and the onboard idler arm are identical four-channel
analyzers (50/50 basis splitter, then a polarizing splitter per
basis, one avalanche photodiode per output). This module measures
pair events into channels, degrades arrival times through a detector
model and a clock, recovers the ground clock from the sync beacon,
and finds coincidences between the two sides' tag streams.
"""
from __future__ import annotations

import csv
import itertools
import math
import tempfile
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import OutOfRange, SyncFailed
from .photon_source import BASIS_HV, PairEventStream, qber_from_visibility
from .polarization_correction import qber_from_residual
from .seeding import NORMAL_BOUND, _add_normal, _uniform_below

MODULE_NAME = "quantum_receiver"

CHANNEL_H = 0
CHANNEL_V = 1
CHANNEL_A = 2
CHANNEL_D = 3
CHANNEL_BEACON = 255

CHANNEL_TOKENS = {CHANNEL_H: "H", CHANNEL_V: "V", CHANNEL_A: "A",
                  CHANNEL_D: "D", CHANNEL_BEACON: "BEACON"}
TOKEN_CHANNELS = {v: k for k, v in CHANNEL_TOKENS.items()}

ORIGIN_SIGNAL = 0
ORIGIN_DARK = 1
ORIGIN_BACKGROUND = 2

QUAD_CHANNELS = (CHANNEL_H, CHANNEL_V, CHANNEL_A, CHANNEL_D)

MAX_CLOCK_DRIFT = 1e-4


def channel_basis(channels: np.ndarray) -> np.ndarray:
    """0 for H/V, 1 for A/D."""
    return np.asarray(channels) >> 1


def channel_bit(channels: np.ndarray) -> np.ndarray:
    """Key bit convention: H=0, V=1, A=0, D=1."""
    return np.asarray(channels) & 1


@dataclass(frozen=True)
class DetectorModel:
    """Shared imperfection model for one four-channel analyzer."""

    efficiency: float = 0.5
    dark_rate_hz: float = 100.0       # per channel
    dead_time_s: float = 1e-6
    timing_jitter_rms_s: float = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise OutOfRange(f"efficiency {self.efficiency} outside [0, 1]")
        if self.dark_rate_hz < 0.0 or self.dead_time_s < 0.0 or self.timing_jitter_rms_s < 0.0:
            raise OutOfRange("dark rate, dead time, and jitter must be nonnegative")


@dataclass(frozen=True)
class ClockModel:
    """Affine receiver clock relative to the satellite clock."""

    offset_s: float = 0.0
    drift: float = 0.0   # s/s

    def __post_init__(self):
        if not abs(self.drift) < MAX_CLOCK_DRIFT:
            raise OutOfRange(f"|drift| {abs(self.drift)} not below {MAX_CLOCK_DRIFT}")

    def apply(self, times_s: np.ndarray) -> np.ndarray:
        return np.asarray(times_s, dtype=float) * (1.0 + self.drift) + self.offset_s

    def invert(self, times_s: np.ndarray) -> np.ndarray:
        return (np.asarray(times_s, dtype=float) - self.offset_s) / (1.0 + self.drift)


@dataclass(frozen=True)
class TagStream:
    """Time-ordered detection records for one receiver.

    origins carries the ground-truth label (signal/dark/background)
    for testing; exported data drops it.
    """

    times_s: np.ndarray
    channels: np.ndarray
    origins: np.ndarray

    def __post_init__(self):
        if not (len(self.times_s) == len(self.channels) == len(self.origins)):
            raise ValueError("tag columns must share one length")
        t = self.times_s
        if len(t) > 1 and np.any(t[1:] < t[:-1]):
            raise ValueError("tags must be sorted by time")

    def __len__(self) -> int:
        return len(self.times_s)


def _is_sorted(times: np.ndarray) -> bool:
    """Whether times never decrease (False if any time is NaN)."""
    return bool(np.all(times[1:] >= times[:-1]))


# Rows per step of _compress and the tag text writers: bounds their temporaries.
_ROW_CHUNK = 1 << 16


def _compress(mask: np.ndarray, *columns: np.ndarray) -> list[np.ndarray]:
    """column[mask] for each column, gathered _ROW_CHUNK rows at a time.

    A gather by index is several times faster than a boolean mask on
    randomly thinned rows; taken a chunk at a time it needs no
    full-length index array, and each chunk's rows serve every column.
    The rows are in range, so take runs unchecked ("clip"), which also
    spares it a buffered copy of out.
    """
    n_out = int(np.count_nonzero(mask))
    out = [np.empty(n_out, dtype=column.dtype) for column in columns]
    done = 0
    for start in range(0, len(mask), _ROW_CHUNK):
        rows = np.flatnonzero(mask[start:start + _ROW_CHUNK])
        for column, gathered in zip(columns, out):
            column[start:start + _ROW_CHUNK].take(
                rows, out=gathered[done:done + len(rows)], mode="clip")
        done += len(rows)
    return out


# Rows per block of _sort_in_place: small, so that the blocks a few
# out-of-order rows fall in are a small share of a stream.
_SORT_BLOCK = 1 << 12


def _sort_in_place(times: np.ndarray, *columns: np.ndarray) -> None:
    """Stable-sort finite times in place, permuting the columns with them.

    Row i is already where a stable argsort puts it when no earlier
    time is larger and no later time smaller. Only the other rows are
    gathered, sorted among themselves and written back to their own
    places. A block of rows that is sorted and lies between the largest
    time before it and the smallest after it holds no such row, so only
    the other blocks are searched. Arrivals plus timing jitter are
    near-sorted: few blocks are searched and few rows move.
    """
    if not len(times):
        return
    starts = np.arange(0, len(times), _SORT_BLOCK)
    lows = np.minimum.reduceat(times, starts)
    highs = np.maximum.reduceat(times, starts)
    earlier = np.maximum.accumulate(np.append(-np.inf, highs[:-1]))
    later = np.minimum.accumulate(np.append(lows[1:], np.inf)[::-1])[::-1]
    search = (lows < earlier) | (highs > later)
    search[(np.flatnonzero(times[1:] < times[:-1]) + 1) // _SORT_BLOCK] = True
    out_of_place = [np.empty(0, dtype=np.intp)]
    for k in np.flatnonzero(search):
        start = starts[k]
        t = times[start:start + _SORT_BLOCK]
        before = np.maximum.accumulate(np.append(earlier[k], t))
        after = np.minimum.accumulate(np.append(t, later[k])[::-1])[::-1]
        out_of_place.append(
            np.flatnonzero((before[:-1] > t) | (t > after[1:])) + start)
    rows = np.concatenate(out_of_place)
    if len(rows):
        order = rows[np.argsort(times[rows], kind="stable")]
        for column in (times, *columns):
            column[rows] = column[order]


def measure_polarization(
    stream: PairEventStream,
    side: str,
    residual_deg=0.0,
    rng: np.random.Generator | None = None,
    ad_anticorrelated: bool = True,
    rows=slice(None),
) -> np.ndarray:
    """Channel assignment (H/V/A/D) of the pairs at rows on one side.

    rows indexes the measured pairs, every pair by default; residual_deg
    is a scalar or one value per measured pair. The onboard side replays
    the idler channel recorded at emission and draws nothing. The ground
    side draws from rng, per measured photon and in this order, its
    basis, a fair bit, a source error with probability (1 - visibility)/2
    and a misalignment flip with probability sin^2(residual). In the idler's
    basis it reads the idler outcome, otherwise the fair bit; both flips
    then apply. Its draws follow the measured photons, not their row
    numbers. ad_anticorrelated selects the convention of correlated H/V
    and anticorrelated A/D outcomes, matching the source's fringe
    extrema.
    """
    if side == "onboard":
        return stream.idler_channel[rows]
    if side != "ground":
        raise OutOfRange(f"side must be 'ground' or 'onboard', got {side!r}")
    idler = stream.idler_channel[rows]
    idler_basis = channel_basis(idler)
    bit = channel_bit(idler)
    m = len(bit)
    basis = rng.integers(0, 2, size=m, dtype=np.uint8)
    fair = rng.integers(0, 2, size=m, dtype=np.uint8)
    error = rng.random(m) < qber_from_visibility(stream.config.visibility)
    mis = rng.random(m) < qber_from_residual(residual_deg)
    if ad_anticorrelated:
        bit = bit ^ (basis != BASIS_HV)
    bit = np.where(basis == idler_basis, bit, fair) ^ error ^ mis
    return basis * 2 + bit


def _first_reaching(values: np.ndarray, queries: np.ndarray, bound: float,
                    op=np.greater_equal) -> np.ndarray:
    """First index j with op(values[j] - query, bound), for every query.

    values is sorted, so the rounded difference rises with j and the
    test flips once. searchsorted on the rounded sum query + bound
    gives the guess; the sum can sit an ulp away from the difference
    the test reads, so guesses then step by one until the test itself
    agrees. op is np.greater_equal or np.greater.
    """
    n = len(values)
    side = "left" if op is np.greater_equal else "right"
    j = np.searchsorted(values, queries + bound, side=side)
    sel = np.flatnonzero(j > 0)
    while len(sel):
        sel = sel[op(values[j[sel] - 1] - queries[sel], bound)]
        j[sel] -= 1
        sel = sel[j[sel] > 0]
    sel = np.flatnonzero(j < n)
    while len(sel):
        sel = sel[~op(values[j[sel]] - queries[sel], bound)]
        j[sel] += 1
        sel = sel[j[sel] < n]
    return j


def _prune_dead_time(times: np.ndarray, dead_time_s: float) -> np.ndarray:
    """Keep mask of a non-paralyzable dead time on one channel's sorted times.

    An event at least dead_time_s after its predecessor starts a
    cluster and is kept. Inside a cluster the next kept event is the
    first whose time minus the last kept time reaches dead_time_s, the
    difference a per-event loop tests. All clusters advance in
    lockstep, one array step per kept event, until each steps into the
    next cluster; a step costs one binary search per open cluster.
    """
    keep = np.ones(len(times), dtype=bool)
    if len(times) < 2:
        return keep
    np.greater_equal(np.diff(times), dead_time_s, out=keep[1:])
    # kept events with a later event inside their own cluster
    last = np.flatnonzero(keep[:-1] & ~keep[1:])
    while len(last):
        nxt = _first_reaching(times, times[last], dead_time_s)
        nxt = nxt[nxt < len(times)]
        # a cluster start is already kept: that cluster is done
        last = nxt[~keep[nxt]]
        keep[last] = True
    return keep


@dataclass
class DetectorCarry:
    """What apply_detector keeps between the blocks of one arrival stream.

    floor: the lowest arrival time a later block may hold (the last
    block's latest). held: kept rows on the output timebase that a later
    arrival could still precede, sorted. darks: the dark counts not yet
    emitted, sorted (None until the first block draws them over the
    span). last_kept: each channel code's last kept time, for the dead
    time (-inf before the first). until: a time that no tag of a later
    block comes before, inf once the last block is in.
    """

    floor: float = -np.inf
    until: float = -np.inf
    held: tuple[np.ndarray, np.ndarray, np.ndarray] = field(default_factory=lambda: (
        np.empty(0), np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint8)))
    darks: tuple[np.ndarray, np.ndarray] | None = None
    last_kept: np.ndarray = field(default_factory=lambda: np.full(256, -np.inf))


def _dark_counts(rng: np.random.Generator, model: DetectorModel,
                 lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Each quad channel's dark counts on [lo, hi): a Poisson count, then
    uniform times; returned sorted by a stable argsort of the times."""
    if not (model.dark_rate_hz > 0.0 and hi > lo):
        return np.empty(0), np.empty(0, dtype=np.uint8)
    extra_t, extra_c = [], []
    for channel in QUAD_CHANNELS:
        n_dark = rng.poisson(model.dark_rate_hz * (hi - lo))
        extra_t.append(rng.uniform(lo, hi, size=n_dark))
        extra_c.append(np.full(n_dark, channel, dtype=np.uint8))
    dark_t = np.concatenate(extra_t)
    order = np.argsort(dark_t, kind="stable")
    return dark_t[order], np.concatenate(extra_c)[order]


def apply_detector(
    arrival_times_s: np.ndarray,
    channels: np.ndarray,
    model: DetectorModel,
    clock: ClockModel,
    rng: Sequence[np.random.Generator],
    span_s: tuple[float, float],
    carry: DetectorCarry,
    origins: np.ndarray | None = None,
    last: bool = True,
) -> TagStream:
    """Detection chain from photon arrivals to clock-stamped tags.

    In order: Bernoulli thinning at the detector efficiency, Gaussian
    timing jitter (truncated at NORMAL_BOUND standard deviations), the
    receiver clock transform, dark counts injected per channel over the
    clock-transformed span, then per-channel non-paralyzable dead-time
    pruning on the final timebase (an exact array kernel that follows
    every dead-time cluster in lockstep; see _prune_dead_time). span_s
    (in arrival-side time) bounds the dark-count window. rng is the
    thinning, jitter and dark-count streams, in that order; one
    generator passed three times draws all three in that order per call.

    The tags come out in the order of a stable argsort of the jittered
    arrivals followed by the dark counts: arrivals go first on equal
    times. Arrivals sorted on input stay near-sorted after the jitter,
    so they are sorted in place (_sort_in_place); the few dark counts
    are sorted on their own and merged in, per channel for the dead
    time and once more for the output.

    A stream comes in blocks, in time order, possibly just one: each
    call passes the same rng streams, span_s and carry, and last marks
    the final block. A call returns the tags no later arrival can
    precede: those before the block's latest arrival moved back by the
    largest jitter. The rest wait in carry.held, and each channel's last
    kept time carries the dead time over. Every draw is sequential in
    its own stream, so the tags of all blocks together are those of one
    call over the whole stream, for any split.
    """
    thin_rng, jitter_rng, dark_rng = rng
    times = np.asarray(arrival_times_s, dtype=float)
    columns = [times, np.asarray(channels)]
    if origins is not None:
        columns.append(np.asarray(origins))
    if any(len(column) != len(times) for column in columns):
        raise ValueError("arrival columns must share one length")
    floor = carry.floor
    if len(times):
        if times.min() < floor:
            raise ValueError("blocks of arrivals must come in time order")
        floor = carry.floor = float(times.max())

    kept = _uniform_below(thin_rng, (model.efficiency,), (0, len(times)))
    if origins is None:
        times, chan = _compress(kept, *columns)
        orig = np.full(len(times), ORIGIN_SIGNAL, dtype=np.uint8)
    else:
        times, chan, orig = _compress(kept, *columns)
        orig = orig.astype(np.uint8, copy=False)
    chan = chan.astype(np.uint8, copy=False)
    del kept, columns

    if model.timing_jitter_rms_s > 0.0:
        _add_normal(jitter_rng, times, model.timing_jitter_rms_s)
        # the earliest a later arrival can land, as the jitter rounds it
        floor += -NORMAL_BOUND * model.timing_jitter_rms_s
    # clock.apply, in place
    times *= 1.0 + clock.drift
    times += clock.offset_s
    final_before = np.inf if last else floor * (1.0 + clock.drift) + clock.offset_s
    carry.until = final_before

    if carry.darks is None:
        lo, hi = clock.apply(np.asarray(span_s, dtype=float))
        carry.darks = _dark_counts(dark_rng, model, lo, hi)

    if len(carry.held[0]):
        # held rows come from earlier arrivals: they go first on equal times
        times, chan, orig = (np.concatenate(pair)
                             for pair in zip(carry.held, (times, chan, orig)))
    _sort_in_place(times, chan, orig)
    done = int(np.searchsorted(times, final_before, side="left"))
    carry.held = (times[done:].copy(), chan[done:].copy(), orig[done:].copy())
    times, chan, orig = times[:done], chan[:done], orig[:done]
    dark_t, dark_c = carry.darks
    done = int(np.searchsorted(dark_t, final_before, side="left"))
    carry.darks = (dark_t[done:], dark_c[done:])
    dark_t, dark_c = dark_t[:done], dark_c[:done]

    if model.dead_time_s > 0.0:
        keep = np.empty(len(times), dtype=bool)
        keep_dark = np.empty(len(dark_t), dtype=bool)
        # the channel codes that occur (a bincount would copy chan to intp)
        present = np.zeros(256, dtype=bool)
        present[chan] = True
        present[dark_c] = True
        for channel in np.flatnonzero(present):
            rows = np.flatnonzero(chan == channel)
            darks = np.flatnonzero(dark_c == channel)
            # the channel's last kept time in an earlier block, if any,
            # leads; its darks go after its arrivals at equal times
            lead = carry.last_kept[channel:channel + 1]
            lead = lead[lead > -np.inf]
            merged = times[rows]
            at = np.searchsorted(merged, dark_t[darks], side="right")
            merged = np.insert(merged, np.append(np.zeros_like(lead, np.intp), at),
                               np.append(lead, dark_t[darks]))
            alive = _prune_dead_time(merged, model.dead_time_s)
            carry.last_kept[channel] = merged[len(alive) - 1 - np.argmax(alive[::-1])]
            slots = at + np.arange(len(lead), len(lead) + len(at))
            keep_dark[darks] = alive[slots]
            keep[rows] = np.delete(alive, np.append(np.arange(len(lead)), slots))
            del rows, merged, alive
        # one column at a time, the widest last: each full-length column
        # goes as soon as its output-size copy is made
        chan, = _compress(keep, chan)
        orig, = _compress(keep, orig)
        times, = _compress(keep, times)
        del keep
        dark_t, dark_c = dark_t[keep_dark], dark_c[keep_dark]

    if len(dark_t):
        at = np.searchsorted(times, dark_t, side="right")
        times = np.insert(times, at, dark_t)
        chan = np.insert(chan, at, dark_c)
        orig = np.insert(orig, at, ORIGIN_DARK)
    return TagStream(times, chan, orig)


@dataclass(frozen=True)
class SyncConfig:
    """Beacon timing and clock-recovery settings."""

    beacon_jitter_rms_s: float = 1e-9
    bin_s: float = 100e-9
    max_offset_s: float = 10e-3
    min_matched: int = 100

    def __post_init__(self):
        if not (self.bin_s > 0.0 and self.max_offset_s > 0.0):
            raise OutOfRange("bin_s and max_offset_s must be positive")
        if not self.beacon_jitter_rms_s >= 0.0:
            raise OutOfRange("beacon_jitter_rms_s must be nonnegative")
        if not self.min_matched >= 2:
            raise OutOfRange(f"min_matched {self.min_matched} below 2")


@dataclass(frozen=True)
class SyncResult:
    """Recovered receiver clock and fit diagnostics."""

    clock: ClockModel
    n_matched: int
    residual_rms_s: float


# Tags per step of beacon_clock_sync's fit rounds: bounds their temporaries.
_SYNC_BLOCK = 1 << 15


def _nearest_pulses(tags: np.ndarray, offset: float, drift: float, frequency: float,
                    n_pulses: int) -> tuple[np.ndarray, np.ndarray]:
    """The pulse time nearest each tag under the clock estimate, and the
    tag's residual from it, tag - (pulse * (1 + drift) + offset).

    Pulse k leaves at k / frequency. k is the index np.searchsorted
    over the whole train would give the predicted emission time,
    clipped to 1..n_pulses - 1, then stepped back by one when the
    earlier pulse is strictly nearer: ties go to the later pulse.
    """
    predicted = (tags - offset) / (1.0 + drift)
    k = np.ceil(predicted * frequency)
    np.clip(k, 1.0, n_pulses - 1.0, out=k)
    # the rounded product can put k a pulse off the first pulse at or
    # after the predicted time: step k by the comparison searchsorted makes
    for step, off in ((-1.0, lambda k, p: (k > 1.0) & ((k - 1.0) / frequency >= p)),
                      (1.0, lambda k, p: (k < n_pulses - 1.0) & (k / frequency < p))):
        sel = np.flatnonzero(off(k, predicted))
        while len(sel):
            k[sel] += step
            sel = sel[off(k[sel], predicted[sel])]
    later = k / frequency
    k -= 1.0
    earlier = np.divide(k, frequency, out=k)
    pulse = np.where(predicted - earlier < later - predicted, earlier, later)
    return pulse, tags - (pulse * (1.0 + drift) + offset)


def beacon_clock_sync(
    beacon_tag_times_s: np.ndarray,
    frequency_hz: float,
    n_pulses: int,
    config: SyncConfig,
) -> SyncResult:
    """Estimate the receiver clock from beacon tags and the known pulse train.

    The train has n_pulses pulses, pulse k leaving at k / frequency_hz.

    Coarse stage: tag times are folded modulo the beacon period and
    histogrammed at config.bin_s; the peak bin gives the offset modulo one
    period, rejected as ambiguous unless it exceeds 5x the median
    bin. The fold uses only an initial slice short enough that the
    worst admissible drift cannot smear the peak. The whole number of
    periods is then anchored by pairing the first tag with its
    nearest pulse, which assumes the tag stream covers the start of
    the pulse train; a strictly periodic train constrains the offset
    only modulo its period, so some edge reference is required. An
    offset beyond config.max_offset_s fails.

    Fine stage: each tag is matched to the nearest pulse under the
    current clock estimate (_nearest_pulses) and a straight line of tag
    time against pulse time is refit (slope 1+drift, intercept offset),
    with the match tolerance tightened from the median absolute
    deviation of the residuals. The first fit reuses the short fold
    slice so unmodeled drift cannot scramble matches far from it; later
    rounds use every tag. Fewer than config.min_matched matched pulses
    fail.

    The rounds walk the tags _SYNC_BLOCK at a time and fit the line from
    running sums of the residuals, centred on their median, against
    pulse times centred on the pool's middle, so besides the tags only
    one residual array per round (for the median) scales with the tag
    count. The drift is fitted as the residuals' slope, not as a slope
    less one, so it keeps its low bits. The rms comes from the sums:
    cancellation leaves it about sqrt(eps) of the residuals' spread off.
    """
    bin_s, max_offset_s = config.bin_s, config.max_offset_s
    tags = np.asarray(beacon_tag_times_s, dtype=float)
    if not _is_sorted(tags):
        tags = np.sort(tags)
    if len(tags) == 0 or n_pulses == 0:
        raise SyncFailed("no beacon tags to synchronize on")
    if n_pulses < 2:
        raise SyncFailed("the beacon train must have at least two pulses")
    period = 1.0 / frequency_hz

    # a drift of MAX_CLOCK_DRIFT may smear the fold by at most period/10
    fold_window = min(0.1 * period / MAX_CLOCK_DRIFT,
                      float(tags[-1] - tags[0]) + period)
    segment = tags[:np.searchsorted(tags, tags[0] + fold_window, side="right")]
    folded = segment % period
    n_bins = max(4, int(round(period / bin_s)))
    counts, edges = np.histogram(folded, bins=n_bins, range=(0.0, period))
    peak = int(np.argmax(counts))
    floor = max(float(np.median(counts)), 1.0)
    if counts[peak] <= 5.0 * floor:
        raise SyncFailed(
            f"correlation peak {counts[peak]} not above 5x median bin {floor:.1f}"
        )
    center = 0.5 * (edges[peak] + edges[peak + 1])
    # circular refinement so a peak straddling the fold boundary stays sharp
    delta = (folded - center + 0.5 * period) % period - 0.5 * period
    near = np.abs(delta) <= 2.0 * (period / n_bins)
    offset_mod = center + (float(np.mean(delta[near])) if np.any(near) else 0.0)
    whole = round(float(segment[0] - offset_mod) / period)
    coarse = offset_mod + whole * period
    if abs(coarse) > max_offset_s:
        raise SyncFailed(
            f"coarse offset {coarse:.6g} s outside +/-{max_offset_s:.3g} s"
        )

    # two fits on the fold slice (trim outliers before trusting the
    # slope for extrapolation), then two over every tag
    offset, drift = float(coarse), 0.0
    for round_index, pool in enumerate((segment, segment, tags, tags)):
        starts = range(0, len(pool), _SYNC_BLOCK)
        if round_index == 0:
            tol, centre = 0.4 * period, 0.0
        else:
            residual = np.empty(len(pool))
            for start in starts:
                residual[start:start + _SYNC_BLOCK] = _nearest_pulses(
                    pool[start:start + _SYNC_BLOCK], offset, drift, frequency_hz,
                    n_pulses)[1]
            # the median absolute deviation, partitioning residual in place
            centre = float(np.median(residual, overwrite_input=True))
            residual -= centre
            mad = float(np.median(np.abs(residual, out=residual), overwrite_input=True))
            del residual
            tol = min(max(8.0 * 1.4826 * mad, 4.0 * bin_s), 0.4 * period)
        # sums over the matched tags of x, the pulse time from the pool's
        # middle, and y, the residual from the median residual: n, x, y,
        # x^2, x y, y^2. Centring both keeps the sums' cancellation small.
        middle = float(pool[len(pool) // 2] - offset) / (1.0 + drift)
        sums = np.zeros(6)
        for start in starts:
            pulse, residual = _nearest_pulses(pool[start:start + _SYNC_BLOCK], offset,
                                              drift, frequency_hz, n_pulses)
            good = np.abs(residual) <= tol
            x, y = pulse[good] - middle, residual[good] - centre
            sums += (len(x), np.sum(x), np.sum(y), np.sum(x * x), np.sum(x * y),
                     np.sum(y * y))
        n, sx, sy, sxx, sxy, syy = sums.tolist()
        if n < 2:
            raise SyncFailed("too few beacon tags matched schedule pulses")
        sxx -= sx * sx / n
        if not sxx > 0.0:
            raise SyncFailed("every matched beacon tag fits one pulse")
        sxy -= sx * sy / n
        slope = sxy / sxx
        offset += centre + (sy - slope * sx) / n - slope * middle
        drift += slope
        rms = math.sqrt(max(syy - sy * sy / n - slope * sxy, 0.0) / n)
    n_matched = int(n)
    if n_matched < config.min_matched:
        raise SyncFailed(f"only {n_matched} beacon pulses matched; "
                         f"need {config.min_matched}")
    if rms > 0.1 * period:
        raise SyncFailed(
            f"fit residual rms {rms:.3g} s is not well below the beacon period; "
            "tags show no coherent pulse structure"
        )
    try:
        clock = ClockModel(offset_s=offset, drift=drift)
    except OutOfRange as exc:
        raise SyncFailed(f"implausible clock fit: {exc}") from exc
    return SyncResult(clock=clock, n_matched=n_matched, residual_rms_s=rms)


@dataclass(frozen=True)
class CoincidenceResult:
    """Matched tag pairs plus the expected number of accidental matches."""

    onboard_indices: np.ndarray
    ground_indices: np.ndarray
    expected_accidentals: float

    def __len__(self) -> int:
        return len(self.onboard_indices)


def find_coincidences(
    onboard_times_s: np.ndarray,
    ground_times_s: np.ndarray,
    window_s: float,
) -> CoincidenceResult:
    """Greedy pairing of tags within +/- window/2, each tag used once.

    Both inputs must be sorted by time, as TagStream guarantees. The
    result is that of a two-pointer sweep that pairs the earliest
    compatible tags and advances; at rates where at most one candidate
    falls inside the window this is exactly nearest-neighbor matching.

    The sweep's outcome splits over the components of the candidate
    graph (a pair is a candidate when -window/2 <= ground - onboard <=
    window/2). Every tag of the shorter stream is searched into the
    longer one, which gives its candidates as one index range. A
    component with one shorter-stream tag pairs that tag with its first
    candidate, as the sweep does; only the few components with more
    such tags are swept. The cost is
    O(min(n_onboard, n_ground) x log) plus the conflict components.
    The accidental estimate is r_onboard x r_ground x window over the
    overlap span (_expected_accidentals). Streams that come in blocks
    are matched a segment at a time by match_blocks, with the same
    result.
    """
    if window_s < 0.0:
        raise OutOfRange(f"window must be nonnegative, got {window_s}")
    a = np.asarray(onboard_times_s, dtype=float)
    b = np.asarray(ground_times_s, dtype=float)
    half = 0.5 * window_s
    na, nb = len(a), len(b)
    onboard_short = na <= nb
    short, long = (a, b) if onboard_short else (b, a)
    # -half <= ground - onboard <= half reads the same on long - short,
    # because a rounded difference only changes sign when swapped
    rows, lo, hi = _candidate_ranges(short, long, half)

    # Ranges rise with the row, so a range starting at or after the end
    # of the previous one shares no candidate with any earlier row. A
    # component with one row pairs it with its first candidate.
    starts = np.ones(len(rows) + 1, dtype=bool)
    starts[1:-1] = lo[1:] >= hi[:-1]
    single = starts[:-1] & starts[1:]
    conflict = ~single
    long_rows = _concat_ranges(lo[starts[:-1] & conflict], hi[starts[1:] & conflict])
    short_rows = rows[conflict]
    sub_a, sub_b = (short_rows, long_rows) if onboard_short else (long_rows, short_rows)
    ia, ib = _greedy_sweep(a[sub_a], b[sub_b], half)
    ia = np.concatenate([(rows if onboard_short else lo)[single], sub_a[ia]])
    ib = np.concatenate([(lo if onboard_short else rows)[single], sub_b[ib]])
    order = np.argsort(ia)

    return CoincidenceResult(
        onboard_indices=ia[order].astype(np.int64, copy=False),
        ground_indices=ib[order].astype(np.int64, copy=False),
        expected_accidentals=_expected_accidentals(_extent(a), _extent(b), window_s),
    )


def _extent(times: np.ndarray) -> tuple[int, float | None, float | None]:
    """(count, first time, last time) of a sorted tag stream."""
    return (len(times), times[0], times[-1]) if len(times) else (0, None, None)


def _expected_accidentals(a: tuple, b: tuple, window_s: float) -> float:
    """r_a x r_b x window over the overlap of two streams given by _extent."""
    (na, a_first, a_last), (nb, b_first, b_last) = a, b
    overlap = min(a_last, b_last) - max(a_first, b_first) if na and nb else 0.0
    expected = 0.0
    if overlap > 0.0:
        rate_a = na / (a_last - a_first) if a_last > a_first else 0.0
        rate_b = nb / (b_last - b_first) if b_last > b_first else 0.0
        expected = rate_a * rate_b * window_s * overlap
    return expected


# Shorter-stream tags searched per step of _candidate_ranges: bounds
# the search temporaries while both tag streams are still alive.
_SEARCH_CHUNK = 1 << 16


def _candidate_ranges(
    short: np.ndarray, long: np.ndarray, half: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of short with a candidate in long, and their ranges [lo, hi).

    A candidate satisfies -half <= long[j] - short[row] <= half, tested
    on the rounded difference itself. A row has one exactly when the
    first long tag past its lower edge is inside its upper edge, so
    the upper edge is searched only for those rows.
    """
    empty = np.empty(0, dtype=np.intp)
    found = [(empty, empty, empty)]
    for first in range(0, len(short), _SEARCH_CHUNK):
        s = short[first:first + _SEARCH_CHUNK]
        lo = _first_reaching(long, s, -half, np.greater_equal)
        inside = lo < len(long)
        inside[inside] = long[lo[inside]] - s[inside] <= half
        has = np.flatnonzero(inside)
        hi = _first_reaching(long, s[has], half, np.greater)
        found.append((has + first, lo[has], hi))
    rows, lo, hi = (np.concatenate(column) for column in zip(*found))
    return rows, lo, hi


def _concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The index ranges [lo, hi) laid end to end."""
    lengths = hi - lo
    shift = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(int(lengths.sum())) + shift


def _greedy_sweep(a: np.ndarray, b: np.ndarray,
                  half: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-pointer sweep over sorted tags: pair the earliest compatible."""
    ia: list[int] = []
    ib: list[int] = []
    ta, tb = a.tolist(), b.tolist()
    i = j = 0
    while i < len(ta) and j < len(tb):
        d = tb[j] - ta[i]
        if d > half:
            i += 1
        elif d < -half:
            j += 1
        else:
            ia.append(i)
            ib.append(j)
            i += 1
            j += 1
    return np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)


@dataclass
class _BlockSide:
    """One stream of match_blocks: its blocks, the tags carried from them
    and not yet matched (sorted), and what was matched before them.

    until is the last block's, -inf before the first and inf once the
    blocks run out. start counts the tags already matched, and first
    and last are their extreme times, so (start, first, last) is the
    stream's _extent once every tag is matched.
    """

    blocks: Iterator[tuple[np.ndarray, np.ndarray, float]]
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    channels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint8))
    until: float = -np.inf
    start: int = 0
    first: float | None = None
    last: float | None = None

    def pull(self) -> None:
        """Join the next block to the carried tags, stable-sorted."""
        block = next(self.blocks, None)
        if block is None:
            self.until = np.inf
            return
        times, channels, self.until = block
        self.times = np.concatenate([self.times, times])
        self.channels = np.concatenate([self.channels, channels])
        if not _is_sorted(self.times):
            order = np.argsort(self.times, kind="stable")
            self.times, self.channels = self.times[order], self.channels[order]

    def take(self, end: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Drop the first end tags as matched; rows (matched among them)
        as whole-stream indices, and their channels."""
        found = rows + self.start, self.channels[rows]
        if end:
            self.first = self.times[0] if self.first is None else self.first
            self.last = self.times[end - 1]
        self.start += end
        self.times, self.channels = self.times[end:], self.channels[end:]
        return found


def match_blocks(
    onboard_blocks: Iterable[tuple[np.ndarray, np.ndarray, float]],
    ground_blocks: Iterable[tuple[np.ndarray, np.ndarray, float]],
    window_s: float,
    match=find_coincidences,
) -> tuple[CoincidenceResult, np.ndarray, np.ndarray]:
    """find_coincidences on two tag streams that each come in blocks.

    Each block is (times_s, channels, until): tags on the reference
    timebase, in their stream's order, and a time that no tag of a later
    block of that stream comes before. The blocks of a stream joined
    need not be sorted. The result is that of one match call on the two
    streams joined and stable-sorted, with indices into that order, plus
    the matched onboard and ground tags' channels, one per pair; neither
    whole stream is ever held.

    The stream whose until is lower gives its next block, which joins the
    tags carried from its earlier blocks and is stable-sorted with them;
    the carried tags all come earlier in the stream, so ties keep the
    whole stream's order. The tags of both streams up to the latest cut
    before the lower until (_last_cut) form one segment, matched by one
    match call; the rest are carried. No candidate pair spans a cut, and
    the matching splits over the components of the candidate graph, so
    the segments give the whole-stream pairs once their indices are
    offset. Once both streams run out, the carried tags are matched. The
    accidental estimate reads the whole streams' counts and end times,
    as find_coincidences does. match is find_coincidences under whatever
    name the caller resolves it by.
    """
    onboard, ground = _BlockSide(iter(onboard_blocks)), _BlockSide(iter(ground_blocks))
    found = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8),
              np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8))]
    while min(onboard.until, ground.until) < np.inf:
        (onboard if onboard.until <= ground.until else ground).pull()
        until = min(onboard.until, ground.until)
        if until < np.inf:
            a_end, b_end = _last_cut(onboard.times, ground.times, until, window_s)
        else:
            a_end, b_end = len(onboard.times), len(ground.times)
        if not (a_end or b_end):
            continue
        pairs = match(onboard.times[:a_end], ground.times[:b_end], window_s)
        found.append((*onboard.take(a_end, pairs.onboard_indices),
                      *ground.take(b_end, pairs.ground_indices)))
    onboard_rows, onboard_channels, ground_rows, ground_channels = (
        np.concatenate(column) for column in zip(*found))
    return CoincidenceResult(
        onboard_indices=onboard_rows, ground_indices=ground_rows,
        expected_accidentals=_expected_accidentals(
            (onboard.start, onboard.first, onboard.last),
            (ground.start, ground.first, ground.last), window_s),
    ), onboard_channels, ground_channels


# Tags of each stream that _last_cut first merges to look for a cut.
_CUT_TAIL = 64


def _last_cut(a: np.ndarray, b: np.ndarray, until: float,
              window_s: float) -> tuple[int, int]:
    """Row ends in a and b of the latest cut before until.

    A cut is a gap wider than window_s between neighbours of a and b
    merged, both before until; no candidate pair spans it, as a rounded
    difference across it is at least the gap's. Only the last tags of
    each stream are merged, more each round until they hold a cut or all
    of them; with no cut, the ends are (0, 0).
    """
    a_stop = int(np.searchsorted(a, until, side="left"))
    b_stop = int(np.searchsorted(b, until, side="left"))
    tail = _CUT_TAIL
    while True:
        a_lo, b_lo = max(0, a_stop - tail), max(0, b_stop - tail)
        merged = np.sort(np.concatenate([a[a_lo:a_stop], b[b_lo:b_stop]]))
        # every tag of either stream from here up to until is in merged
        complete = max(a[a_lo] if a_lo else -np.inf, b[b_lo] if b_lo else -np.inf)
        gaps = np.flatnonzero((merged[1:] - merged[:-1] > window_s)
                              & (merged[:-1] >= complete))
        if len(gaps):
            cut = merged[gaps[-1]]
            return (int(np.searchsorted(a, cut, side="right")),
                    int(np.searchsorted(b, cut, side="right")))
        if not (a_lo or b_lo):
            return 0, 0
        tail *= 4


def write_tags_csv(blocks: Iterable[TagStream], path: str | Path) -> None:
    """Export tags as time_s,channel rows ending in \r\n, as csv.writer writes them.

    blocks are the successive blocks of one stream, written as they
    come: the bytes are those of the blocks joined.
    """
    with open(path, "w", newline="") as handle:
        handle.write("time_s,channel\r\n")
        for stream in blocks:
            for start in range(0, len(stream), _ROW_CHUNK):
                block = slice(start, start + _ROW_CHUNK)
                times = stream.times_s[block].tolist()
                tokens = [CHANNEL_TOKENS[c] for c in stream.channels[block].tolist()]
                handle.write("%.15g,%s\r\n" * len(times)
                             % tuple(itertools.chain.from_iterable(zip(times, tokens))))


def write_tags_json(blocks: Iterable[TagStream], path: str | Path) -> None:
    """Export one object with channel and time_s lists (origins dropped).

    The bytes are json.dumps(..., sort_keys=True, indent=2) plus a
    newline, written _ROW_CHUNK values at a time. blocks are the
    successive blocks of one stream: the channels are written as the
    blocks come, while the times wait in a temporary file (8 B a tag) for
    the second list.
    """
    def write_list(key: str, chunks: Iterable[np.ndarray], tail: str) -> None:
        handle.write(f'  "{key}": [')
        written = False
        for chunk in chunks:
            for start in range(0, len(chunk), _ROW_CHUNK):
                handle.write(",\n    " if written else "\n    ")
                handle.write(",\n    ".join(
                    map(repr, chunk[start:start + _ROW_CHUNK].tolist())))
                written = True
        handle.write(f"\n  ]{tail}\n" if written else f"]{tail}\n")

    def channels_spooling_times() -> Iterator[np.ndarray]:
        for stream in blocks:
            stream.times_s.astype("<f8", copy=False).tofile(spool)
            yield stream.channels

    def spooled_times() -> Iterator[np.ndarray]:
        spool.seek(0)
        while len(times := np.fromfile(spool, "<f8", _ROW_CHUNK)):
            yield times

    with open(path, "w") as handle, tempfile.TemporaryFile() as spool:
        handle.write("{\n")
        write_list("channel", channels_spooling_times(), ",")
        write_list("time_s", spooled_times(), "")
        handle.write("}\n")


def read_tags_csv(path: str | Path) -> TagStream:
    """Import tags written by write_tags_csv (origins come back blank)."""
    times, channels = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["time_s", "channel"]:
            raise ValueError(f"unrecognized tag CSV header {header!r}")
        for row in reader:
            times.append(float(row[0]))
            channels.append(TOKEN_CHANNELS[row[1]])
    return TagStream(
        times_s=np.asarray(times, dtype=float),
        channels=np.asarray(channels, dtype=np.uint8),
        origins=np.zeros(len(times), dtype=np.uint8),
    )


_BINARY_DTYPE = np.dtype([("time_s", "<f8"), ("channel", "u1")])


def write_tags_binary(blocks: Iterable[TagStream], path: str | Path) -> None:
    """Export packed little-endian (float64 seconds, uint8 channel) records
    of the successive blocks of one stream, as they come."""
    with open(path, "wb") as handle:
        for stream in blocks:
            records = np.empty(len(stream), dtype=_BINARY_DTYPE)
            records["time_s"] = stream.times_s
            records["channel"] = stream.channels
            records.tofile(handle)


def read_tags_binary(path: str | Path) -> TagStream:
    records = np.frombuffer(Path(path).read_bytes(), dtype=_BINARY_DTYPE)
    return TagStream(
        times_s=records["time_s"].astype(float),
        channels=records["channel"].astype(np.uint8),
        origins=np.zeros(len(records), dtype=np.uint8),
    )
