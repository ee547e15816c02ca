"""Detection chain, clock sync, coincidence matching, tag export."""
from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdpass import quantum_receiver
from qkdpass.seeding import module_rng
from qkdpass.errors import OutOfRange, SyncFailed
from qkdpass.photon_source import SourceConfig
from qkdpass.quantum_receiver import (_SEARCH_CHUNK, _prune_dead_time,
                                      _sort_in_place,
                                      CHANNEL_A, CHANNEL_BEACON, CHANNEL_D,
                                      CHANNEL_H, CHANNEL_V, ORIGIN_DARK,
                                      ORIGIN_SIGNAL, QUAD_CHANNELS, ClockModel,
                                      DetectorCarry, DetectorModel, SyncConfig,
                                      TagStream,
                                      beacon_clock_sync, channel_basis,
                                      channel_bit, apply_detector,
                                      find_coincidences, match_blocks,
                                      measure_polarization,
                                      read_tags_binary, read_tags_csv,
                                      write_tags_binary, write_tags_csv,
                                      write_tags_json)
from conftest import detect, pair_stream, stable_sorted, traced_memory, write_blocks
from sync_reference import beacon_schedule, reference_beacon_clock_sync

IDENTITY = ClockModel()
IDEAL = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, dead_time_s=0.0,
                      timing_jitter_rms_s=0.0)


def reference_prune_dead_time(times, dead_time_s):
    """Per-event non-paralyzable dead time: the loop the kernel replaces."""
    keep = np.empty(len(times), dtype=bool)
    last = -math.inf
    for i, t in enumerate(times):
        if t - last >= dead_time_s:
            keep[i] = True
            last = t
        else:
            keep[i] = False
    return keep


def reference_coincidences(a, b, window_s):
    """Two-pointer greedy sweep: the loop the coincidence kernel replaces."""
    half = 0.5 * window_s
    ia, ib = [], []
    i = j = 0
    while i < len(a) and j < len(b):
        d = b[j] - a[i]
        if d > half:
            i += 1
        elif d < -half:
            j += 1
        else:
            ia.append(i)
            ib.append(j)
            i += 1
            j += 1
    return np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)


def assert_matches_sweep(a, b, window_s):
    """Kernel against the sweep, with either stream as the shorter one."""
    for first, second in ((a, b), (b, a)):
        result = find_coincidences(first, second, window_s)
        ia, ib = reference_coincidences(first, second, window_s)
        assert result.onboard_indices.dtype == np.int64
        assert np.array_equal(result.onboard_indices, ia)
        assert np.array_equal(result.ground_indices, ib)


def _ulp_shift(values, steps):
    """values moved by steps (-1, 0 or +1) units in the last place."""
    return np.where(steps > 0, np.nextafter(values, math.inf),
                    np.where(steps < 0, np.nextafter(values, -math.inf), values))


def test_channel_codes():
    channels = np.array([CHANNEL_H, CHANNEL_V, CHANNEL_A, CHANNEL_D])
    assert channel_basis(channels).tolist() == [0, 0, 1, 1]
    assert channel_bit(channels).tolist() == [0, 1, 0, 1]


def test_clock_round_trip():
    clock = ClockModel(offset_s=1.2345e-3, drift=1e-6)
    t = np.array([0.0, 1.0, 100.0, 450.0])
    assert np.allclose(clock.invert(clock.apply(t)), t, atol=1e-12)


def test_clock_drift_bound():
    with pytest.raises(OutOfRange):
        ClockModel(drift=1e-3)


@settings(max_examples=50, deadline=None)
@given(
    offset=st.floats(min_value=-1e-2, max_value=1e-2),
    drift=st.floats(min_value=-9.9e-5, max_value=9.9e-5),
)
def test_clock_invert_property(offset, drift):
    clock = ClockModel(offset_s=offset, drift=drift)
    t = np.array([0.0, 17.3, 450.0])
    assert np.allclose(clock.invert(clock.apply(t)), t, atol=1e-9)


def test_tag_stream_invariants():
    with pytest.raises(ValueError):
        TagStream(np.array([1.0, 0.5]), np.zeros(2, np.uint8), np.zeros(2, np.uint8))
    with pytest.raises(ValueError):
        TagStream(np.array([1.0]), np.zeros(2, np.uint8), np.zeros(1, np.uint8))
    stream = TagStream(
        np.array([0.0, 1.0, 1.0, 3.0]),
        np.array([CHANNEL_H, CHANNEL_BEACON, CHANNEL_D, CHANNEL_H], np.uint8),
        np.zeros(4, np.uint8),
    )
    assert len(stream) == 4  # equal times are in order


def _perfect_stream(seed: int = 1, duration: float = 0.5):
    config = SourceConfig(pump_power_mw=0.01, visibility=1.0)
    return pair_stream(config, duration, seed)


def _ground_rng(seed: int) -> np.random.Generator:
    """The ground analyzer's stream for a seed."""
    return module_rng(seed, quantum_receiver.MODULE_NAME + ".ground")


def test_measurement_onboard_replays_idler():
    stream = _perfect_stream()
    channels = measure_polarization(stream, "onboard")
    assert np.array_equal(channels, stream.idler_channel)
    assert set(np.unique(channels).tolist()) == set(QUAD_CHANNELS)


def test_measurement_correlations_perfect_source():
    stream = _perfect_stream()
    onboard = measure_polarization(stream, "onboard")
    ground = measure_polarization(stream, "ground", rng=_ground_rng(3))
    same = channel_basis(onboard) == channel_basis(ground)
    hv = same & (channel_basis(onboard) == 0)
    ad = same & (channel_basis(onboard) == 1)
    assert hv.sum() > 100 and ad.sum() > 100
    # correlated in H/V, anticorrelated in A/D
    assert np.array_equal(channel_bit(onboard[hv]), channel_bit(ground[hv]))
    assert np.array_equal(channel_bit(onboard[ad]), 1 - channel_bit(ground[ad]))
    both = measure_polarization(stream, "ground", rng=_ground_rng(3),
                                ad_anticorrelated=False)
    ad2 = (channel_basis(onboard) == channel_basis(both)) & (channel_basis(onboard) == 1)
    assert np.array_equal(channel_bit(onboard[ad2]), channel_bit(both[ad2]))


def test_measurement_full_misalignment_flips_everything():
    stream = _perfect_stream()
    onboard = measure_polarization(stream, "onboard")
    ground = measure_polarization(stream, "ground", residual_deg=90.0,
                                  rng=_ground_rng(3))
    hv = (channel_basis(onboard) == channel_basis(ground)) & (channel_basis(onboard) == 0)
    assert np.array_equal(channel_bit(onboard[hv]), 1 - channel_bit(ground[hv]))


def test_measurement_accepts_per_event_residual():
    stream = _perfect_stream()
    onboard = measure_polarization(stream, "onboard")
    residual = np.zeros(len(stream))
    residual[: len(stream) // 2] = 90.0
    ground = measure_polarization(stream, "ground", residual_deg=residual,
                                  rng=_ground_rng(3))
    same_hv = (channel_basis(onboard) == channel_basis(ground)) & (channel_basis(onboard) == 0)
    agree = channel_bit(onboard) == channel_bit(ground)
    first = same_hv & (np.arange(len(stream)) < len(stream) // 2)
    second = same_hv & (np.arange(len(stream)) >= len(stream) // 2)
    assert not agree[first].any()
    assert agree[second].all()


@pytest.mark.parametrize("ad_anticorrelated", [True, False])
@pytest.mark.parametrize("residual", ["zero", "scalar", "per_row"])
def test_measurement_of_rows_matches_all_pairs(ad_anticorrelated, residual):
    # the ground side draws per measured photon: measuring rows of a stream
    # is measuring every pair of the sub-stream those rows make up
    stream = pair_stream(SourceConfig(pump_power_mw=0.01), 0.5, 4)
    n = len(stream)
    draw = np.random.default_rng(5)
    rows = np.sort(draw.choice(n, size=n // 7, replace=False))
    at_rows = {"zero": 0.0, "scalar": 20.0,
               "per_row": draw.uniform(-90.0, 90.0, len(rows))}[residual]
    sub = dataclasses.replace(
        stream, emission_times=stream.emission_times[rows],
        idler_channel=stream.idler_channel[rows])

    rows_rng, sub_rng = np.random.default_rng(9), np.random.default_rng(9)
    part = measure_polarization(stream, "ground", residual_deg=at_rows, rows=rows,
                                rng=rows_rng, ad_anticorrelated=ad_anticorrelated)
    whole = measure_polarization(sub, "ground", residual_deg=at_rows, rng=sub_rng,
                                 ad_anticorrelated=ad_anticorrelated)
    assert part.dtype == whole.dtype and np.array_equal(part, whole)
    assert rows_rng.random() == sub_rng.random()
    onboard = measure_polarization(stream, "onboard")
    assert np.array_equal(measure_polarization(stream, "onboard", rows=rows),
                          onboard[rows])
    none = np.empty(0, dtype=np.intp)
    assert measure_polarization(stream, "ground", rows=none,
                                rng=_ground_rng(9)).shape == (0,)
    assert measure_polarization(stream, "onboard", rows=none).shape == (0,)


_SPLIT_STREAM = pair_stream(SourceConfig(pump_power_mw=0.01), 0.05, 6)


@settings(max_examples=60, deadline=None)
@given(
    cuts=st.lists(st.integers(min_value=0, max_value=len(_SPLIT_STREAM)), max_size=6),
    per_row=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ground_measurement_does_not_depend_on_the_split(cuts, per_row, seed):
    # the ground analyzer draws one row of uniforms per photon: photons
    # measured over several calls sharing one Generator, empty calls among
    # them, get the channels of one call, and leave it in the same state
    stream = _SPLIT_STREAM
    draw = np.random.default_rng(seed)
    rows = np.flatnonzero(draw.random(len(stream)) < 0.3)
    residual = draw.uniform(-90.0, 90.0, len(rows)) if per_row else 20.0
    whole_rng, split_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    whole = measure_polarization(stream, "ground", residual_deg=residual, rng=whole_rng,
                                 rows=rows)
    edges = [0, *sorted(min(cut, len(rows)) for cut in cuts), len(rows)]
    parts = [measure_polarization(
        stream, "ground", residual_deg=residual[lo:hi] if per_row else residual,
        rng=split_rng, rows=rows[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert whole_rng.random() == split_rng.random()


@pytest.mark.parametrize("visibility, residual", [(0.5, 0.0), (1.0, 90.0)])
def test_measurement_mismatched_basis_is_fair(visibility, residual):
    # outside the idler's basis the ground bit is a fair coin, flips or not;
    # in it, the bit disagrees with the idler's at the combined flip rate
    config = SourceConfig(pump_power_mw=0.01, visibility=visibility)
    stream = pair_stream(config, 0.5, 8)
    onboard = measure_polarization(stream, "onboard")
    ground = measure_polarization(stream, "ground", residual_deg=residual,
                                  rng=_ground_rng(2))
    g_basis = channel_basis(ground)
    agree = channel_bit(onboard) == (channel_bit(ground) ^ (g_basis == 1))
    mismatched = channel_basis(onboard) != g_basis
    for basis in (0, 1):
        rows = mismatched & (g_basis == basis)
        assert rows.sum() > 5000
        assert abs(agree[rows].mean() - 0.5) < 5.0 * 0.5 / math.sqrt(rows.sum())
    e, m = (1.0 - visibility) / 2.0, math.sin(math.radians(residual)) ** 2
    flip = e * (1.0 - m) + m * (1.0 - e)
    matched = ~mismatched
    sigma = math.sqrt(flip * (1.0 - flip) / matched.sum())
    assert abs((1.0 - agree[matched].mean()) - flip) <= 5.0 * sigma


def test_measurement_rejects_unknown_side():
    with pytest.raises(OutOfRange):
        measure_polarization(_perfect_stream(), "sideways")


def reference_detector(arrival_times_s, channels, model, clock, rng,
                       span_s=None, origins=None):
    """apply_detector with boolean-mask copies and a stable argsort of the
    channels: the form the kernel replaces."""
    times = np.asarray(arrival_times_s, dtype=float)
    channels = np.asarray(channels)
    if origins is None:
        origins = np.full(len(times), ORIGIN_SIGNAL, dtype=np.uint8)
    # efficiency 1 keeps every arrival without a draw
    kept = rng.random(len(times)) < model.efficiency if model.efficiency < 1.0 \
        else np.ones(len(times), dtype=bool)
    times = times[kept]
    chan = channels[kept].astype(np.uint8)
    orig = np.asarray(origins)[kept].astype(np.uint8)
    if model.timing_jitter_rms_s > 0.0 and len(times):
        times = times + rng.normal(0.0, model.timing_jitter_rms_s, size=len(times))
    times = clock.apply(times)
    if span_s is None:
        span_s = (float(arrival_times_s[0]), float(arrival_times_s[-1])) \
            if len(arrival_times_s) else (0.0, 0.0)
    lo, hi = clock.apply(np.asarray(span_s, dtype=float))
    if model.dark_rate_hz > 0.0 and hi > lo:
        extra_t, extra_c = [], []
        for channel in QUAD_CHANNELS:
            n_dark = rng.poisson(model.dark_rate_hz * (hi - lo))
            extra_t.append(rng.uniform(lo, hi, size=n_dark))
            extra_c.append(np.full(n_dark, channel, dtype=np.uint8))
        dark_t = np.concatenate(extra_t)
        times = np.concatenate([times, dark_t])
        chan = np.concatenate([chan, np.concatenate(extra_c)])
        orig = np.concatenate([orig, np.full(len(dark_t), ORIGIN_DARK, dtype=np.uint8)])
    order = np.argsort(times, kind="stable")
    times, chan, orig = times[order], chan[order], orig[order]
    if model.dead_time_s > 0.0 and len(times):
        grouped = np.argsort(chan, kind="stable")
        edges = np.flatnonzero(np.diff(chan[grouped])) + 1
        keep = np.empty(len(times), dtype=bool)
        for rows in np.split(grouped, edges):
            keep[rows] = reference_prune_dead_time(times[rows], model.dead_time_s)
        times, chan, orig = times[keep], chan[keep], orig[keep]
    return times, chan, orig


@pytest.mark.parametrize("case", ["quad", "origins", "wide_channels", "ideal",
                                  "drift_clock", "empty"])
def test_detector_matches_mask_and_argsort_form(case):
    rng = np.random.default_rng(21)
    n = 0 if case == "empty" else 150_000  # more than two draw chunks
    times = np.sort(rng.uniform(0.0, 0.2, n))
    channels = rng.choice(QUAD_CHANNELS, size=n).astype(np.uint8)
    origins = None
    model = DetectorModel(efficiency=0.6, dark_rate_hz=5e4, dead_time_s=2e-6,
                          timing_jitter_rms_s=3e-8)
    clock = IDENTITY
    if case == "origins":
        origins = rng.integers(0, 3, size=n).astype(np.uint8)
    elif case == "wide_channels":
        channels = rng.choice([0, 3, 200, CHANNEL_BEACON], size=n).astype(np.uint8)
    elif case == "ideal":
        model = IDEAL
    elif case == "drift_clock":
        clock = ClockModel(offset_s=1.5e-3, drift=3e-6)
    want_rng, got_rng = np.random.default_rng(4), np.random.default_rng(4)
    want = reference_detector(times, channels, model, clock, want_rng,
                              span_s=(0.0, 0.2), origins=origins)
    got = detect(times, channels, model, clock, got_rng,
                 span_s=(0.0, 0.2), origins=origins)
    for column, expected in zip((got.times_s, got.channels, got.origins), want):
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()
    assert got_rng.random() == want_rng.random()


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
CLOCKS = st.sampled_from([IDENTITY, ClockModel(offset_s=1.5e-3, drift=3e-6),
                          ClockModel(offset_s=-2e-3, drift=-5e-5)])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=120),
    ties=st.integers(min_value=0, max_value=30),
    shuffled=st.booleans(),
    codes=st.sampled_from([QUAD_CHANNELS, (CHANNEL_H, CHANNEL_D, CHANNEL_BEACON)]),
    with_origins=st.booleans(),
    efficiency=st.sampled_from([0.7, 1.0]),
    dark_rate=st.sampled_from([0.0, 2e4]),
    dead_time=st.sampled_from([0.0, 1e-6, 5e-5]),
    jitter=st.sampled_from([0.0, 3e-7]),
    clock=CLOCKS,
    chunk=st.sampled_from([1, 5, 64]),
    seed=SEEDS,
)
def test_detector_matches_reference_properties(n, ties, shuffled, codes, with_origins,
                                               efficiency, dark_rate, dead_time,
                                               jitter, clock, chunk, seed):
    # small row chunks run the chunked gathers and sort over many blocks;
    # n = 0 with dark counts is a dark-only stream, without them an empty one
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, 1e-3, n)
    if n:
        times = np.concatenate([times, rng.choice(times, ties)])  # identical times
    times = rng.permutation(times) if shuffled else np.sort(times)
    channels = rng.choice(codes, size=len(times)).astype(np.uint8)
    origins = rng.integers(0, 3, size=len(times)).astype(np.uint8) \
        if with_origins else None
    model = DetectorModel(efficiency=efficiency, dark_rate_hz=dark_rate,
                          dead_time_s=dead_time, timing_jitter_rms_s=jitter)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_detector(times, channels, model, clock, want_rng,
                              span_s=(0.0, 1e-3), origins=origins)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantum_receiver, "_ROW_CHUNK", chunk)
        patch.setattr(quantum_receiver, "_SORT_BLOCK", chunk)
        got = detect(times, channels, model, clock, got_rng,
                     span_s=(0.0, 1e-3), origins=origins)
    for column, expected in zip((got.times_s, got.channels, got.origins), want):
        assert column.tobytes() == expected.tobytes()
    assert got_rng.random() == want_rng.random()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    spread=st.sampled_from([0.0, 1e-3, 0.05, 10.0]),
    grid=st.sampled_from([None, 0.01]),
    chunk=st.sampled_from([1, 3, 16, 1 << 16]),
    seed=SEEDS,
)
def test_sort_in_place_is_stable_argsort(n, spread, grid, chunk, seed):
    # sorted times plus noise of a few gaps (spread 10 shuffles them), on a
    # coarse grid for exact ties
    rng = np.random.default_rng(seed)
    times = np.arange(n) / max(n, 1) + spread * rng.standard_normal(n)
    if grid:
        times = np.round(times / grid) * grid
    rows = np.arange(n)
    order = np.argsort(times, kind="stable")
    want_times, want_rows = times[order], rows[order]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantum_receiver, "_SORT_BLOCK", chunk)
        _sort_in_place(times, rows)
    assert times.tobytes() == want_times.tobytes()
    assert np.array_equal(rows, want_rows)


def test_detector_peak_memory_per_arrival():
    # the detector's own columns stay near one copy of the kept rows plus
    # the output; the full concatenate-and-argsort form peaked at 14 B
    n = 2_000_000
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(0.0, 4.0, n))
    channels = rng.choice(QUAD_CHANNELS, size=n).astype(np.uint8)
    origins = rng.integers(0, 3, size=n).astype(np.uint8)
    model = DetectorModel(efficiency=0.5, dark_rate_hz=100.0, dead_time_s=1e-6)
    tags, _, peak = traced_memory(detect, times, channels, model, IDENTITY, 1,
                                  span_s=(0.0, 4.0), origins=origins)
    assert 0.4 * n < len(tags) < 0.5 * n
    assert peak / n <= 10.0


def _three_streams(seed):
    return [np.random.default_rng([seed, k]) for k in range(3)]


def blocked_detector(times, channels, model, clock, seed, span_s, cuts,
                     origins=None, ahead=False):
    """apply_detector over the arrivals cut at the given rows, one call a
    block with one carry, and the tags of all blocks joined. With ahead,
    each block passes the next arrival as next_s (inf after the last)."""
    rngs, carry = _three_streams(seed), DetectorCarry()
    edges = [0, *cuts, len(times)]
    parts, untils = [], []
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        next_s = -np.inf if k < len(edges) - 2 else np.inf
        if ahead and k < len(edges) - 2:
            next_s = times[hi] if hi < len(times) else np.inf
        parts.append(apply_detector(
            times[lo:hi], channels[lo:hi], model, clock, rng=rngs, span_s=span_s,
            origins=None if origins is None else origins[lo:hi],
            carry=carry, next_s=next_s))
        untils.append(carry.until)
    # each block's until: its tags come before it, no later block's tag does
    assert untils[-1] == np.inf
    for k, until in enumerate(untils):
        assert all(np.all(p.times_s < until) for p in parts[:k + 1])
        assert all(np.all(p.times_s >= until) for p in parts[k + 1:])
    joined = [np.concatenate(column) for column in zip(
        *((p.times_s, p.channels, p.origins) for p in parts))]
    return joined, rngs, parts


def assert_blocks_match_whole(times, channels, model, clock, seed, span_s, cuts,
                              origins=None, ahead=False):
    whole_rngs = _three_streams(seed)
    whole = apply_detector(times, channels, model, clock, rng=whole_rngs,
                           span_s=span_s, carry=DetectorCarry(), origins=origins)
    joined, rngs, parts = blocked_detector(times, channels, model, clock, seed,
                                           span_s, cuts, origins, ahead)
    for column, expected in zip(joined, (whole.times_s, whole.channels, whole.origins)):
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()
    for got_rng, want_rng in zip(rngs, whole_rngs):
        assert got_rng.random() == want_rng.random()
    return parts


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=120),
    n_cuts=st.integers(min_value=0, max_value=6),
    with_origins=st.booleans(),
    efficiency=st.sampled_from([0.7, 1.0]),
    dark_rate=st.sampled_from([0.0, 2e4]),
    dead_time=st.sampled_from([0.0, 1e-6, 5e-5]),
    jitter=st.sampled_from([0.0, 3e-8, 3e-5]),
    grid=st.sampled_from([None, 1e-5]),
    clock=CLOCKS,
    seed=SEEDS,
    ahead=st.booleans(),
)
def test_detector_blocks_match_one_call(n, n_cuts, with_origins, efficiency,
                                        dark_rate, dead_time, jitter, grid, clock,
                                        seed, ahead):
    # 3e-5 s of jitter spans several blocks, so rows wait across more
    # than one edge; repeated cuts make empty blocks; a coarse grid makes
    # ties in time across block edges; a block that knows the next
    # arrival (next_s) gives its tags up to it, empty or not
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 1e-3, n))
    if grid:
        times = np.round(times / grid) * grid
    channels = rng.choice(QUAD_CHANNELS, size=n).astype(np.uint8)
    origins = rng.integers(0, 3, size=n).astype(np.uint8) if with_origins else None
    cuts = np.sort(rng.integers(0, n + 1, n_cuts)).tolist()
    model = DetectorModel(efficiency=efficiency, dark_rate_hz=dark_rate,
                          dead_time_s=dead_time, timing_jitter_rms_s=jitter)
    assert_blocks_match_whole(times, channels, model, clock, seed, (0.0, 1e-3),
                              cuts, origins, ahead)


def test_detector_dead_time_straddles_block_edge():
    # a cluster on H runs across the edge: the second block's first
    # arrival falls in the dead time of the first block's last kept tag
    model = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, dead_time_s=1e-6,
                          timing_jitter_rms_s=0.0)
    times = np.array([1e-6, 1.4e-6, 1.8e-6, 2.2e-6, 2.6e-6, 3.0e-6])
    channels = np.full(6, CHANNEL_H, np.uint8)
    parts = assert_blocks_match_whole(times, channels, model, IDENTITY, 0,
                                      (0.0, 4e-6), [3])
    assert np.concatenate([p.times_s for p in parts]).tolist() == [1e-6, 2.2e-6]


def test_detector_jitter_inverts_across_block_edge():
    # the jitter is far wider than a block's span: rows of later blocks
    # land before rows of earlier ones, and the tags come out sorted
    model = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, dead_time_s=0.0,
                          timing_jitter_rms_s=1e-3)
    times = np.arange(40) * 1e-6
    channels = np.full(40, CHANNEL_V, np.uint8)
    cuts = list(range(4, 40, 4))
    parts = assert_blocks_match_whole(times, channels, model, IDENTITY, 3,
                                      (0.0, 40e-6), cuts)
    # nothing is final before the last block: any later arrival may precede it
    assert [len(p) for p in parts] == [0] * len(cuts) + [40]


def test_detector_dark_count_at_block_edge():
    # a dark count exactly at the edge goes out with the block that
    # finalizes its time, after an arrival at the same time
    model = DetectorModel(efficiency=1.0, dark_rate_hz=1e6, dead_time_s=0.0,
                          timing_jitter_rms_s=0.0)
    whole = apply_detector(np.empty(0), np.empty(0, np.uint8), model, IDENTITY,
                           rng=_three_streams(5), span_s=(0.0, 1e-4),
                           carry=DetectorCarry())
    edge = whole.times_s[len(whole) // 2]
    times = np.array([0.5 * edge, edge, edge, 1.5 * edge])
    channels = np.array([CHANNEL_H, CHANNEL_V, CHANNEL_A, CHANNEL_D], np.uint8)
    for cut in (1, 2, 3):
        parts = assert_blocks_match_whole(times, channels, model, IDENTITY, 5,
                                          (0.0, 1e-4), [cut])
        tags = TagStream(*(np.concatenate(column) for column in zip(
            *((p.times_s, p.channels, p.origins) for p in parts))))
        at_edge = tags.origins[tags.times_s == edge].tolist()
        assert at_edge == [ORIGIN_SIGNAL, ORIGIN_SIGNAL, ORIGIN_DARK]


def test_detector_empty_blocks_and_one_short_window():
    model = DetectorModel(efficiency=0.8, dark_rate_hz=1e5, dead_time_s=1e-6,
                          timing_jitter_rms_s=1e-7)
    rng = np.random.default_rng(8)
    times = np.sort(rng.uniform(0.0, 1e-3, 500))
    channels = rng.choice(QUAD_CHANNELS, size=500).astype(np.uint8)
    # empty blocks first, in the middle and last
    assert_blocks_match_whole(times, channels, model, IDENTITY, 9, (0.0, 1e-3),
                              [0, 0, 250, 250, 500])
    # a window shorter than one block: its only call is the last
    assert_blocks_match_whole(times, channels, model, IDENTITY, 9, (0.0, 1e-3), [])


def test_detector_blocks_must_come_in_time_order():
    carry = DetectorCarry()
    rngs = _three_streams(0)
    apply_detector(np.array([1.0, 2.0]), np.zeros(2, np.uint8), IDEAL, IDENTITY,
                   rng=rngs, span_s=(0.0, 3.0), carry=carry, next_s=-np.inf)
    with pytest.raises(ValueError):
        apply_detector(np.array([1.5]), np.zeros(1, np.uint8), IDEAL, IDENTITY,
                       rng=rngs, span_s=(0.0, 3.0), carry=carry)


def test_detector_rejects_columns_of_other_lengths():
    times = np.arange(5) * 1e-3
    with pytest.raises(ValueError):
        detect(times, np.zeros(4, np.uint8), IDEAL, IDENTITY, 0)
    with pytest.raises(ValueError):
        detect(times, np.zeros(5, np.uint8), IDEAL, IDENTITY, 0,
               origins=np.zeros(6, np.uint8))


def test_detector_identity_chain():
    times = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 200))
    channels = np.full(200, CHANNEL_H, np.uint8)
    tags = detect(times, channels, IDEAL, IDENTITY, 0)
    assert np.array_equal(tags.times_s, times)
    assert np.array_equal(tags.channels, channels)
    assert np.all(tags.origins == ORIGIN_SIGNAL)


def test_detector_efficiency_thinning():
    n = 20000
    times = np.sort(np.random.default_rng(1).uniform(0.0, 1.0, n))
    model = DetectorModel(efficiency=0.3, dark_rate_hz=0.0, dead_time_s=0.0,
                          timing_jitter_rms_s=0.0)
    tags = detect(times, np.full(n, CHANNEL_V, np.uint8), model, IDENTITY, 2)
    assert abs(len(tags) - 0.3 * n) < 5.0 * np.sqrt(n * 0.3 * 0.7)


def test_detector_dark_counts_quad_channels_only():
    model = DetectorModel(efficiency=1.0, dark_rate_hz=2000.0, dead_time_s=0.0,
                          timing_jitter_rms_s=0.0)
    tags = detect(np.empty(0), np.empty(0, np.uint8), model, IDENTITY, 3,
                  span_s=(0.0, 1.0))
    assert np.all(tags.origins == ORIGIN_DARK)
    assert set(np.unique(tags.channels)) <= set(QUAD_CHANNELS)
    for channel in QUAD_CHANNELS:
        count = int((tags.channels == channel).sum())
        assert abs(count - 2000) < 5.0 * np.sqrt(2000)
    assert tags.times_s.min() >= 0.0
    assert tags.times_s.max() <= 1.0


def test_detector_dead_time_prunes_per_channel():
    rng = np.random.default_rng(4)
    times = np.sort(rng.uniform(0.0, 0.01, 5000))  # 500 kHz on two channels
    channels = rng.choice([CHANNEL_H, CHANNEL_V], size=5000).astype(np.uint8)
    model = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, dead_time_s=1e-6,
                          timing_jitter_rms_s=0.0)
    tags = detect(times, channels, model, IDENTITY, 5)
    for channel in (CHANNEL_H, CHANNEL_V):
        per = tags.times_s[tags.channels == channel]
        assert np.all(np.diff(per) >= 1e-6)
        assert len(per) <= 0.01 / 1e-6 + 1


@pytest.mark.parametrize("rate_tau", [0.01, 0.1, 0.3, 1.0])
def test_detector_dead_time_rate_pull(rate_tau):
    # non-paralyzable dead time keeps r/(1+r tau) of a Poisson stream;
    # the kept count of the renewal process has variance rT/(1+r tau)^3
    dead_time = 1e-6
    rate = rate_tau / dead_time
    duration = 60000.0 / rate
    rng = np.random.default_rng(13)
    times = np.sort(rng.uniform(0.0, duration, rng.poisson(rate * duration)))
    model = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, dead_time_s=dead_time,
                          timing_jitter_rms_s=0.0)
    tags = detect(times, np.full(len(times), CHANNEL_H, np.uint8), model, IDENTITY, 0)
    expected = rate * duration / (1.0 + rate_tau)
    sigma = math.sqrt(rate * duration / (1.0 + rate_tau) ** 3)
    assert abs(len(tags) - expected) / sigma < 5.0


def test_detector_dead_time_per_channel_matches_loop():
    rng = np.random.default_rng(14)
    times = np.sort(rng.uniform(0.0, 2e-3, 6000))  # 750 kHz per channel
    channels = rng.choice(QUAD_CHANNELS, size=6000).astype(np.uint8)
    origins = rng.integers(0, 3, size=6000).astype(np.uint8)
    model = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, dead_time_s=1e-6,
                          timing_jitter_rms_s=0.0)
    tags = detect(times, channels, model, IDENTITY, 0, origins=origins)
    keep = np.ones(len(times), dtype=bool)
    for channel in QUAD_CHANNELS:
        mask = channels == channel
        keep[mask] = reference_prune_dead_time(times[mask], 1e-6)
    assert np.array_equal(tags.times_s, times[keep])
    assert np.array_equal(tags.channels, channels[keep])
    assert np.array_equal(tags.origins, origins[keep])


def test_detector_dead_time_visits_present_channels_only(monkeypatch):
    # a beacon code next to quad codes: three channels to prune, not the
    # 256 codes from the lowest to the highest
    rng = np.random.default_rng(16)
    codes = (CHANNEL_H, CHANNEL_D, CHANNEL_BEACON)
    times = np.sort(rng.uniform(0.0, 2e-3, 4500))
    channels = rng.choice(codes, size=4500).astype(np.uint8)
    model = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, dead_time_s=1e-6,
                          timing_jitter_rms_s=0.0)
    pruned = []

    def counting_prune(channel_times, dead_time_s):
        pruned.append(len(channel_times))
        return _prune_dead_time(channel_times, dead_time_s)

    monkeypatch.setattr(quantum_receiver, "_prune_dead_time", counting_prune)
    tags = detect(times, channels, model, IDENTITY, 0)
    keep = np.ones(len(times), dtype=bool)
    for channel in codes:
        mask = channels == channel
        keep[mask] = reference_prune_dead_time(times[mask], 1e-6)
    assert sorted(pruned) == sorted(int(np.count_nonzero(channels == c)) for c in codes)
    assert np.array_equal(tags.times_s, times[keep])
    assert np.array_equal(tags.channels, channels[keep])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=150),
    rate_tau=st.floats(min_value=1e-3, max_value=3.0),
    offset=st.sampled_from([0.0, 1.0, 449.9]),
    repeats=st.integers(min_value=0, max_value=8),
    edges=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dead_time_kernel_matches_loop(n, rate_tau, offset, repeats, edges, seed):
    rng = np.random.default_rng(seed)
    dead_time = 1e-6
    times = offset + (max(n, 1) * dead_time / rate_tau) * rng.random(n)
    if n:
        times = np.concatenate([times, rng.choice(times, repeats)])  # identical times
    # gaps of exactly t0 + tau, and one ulp either way
    t0 = offset + rng.random(edges) * 1e-3
    times = np.sort(np.concatenate([
        times, t0, _ulp_shift(t0 + dead_time, rng.integers(-1, 2, edges))]))
    assert np.array_equal(_prune_dead_time(times, dead_time),
                          reference_prune_dead_time(times, dead_time))


def test_dead_time_kernel_sum_boundary():
    # for 291 of these 300 t0, the rounded t0 + tau fails the loop's own
    # test (t0 + tau) - t0 >= tau, so a searchsorted on t0 + tau alone
    # would keep the wrong event
    rng = np.random.default_rng(15)
    dead_time = 1e-6
    for t0 in rng.uniform(0.0, 450.0, 300):
        for gap in (t0 + dead_time, np.nextafter(t0 + dead_time, math.inf),
                    np.nextafter(t0 + dead_time, -math.inf)):
            times = np.array([t0, t0 + 0.4 * dead_time, gap, gap + 0.5 * dead_time])
            assert np.array_equal(_prune_dead_time(times, dead_time),
                                  reference_prune_dead_time(times, dead_time))


def test_detector_jitter_statistics():
    n = 2000
    times = np.arange(n) * 1e-3
    model = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, dead_time_s=0.0,
                          timing_jitter_rms_s=1e-9)
    tags = detect(times, np.full(n, CHANNEL_A, np.uint8), model, IDENTITY, 6)
    deltas = tags.times_s - times
    assert np.std(deltas) == pytest.approx(1e-9, rel=0.2)
    assert abs(np.mean(deltas)) < 5.0 * 1e-9 / np.sqrt(n)


def test_detector_applies_clock():
    clock = ClockModel(offset_s=2e-3, drift=5e-6)
    times = np.array([0.0, 1.0, 2.0])
    tags = detect(times, np.full(3, CHANNEL_H, np.uint8), IDEAL, clock, 0)
    assert np.allclose(tags.times_s, clock.apply(times), atol=1e-15)


BEACON_HZ = SourceConfig().beacon_frequency_hz


def _beacon_tags(clock: ClockModel, duration: float = 10.0,
                 jitter: float = 1e-9, seed: int = 0) -> tuple[np.ndarray, int]:
    """Jittered tags of every pulse of the default beacon train, and the pulse count."""
    schedule = beacon_schedule(SourceConfig(), duration)
    rng = np.random.default_rng(seed)
    return (np.sort(clock.apply(schedule) + rng.normal(0.0, jitter, len(schedule))),
            len(schedule))


def test_beacon_sync_recovers_offset_and_drift():
    truth = ClockModel(offset_s=1.2345e-3, drift=1e-6)
    tags, n_pulses = _beacon_tags(truth)
    result = beacon_clock_sync(tags, BEACON_HZ, n_pulses, SyncConfig())
    assert abs(result.clock.offset_s - truth.offset_s) < 1e-10
    assert abs(result.clock.drift - truth.drift) < 1e-9
    assert result.n_matched > 0.9 * n_pulses
    assert result.residual_rms_s < 5e-9


def test_beacon_sync_identity_clock():
    tags, n_pulses = _beacon_tags(ClockModel(), jitter=1e-10)
    result = beacon_clock_sync(tags, BEACON_HZ, n_pulses, SyncConfig())
    assert abs(result.clock.offset_s) < 1e-10
    assert abs(result.clock.drift) < 1e-9


def test_beacon_sync_negative_offset():
    truth = ClockModel(offset_s=-4.2e-3, drift=-2e-6)
    tags, n_pulses = _beacon_tags(truth, seed=2)
    result = beacon_clock_sync(tags, BEACON_HZ, n_pulses, SyncConfig())
    assert abs(result.clock.offset_s - truth.offset_s) < 1e-10
    assert abs(result.clock.drift - truth.drift) < 1e-9


def test_beacon_sync_round_trip_invariant():
    rng = np.random.default_rng(7)
    for _ in range(5):
        truth = ClockModel(offset_s=float(rng.uniform(-8e-3, 8e-3)),
                           drift=float(rng.uniform(-5e-5, 5e-5)))
        tags, n_pulses = _beacon_tags(truth, duration=5.0, seed=int(rng.integers(1e6)))
        recovered = beacon_clock_sync(tags, BEACON_HZ, n_pulses, SyncConfig()).clock
        probe = np.array([0.0, 2.5, 5.0])
        assert np.allclose(recovered.apply(probe), truth.apply(probe), atol=1e-9)


def test_beacon_sync_failure_modes():
    n_pulses = len(beacon_schedule(SourceConfig(), 1.0))
    with pytest.raises(SyncFailed):
        beacon_clock_sync(np.empty(0), BEACON_HZ, n_pulses, SyncConfig())
    with pytest.raises(SyncFailed):
        beacon_clock_sync(np.array([0.0]), BEACON_HZ, 1, SyncConfig())
    # offset beyond the admissible window
    tags, _ = _beacon_tags(ClockModel(offset_s=20e-3), duration=1.0)
    with pytest.raises(SyncFailed):
        beacon_clock_sync(tags, BEACON_HZ, n_pulses, SyncConfig(max_offset_s=10e-3))
    # incoherent tags carry no pulse comb
    noise = np.sort(np.random.default_rng(8).uniform(0.0, 1.0, 10000))
    with pytest.raises(SyncFailed):
        beacon_clock_sync(noise, BEACON_HZ, n_pulses, SyncConfig())
    # a clean comb that matches too few pulses for the configured floor
    tags, _ = _beacon_tags(ClockModel(), duration=1.0)
    with pytest.raises(SyncFailed):
        beacon_clock_sync(tags[:50], BEACON_HZ, n_pulses, SyncConfig(min_matched=100))


@settings(max_examples=80, deadline=None)
@given(
    frequency=st.sampled_from([1e3, 10e3, 50e3]),
    duration=st.floats(min_value=0.02, max_value=1.5),
    offset_share=st.floats(min_value=-1.0, max_value=1.0),
    drift=st.floats(min_value=-5e-5, max_value=5e-5),
    jitter=st.floats(min_value=0.0, max_value=2e-9),
    gaps=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.3)), max_size=3),
    noise_share=st.sampled_from([0.0, 0.01, 0.3, 3.0]),
    min_matched=st.sampled_from([2, 100, 5000]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# no jitter: a pulse sits exactly on the fold window's edge
@example(frequency=10e3, duration=1 / 3, offset_share=0.0, drift=0.0, jitter=0.0,
         gaps=[(0.03125, 0.25)], noise_share=0.3, min_matched=2, seed=0)
def test_beacon_sync_matches_whole_schedule_fit(frequency, duration, offset_share, drift,
                                                jitter, gaps, noise_share, min_matched,
                                                seed):
    # the blockwise fit over the arithmetic pulse train fails where the
    # np.polyfit fit over an explicit schedule fails, matches as many
    # tags, and differs from it only in the last bits
    config = SyncConfig(min_matched=min_matched)
    schedule = beacon_schedule(SourceConfig(beacon_frequency_hz=frequency), duration)
    rng = np.random.default_rng(seed)
    truth = ClockModel(offset_s=offset_share * config.max_offset_s, drift=drift)
    emitted = np.ones(len(schedule), dtype=bool)
    for start, width in gaps:
        emitted &= ~((schedule >= start * duration) & (schedule < (start + width) * duration))
    tags = truth.apply(schedule[emitted]) + rng.normal(0.0, 1.0, int(emitted.sum())) * jitter
    noise = rng.uniform(tags.min(initial=0.0), tags.max(initial=duration),
                        int(noise_share * len(tags)))
    tags = np.sort(np.concatenate([tags, noise]))
    try:
        want = reference_beacon_clock_sync(tags, schedule, config)
    except SyncFailed:
        with pytest.raises(SyncFailed):
            beacon_clock_sync(tags, frequency, len(schedule), config)
        return
    got = beacon_clock_sync(tags, frequency, len(schedule), config)
    assert got.n_matched == want.n_matched
    assert abs(got.clock.offset_s - want.clock.offset_s) <= 1e-15
    assert abs(got.clock.drift - want.clock.drift) <= 1e-13
    # the rms comes from the running sums, whose cancellation leaves about
    # sqrt(eps) of the residuals' spread (at most 0.4 of a 1 ms period)
    assert got.residual_rms_s == pytest.approx(want.residual_rms_s, rel=1e-6, abs=1e-11)


def test_beacon_sync_memory_is_bounded_per_pulse():
    # besides the tags the fit holds one residual array per round and one
    # block's temporaries: 2M pulses at 50 kHz peak at 9.4 B a pulse above
    # the tags, against 98.6 B for np.polyfit over boolean-masked copies
    # of an explicit schedule (sync_reference)
    n_pulses = 2_000_001
    truth = ClockModel(offset_s=1.2e-3, drift=3e-6)
    tags = truth.apply(np.arange(n_pulses) / 50e3)
    result, _, peak = traced_memory(beacon_clock_sync, tags, 50e3, n_pulses, SyncConfig())
    assert result.n_matched == n_pulses
    assert peak / n_pulses <= 12.0


def test_coincidences_identical_streams():
    t = np.sort(np.random.default_rng(9).uniform(0.0, 1.0, 500))
    result = find_coincidences(t, t, 1e-9)
    assert len(result) == 500
    assert np.array_equal(result.onboard_indices, np.arange(500))
    assert np.array_equal(result.ground_indices, np.arange(500))


def test_coincidences_none_outside_window():
    a = np.array([0.0, 1.0, 2.0])
    b = a + 1e-3
    assert len(find_coincidences(a, b, 1e-6)) == 0
    assert len(find_coincidences(a, b, 3e-3)) == 3


def test_coincidences_each_tag_used_once():
    a = np.array([0.0])
    b = np.array([-1e-10, 1e-10])  # two candidates inside the window
    result = find_coincidences(a, b, 1e-9)
    assert len(result) == 1


def test_coincidences_symmetric():
    rng = np.random.default_rng(10)
    a = np.sort(rng.uniform(0.0, 1.0, 300))
    b = np.sort(rng.uniform(0.0, 1.0, 400))
    window = 1e-4
    fwd = find_coincidences(a, b, window)
    rev = find_coincidences(b, a, window)
    assert len(fwd) == len(rev)
    assert np.array_equal(fwd.onboard_indices, rev.ground_indices)
    assert np.array_equal(fwd.ground_indices, rev.onboard_indices)


def test_coincidences_accidental_rate():
    rng = np.random.default_rng(11)
    duration = 10.0
    rate = 1e4
    a = np.sort(rng.uniform(0.0, duration, int(rate * duration)))
    b = np.sort(rng.uniform(0.0, duration, int(rate * duration)))
    window = 1e-6
    result = find_coincidences(a, b, window)
    expected = rate * rate * window * duration
    assert result.expected_accidentals == pytest.approx(expected, rel=0.02)
    # uncorrelated streams: matched pairs are purely accidental
    assert len(result) == pytest.approx(expected, abs=5.0 * np.sqrt(expected))
    with pytest.raises(OutOfRange):
        find_coincidences(a, b, -1e-9)


@settings(max_examples=200, deadline=None)
@given(
    n_a=st.integers(min_value=0, max_value=120),
    n_b=st.integers(min_value=0, max_value=120),
    rate_window=st.floats(min_value=1e-3, max_value=3.0),
    offset=st.sampled_from([0.0, 1.0, 449.9]),
    repeats=st.integers(min_value=0, max_value=4),
    edges=st.integers(min_value=0, max_value=6),
    clusters=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_coincidence_kernel_matches_sweep(n_a, n_b, rate_window, offset, repeats,
                                          edges, clusters, seed):
    a, b = candidate_streams(np.random.default_rng(seed), n_a, n_b, rate_window,
                             offset, repeats, edges, clusters)
    assert_matches_sweep(a, b, 1e-9)


def candidate_streams(rng, n_a, n_b, rate_window, offset, repeats, edges, clusters):
    """Sorted onboard and ground times that test the matching at a 1 ns
    window: random tags at rate_window tags per window, repeated times,
    differences of exactly +/- half a window and one ulp either way, and
    clusters with several candidates per tag."""
    window = 1e-9
    half = 0.5 * window
    duration = max(n_a, n_b, 1) * window / rate_window
    a = offset + duration * rng.random(n_a)
    b = offset + duration * rng.random(n_b)
    if n_a and n_b:  # identical times, within and across the streams
        twins = rng.choice(a, repeats)
        a = np.concatenate([a, twins])
        b = np.concatenate([b, twins, rng.choice(b, repeats)])
    # ground tags at exactly +/- window/2 from an onboard tag, and one ulp either way
    anchors = offset + duration * rng.random(edges)
    signs = rng.choice([-1.0, 1.0], edges)
    a = np.concatenate([a, anchors])
    b = np.concatenate([b, _ulp_shift(anchors + signs * half, rng.integers(-1, 2, edges))])
    # conflict clusters: several candidates per tag, on either side
    for centre in offset + duration * rng.random(clusters):
        a = np.concatenate([a, centre + half * rng.uniform(-1.0, 1.0, rng.integers(1, 5))])
        b = np.concatenate([b, centre + half * rng.uniform(-1.0, 1.0, rng.integers(1, 5))])
    return np.sort(a), np.sort(b)


def stream_blocks(times, channels, cuts):
    """match_blocks' blocks of a sorted stream cut at the given rows, each
    with the tightest until the stream allows: the next block's first
    time, or the block's own last time for the last block."""
    edges = [0, *cuts, len(times)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = times[lo:hi]
        until = times[hi] if hi < len(times) else block[-1] if len(block) else -np.inf
        yield block, channels[lo:hi], until


def block_cuts(rng, n, mode):
    """Rows to cut a stream of n tags at: after every tag, at a few random
    rows (repeated rows make empty blocks), or nowhere."""
    if mode == "ones":
        return list(range(1, n))
    if mode == "random":
        return np.sort(rng.integers(0, n + 1, rng.integers(1, 8))).tolist()
    return []


def assert_matches_one_call(a, b, a_channels, b_channels, onboard_blocks,
                            ground_blocks, window_s):
    """match_blocks against one find_coincidences call on the whole streams."""
    want = find_coincidences(a, b, window_s)
    got, onboard_channels, ground_channels = match_blocks(
        onboard_blocks, ground_blocks, window_s)
    for column in ("onboard_indices", "ground_indices"):
        assert getattr(got, column).dtype == np.int64
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
    assert got.expected_accidentals == want.expected_accidentals
    assert onboard_channels.tobytes() == a_channels[want.onboard_indices].tobytes()
    assert ground_channels.tobytes() == b_channels[want.ground_indices].tobytes()
    return got


@settings(max_examples=300, deadline=None)
@given(
    n_a=st.integers(min_value=0, max_value=120),
    n_b=st.integers(min_value=0, max_value=120),
    rate_window=st.floats(min_value=1e-3, max_value=3.0),
    offset=st.sampled_from([0.0, 449.9]),
    repeats=st.integers(min_value=0, max_value=4),
    edges=st.integers(min_value=0, max_value=6),
    clusters=st.integers(min_value=0, max_value=4),
    onboard_cuts=st.sampled_from(["ones", "random", "whole"]),
    ground_cuts=st.sampled_from(["ones", "random", "whole"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_match_blocks_equal_one_call(n_a, n_b, rate_window, offset, repeats,
                                     edges, clusters, onboard_cuts, ground_cuts,
                                     seed):
    # each stream in blocks of one tag, at random rows or whole: the pairs,
    # their order, both channel gathers and the accidental estimate are
    # those of one call; repeated times put ties on block edges
    rng = np.random.default_rng(seed)
    a, b = candidate_streams(rng, n_a, n_b, rate_window, offset, repeats, edges, clusters)
    a_channels = rng.integers(0, 4, len(a), dtype=np.uint8)
    b_channels = rng.integers(0, 4, len(b), dtype=np.uint8)
    assert_matches_one_call(
        a, b, a_channels, b_channels,
        stream_blocks(a, a_channels, block_cuts(rng, len(a), onboard_cuts)),
        stream_blocks(b, b_channels, block_cuts(rng, len(b), ground_cuts)), 1e-9)


def test_match_blocks_candidate_across_an_onboard_block_edge():
    # the first onboard block ends before a ground tag that is a candidate
    # of its last tag and of the next block's first: it waits for the next
    # block, and the earlier onboard tag takes it, as in one call
    window = 1e-9
    edge = 2.0
    a = np.array([0.5, edge - 0.3 * window, edge + 0.2 * window, 3.0])
    b = np.array([1.0, edge + 0.1 * window, 3.0 + 0.1 * window])
    a_channels = np.arange(4, dtype=np.uint8)
    b_channels = np.array([3, 2, 1], np.uint8)
    onboard = [(a[:2], a_channels[:2], edge), (a[2:], a_channels[2:], np.inf)]
    ground = [(b, b_channels, b[-1])]
    got = assert_matches_one_call(a, b, a_channels, b_channels, onboard, ground, window)
    assert got.onboard_indices.tolist() == [1, 3]
    assert got.ground_indices.tolist() == [1, 2]


def test_match_blocks_sort_a_swap_across_a_block_edge():
    # a correction that rounds a block's first tag an ulp below the last
    # tag of the block before: the result is that of the whole stream
    # stable-sorted, so the onboard tag pairs with the later block's tag
    window = 1e-9
    edge = 2.0
    channels = np.array([0, 1, 2, 3], np.uint8)
    corrected = np.array([1.0, edge, np.nextafter(edge, 0.0), 3.0])
    whole_times, whole_channels = stable_sorted(corrected, channels)
    assert whole_channels.tolist() == [0, 2, 1, 3]
    a = np.array([0.5, edge - 0.25 * window, 2.5])
    a_channels = np.array([3, 2, 1], np.uint8)
    hold = 1e-9
    blocks = [(corrected[:2], channels[:2], corrected[1] - hold),
              (corrected[2:], channels[2:], corrected[3] - hold)]
    got = assert_matches_one_call(a, whole_times, a_channels, whole_channels,
                                  stream_blocks(a, a_channels, [1, 2]), blocks, window)
    assert got.ground_indices.tolist() == [1]
    _, _, ground_channels = match_blocks(stream_blocks(a, a_channels, [1, 2]),
                                         blocks, window)
    assert ground_channels.tolist() == [2]


@pytest.mark.parametrize("n_a,n_b", [(0, 0), (0, 5), (5, 0)])
def test_coincidences_empty_streams(n_a, n_b):
    a = np.linspace(0.0, 1.0, n_a)
    b = np.linspace(0.0, 1.0, n_b)
    result = find_coincidences(a, b, 1e-3)
    assert len(result) == 0
    assert result.ground_indices.dtype == np.int64
    assert result.expected_accidentals == 0.0
    assert_matches_sweep(a, b, 1e-3)


def test_coincidence_kernel_matches_sweep_beyond_one_chunk():
    rng = np.random.default_rng(16)
    n = 2 * _SEARCH_CHUNK + 1234
    window = 1e-9
    duration = n * window / 0.5  # r x window = 0.5: many conflict clusters
    a = np.sort(duration * rng.random(n))
    signal = a[rng.random(n) < 0.6]
    b = np.sort(np.concatenate([signal + rng.normal(0.0, 0.2 * window, len(signal)),
                                duration * rng.random(n // 3)]))
    assert min(len(a), len(b)) > _SEARCH_CHUNK
    assert_matches_sweep(a, b, window)


def test_tags_csv_round_trip(tmp_path):
    times = np.array([0.0, 1.234567890123456, 449.999999999999])
    channels = np.array([CHANNEL_H, CHANNEL_D, CHANNEL_BEACON], np.uint8)
    stream = TagStream(times, channels, np.zeros(3, np.uint8))
    path = tmp_path / "tags.csv"
    write_blocks(write_tags_csv, [stream], path)
    back = read_tags_csv(path)
    # 15 significant digits survive the text round trip
    assert np.allclose(back.times_s, times, rtol=1e-14, atol=1e-13)
    assert np.array_equal(back.channels, channels)
    header = path.read_text().splitlines()[0]
    assert header == "time_s,channel"
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        read_tags_csv(bad)


# recorded while write_tags_csv still wrote one csv.writer row per tag and
# the JSON export was built per element in cli_app
TAGS_TEXT_SHA256 = {
    "csv": "959e669031292f50dfcddcbdd3029c63cb7bbf94feecd5ebc01777f12a23d200",
    "json": "3bf4369a93d587268895547633b4cbb3d946b0eb0d91fe6f1e90026dea9922b8",
}


@pytest.mark.parametrize("rows_per_block", [quantum_receiver._ROW_CHUNK, 7])
@pytest.mark.parametrize("fmt", sorted(TAGS_TEXT_SHA256))
def test_tags_text_bytes_are_pinned(tmp_path, monkeypatch, fmt, rows_per_block):
    # tied times, beacon tags, a zero and an exponent-form time; a small
    # block size splits the stream across many formatted blocks
    monkeypatch.setattr(quantum_receiver, "_ROW_CHUNK", rows_per_block)
    rng = np.random.default_rng(13)
    t = rng.uniform(0.0, 450.0, 900)
    times = np.sort(np.concatenate([t, t[:100], [0.0, 1e-7]]))
    channels = rng.choice([*QUAD_CHANNELS, CHANNEL_BEACON], len(times)).astype(np.uint8)
    path = tmp_path / f"tags.{fmt}"
    write = {"csv": write_tags_csv, "json": write_tags_json}[fmt]
    write_blocks(write, [TagStream(times, channels, np.zeros(len(times), np.uint8))], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TAGS_TEXT_SHA256[fmt]


@pytest.mark.parametrize("fmt, text", [
    ("csv", "time_s,channel\r\n"),
    ("json", '{\n  "channel": [],\n  "time_s": []\n}\n'),
])
def test_empty_tag_stream_text(tmp_path, fmt, text):
    # the JSON text is that of json.dumps(..., sort_keys=True, indent=2)
    path = tmp_path / f"tags.{fmt}"
    write = {"csv": write_tags_csv, "json": write_tags_json}[fmt]
    write_blocks(write, [TagStream(np.empty(0), np.empty(0, np.uint8), np.empty(0, np.uint8))],
                 path)
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("fmt", ["csv", "json", "bin"])
def test_tag_export_in_blocks_equals_one_stream(tmp_path, fmt):
    # the blocks of a stream, empty ones among them, are written as they
    # come and give the bytes of the joined stream; no blocks at all give
    # those of an empty stream
    write = {"csv": write_tags_csv, "json": write_tags_json, "bin": write_tags_binary}[fmt]
    rng = np.random.default_rng(15)
    times = np.sort(rng.uniform(0.0, 450.0, 1000))
    channels = rng.choice([*QUAD_CHANNELS, CHANNEL_BEACON], 1000).astype(np.uint8)
    stream = TagStream(times, channels, np.zeros(1000, np.uint8))
    cuts = [0, 0, 1, 300, 300, 999, 1000, 1000]
    blocks = [TagStream(times[a:b], channels[a:b], stream.origins[a:b])
              for a, b in zip(cuts, cuts[1:])]
    empty = TagStream(np.empty(0), np.empty(0, np.uint8), np.empty(0, np.uint8))
    for name, whole, parts in (("full", stream, blocks), ("empty", empty, [])):
        write_blocks(write, [whole], tmp_path / f"whole_{name}.{fmt}")
        write_blocks(write, parts, tmp_path / f"blocks_{name}.{fmt}")
        assert ((tmp_path / f"blocks_{name}.{fmt}").read_bytes()
                == (tmp_path / f"whole_{name}.{fmt}").read_bytes())


def test_json_tag_export_memory_is_bounded_per_block(tmp_path, monkeypatch):
    # the text is written a block at a time: the peak follows the block
    # size, not the stream (a whole-text export peaks above 200 B per tag)
    monkeypatch.setattr(quantum_receiver, "_ROW_CHUNK", 4096)
    n = 100_000
    rng = np.random.default_rng(14)
    stream = TagStream(np.sort(rng.uniform(0.0, 450.0, n)),
                       rng.choice(QUAD_CHANNELS, n).astype(np.uint8),
                       np.zeros(n, np.uint8))
    _, _, peak = traced_memory(write_blocks, write_tags_json, [stream],
                               tmp_path / "tags.json")
    assert peak / n <= 16.0


# recorded while the export still copied its records to one bytes object
TAGS_BINARY_SHA256 = "e663db05679e0e7e5ba1fef514346274c1bfb5258d48740c950d2405639ae834"


def test_tags_binary_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(12)
    times = np.sort(rng.uniform(0.0, 450.0, 1000))
    channels = rng.choice([*QUAD_CHANNELS, CHANNEL_BEACON], 1000).astype(np.uint8)
    path = tmp_path / "tags.bin"
    write_blocks(write_tags_binary, [TagStream(times, channels, np.zeros(1000, np.uint8))], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TAGS_BINARY_SHA256


def test_tags_binary_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    times = np.sort(rng.uniform(0.0, 450.0, 1000))
    channels = rng.choice(QUAD_CHANNELS, 1000).astype(np.uint8)
    stream = TagStream(times, channels, np.zeros(1000, np.uint8))
    path = tmp_path / "tags.bin"
    write_blocks(write_tags_binary, [stream], path)
    back = read_tags_binary(path)
    assert np.array_equal(back.times_s, times)  # float64 exact
    assert np.array_equal(back.channels, channels)
    assert path.stat().st_size == 1000 * 9
