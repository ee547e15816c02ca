"""Entangled-pair source: rates, fringe visibility, stream statistics."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.stats import chisquare, kstest

from qkdpass import photon_source
from qkdpass.errors import InvalidExtrema, NonpositiveBrightness, OutOfRange
from qkdpass.photon_source import (MODULE_NAME, PairCarry, SourceConfig,
                                   beacon_pulse_count,
                                   generate_pair_stream, pair_rate,
                                   polarizer_scan, qber_from_visibility,
                                   required_pump_power, scan_fringe_mean,
                                   scan_visibility, visibility_from_extrema)
from qkdpass.seeding import module_streams
from conftest import pair_stream


def test_pair_rate_is_brightness_times_pump():
    config = SourceConfig(brightness_pairs_per_s_mw=13.6e6, pump_power_mw=2.0)
    assert pair_rate(config) == pytest.approx(27.2e6)


def test_required_pump_power_inverts_rate():
    p = required_pump_power(25e6, 13.6e6)
    assert pair_rate(SourceConfig(pump_power_mw=p)) == pytest.approx(25e6)
    with pytest.raises(NonpositiveBrightness):
        required_pump_power(1e6, 0.0)
    with pytest.raises(OutOfRange):
        required_pump_power(-1.0, 13.6e6)


def test_visibility_from_extrema_values():
    assert visibility_from_extrema(38.0, 1.0) == pytest.approx(37.0 / 39.0)
    assert visibility_from_extrema(10.0, 10.0) == 0.0
    assert visibility_from_extrema(5.0, 0.0) == 1.0
    with pytest.raises(InvalidExtrema):
        visibility_from_extrema(1.0, 2.0)
    with pytest.raises(InvalidExtrema):
        visibility_from_extrema(0.0, 0.0)


def test_qber_visibility_round_trip():
    assert qber_from_visibility(0.98) == pytest.approx(0.01)
    assert qber_from_visibility(1.0) == 0.0
    assert qber_from_visibility(0.5) == pytest.approx(0.25)
    with pytest.raises(OutOfRange):
        qber_from_visibility(1.2)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_qber_visibility_inverse_property(vis):
    assert 1.0 - 2.0 * qber_from_visibility(vis) == pytest.approx(vis, abs=1e-12)


def test_beacon_pulse_count():
    # pulses at 0, 1/f, ..., 1.0 inclusive
    assert beacon_pulse_count(SourceConfig(beacon_frequency_hz=10e3), 1.0) == 10001
    assert beacon_pulse_count(SourceConfig(beacon_frequency_hz=10e3), 0.99995) == 10000
    assert beacon_pulse_count(SourceConfig(beacon_frequency_hz=0.0), 1.0) == 0


def test_config_validation():
    with pytest.raises(OutOfRange):
        SourceConfig(visibility=1.5)
    with pytest.raises(OutOfRange):
        SourceConfig(pump_power_mw=-1.0)
    with pytest.raises(NonpositiveBrightness):
        SourceConfig(brightness_pairs_per_s_mw=-5.0)
    with pytest.raises(OutOfRange):
        SourceConfig(downlink_fraction=0.0)
    with pytest.raises(OutOfRange):
        SourceConfig(beacon_frequency_hz=100.0)


def test_stream_statistics():
    config = SourceConfig(pump_power_mw=0.01, visibility=0.9)
    duration = 2.0
    stream = pair_stream(config, duration, 11)
    mean = pair_rate(config) * duration
    assert abs(len(stream) - mean) < 5.0 * np.sqrt(mean)
    assert np.all(np.diff(stream.emission_times) > 0.0)
    assert stream.emission_times[0] >= 0.0
    assert stream.emission_times[-1] < duration
    # times and idler channel are the only per-pair columns: 9 B a pair
    n = len(stream)
    per_pair = sum(value.nbytes for value in vars(stream).values()
                   if isinstance(value, np.ndarray) and len(value) == n)
    assert per_pair == 9 * n


def test_stream_deterministic_per_seed():
    config = SourceConfig(pump_power_mw=0.005)
    a = pair_stream(config, 1.0, 3)
    b = pair_stream(config, 1.0, 3)
    assert np.array_equal(a.emission_times, b.emission_times)
    assert np.array_equal(a.idler_channel, b.idler_channel)
    c = pair_stream(config, 1.0, 4)
    assert len(a) != len(c) or not np.array_equal(a.emission_times, c.emission_times)


def test_stream_is_running_sum_of_spacings():
    # the reference form: one time at a time, each the last plus an
    # exponential spacing, until one reaches the window's end; the idler
    # channels are the low two bits of the bytes of the second stream's
    # raw words, lowest byte first
    config = SourceConfig(pump_power_mw=0.001)
    rate, duration = pair_rate(config), 0.05
    times_rng, idler_rng = module_streams(6, MODULE_NAME, 2)
    want, t = [], 0.0
    spacings = iter((times_rng.standard_exponential(2000) * (1.0 / rate)).tolist())
    while (t := t + next(spacings)) < duration:
        want.append(t)
    stream = pair_stream(config, duration, 6)
    assert stream.emission_times.tolist() == want
    words = idler_rng.integers(0, 2**64, size=len(want) // 8 + 1, dtype=np.uint64)
    codes = [(int(word) >> (8 * k)) & 3 for word in words for k in range(8)]
    assert stream.idler_channel.tolist() == codes[:len(want)]


@pytest.mark.parametrize("block", [1, 7, 4096, 1 << 40])
def test_stream_blocks_are_one_stream(monkeypatch, block):
    # any block size gives the same pairs, strictly increasing across the
    # block edges; the blocks hold at most block pairs, the last sets done
    config = SourceConfig(pump_power_mw=0.001)
    whole = pair_stream(config, 0.02, 2)
    monkeypatch.setattr(photon_source, "_BLOCK_PAIRS", block)
    carry = PairCarry.seeded(2)
    blocks = []
    while not carry.done:
        blocks.append(generate_pair_stream(config, 0.02, carry))
        assert len(blocks[-1]) <= block
    times = np.concatenate([b.emission_times for b in blocks])
    assert times.tobytes() == whole.emission_times.tobytes()
    assert np.all(np.diff(times) > 0.0)
    assert np.concatenate([b.idler_channel for b in blocks]).tobytes() \
        == whole.idler_channel.tobytes()


class _Spacings:
    """A times generator that replays fixed standard exponentials."""

    def __init__(self, values):
        self.values = list(values)

    def standard_exponential(self, n):
        drawn, self.values = self.values[:n], self.values[n:]
        return np.array(drawn + [1e9] * (n - len(drawn)))


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 20])
def test_stream_drops_repeated_times(monkeypatch, block):
    # a zero spacing, or one under half an ulp of the time, repeats the
    # time: the pair is dropped, within a block and across an edge
    config = SourceConfig(brightness_pairs_per_s_mw=1.0, pump_power_mw=1.0)
    monkeypatch.setattr(photon_source, "_BLOCK_PAIRS", block)
    carry = PairCarry(_Spacings([0.0, 0.25, 0.0, 1e-17, 0.25, 0.0, 0.25]),
                      np.random.default_rng(1))
    times = []
    while not carry.done:
        block_pairs = generate_pair_stream(config, 2.0, carry)
        assert len(block_pairs.idler_channel) == len(block_pairs)
        times.extend(block_pairs.emission_times.tolist())
    assert times == [0.25, 0.5, 0.75]


def test_stream_pair_count_is_poisson():
    # pulls of the pair count against Poisson(R d) over independent seeds
    config = SourceConfig(pump_power_mw=0.0005)
    duration = 0.1
    mean = pair_rate(config) * duration
    pulls = np.array([(len(pair_stream(config, duration, s)) - mean)
                      / np.sqrt(mean) for s in range(200)])
    assert abs(pulls.mean()) < 5.0 / np.sqrt(len(pulls))
    assert 0.8 < pulls.std() < 1.2


def test_stream_times_are_uniform():
    config = SourceConfig(pump_power_mw=0.01)
    duration = 0.5
    stream = pair_stream(config, duration, 12)
    assert kstest(stream.emission_times, "uniform", args=(0.0, duration)).pvalue > 1e-3


def test_stream_idler_basis_and_outcome_are_fair_and_independent():
    config = SourceConfig(pump_power_mw=0.01)
    codes = pair_stream(config, 0.5, 13).idler_channel
    counts = np.bincount(codes, minlength=4)
    assert len(counts) == 4
    # the four codes (basis * 2 + outcome) equally likely: both fair, and
    # the outcome independent of the basis
    assert chisquare(counts).pvalue > 1e-3


def test_scan_visibility_noise_free_exact():
    angles = np.arange(0.0, 181.0, 2.0)
    perfect = SourceConfig(visibility=1.0)
    counts = scan_fringe_mean(perfect, angles, 1.0)
    assert scan_visibility(angles, counts) == 1.0
    typical = SourceConfig(visibility=0.98)
    counts = scan_fringe_mean(typical, angles, 1.0)
    assert scan_visibility(angles, counts) == pytest.approx(0.98, abs=1e-9)


def test_scan_visibility_with_imbalance_and_offset():
    angles = np.arange(0.0, 181.0, 2.0)
    config = SourceConfig(visibility=0.95, intensity_imbalance=0.3)
    counts = scan_fringe_mean(config, angles, 1.0, peak_angle_deg=17.0)
    assert scan_visibility(angles, counts) == pytest.approx(0.95, abs=1e-9)


def test_scan_visibility_noisy_counts():
    angles = np.arange(0.0, 181.0, 2.0)
    config = SourceConfig(visibility=0.949)
    counts = polarizer_scan(config, angles, 1.0, seed=5)
    assert scan_visibility(angles, counts) == pytest.approx(0.949, abs=0.01)


def test_scan_visibility_needs_enough_samples():
    angles = np.arange(0.0, 90.0, 15.0)
    with pytest.raises(InvalidExtrema):
        scan_visibility(angles, np.ones_like(angles))


def test_polarizer_scan_rejects_zero_integration():
    with pytest.raises(OutOfRange):
        polarizer_scan(SourceConfig(), np.arange(0.0, 181.0, 2.0), 0.0)


@settings(max_examples=25, deadline=None)
@given(
    vis=st.floats(min_value=0.0, max_value=1.0),
    imbalance=st.floats(min_value=0.0, max_value=0.5),
    peak=st.floats(min_value=-45.0, max_value=45.0),
)
def test_scan_visibility_recovers_any_fringe(vis, imbalance, peak):
    angles = np.arange(0.0, 181.0, 2.0)
    config = SourceConfig(visibility=vis, intensity_imbalance=imbalance)
    counts = scan_fringe_mean(config, angles, 1.0, peak_angle_deg=peak)
    assert scan_visibility(angles, counts) == pytest.approx(vis, abs=1e-7)
