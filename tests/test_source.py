"""Entangled-pair source: rates, fringe visibility, stream statistics."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdpass.errors import InvalidExtrema, NonpositiveBrightness, OutOfRange
from qkdpass.photon_source import (MODULE_NAME, SourceConfig, _sorted_distinct,
                                   beacon_schedule,
                                   generate_pair_stream, pair_rate,
                                   polarizer_scan, qber_from_visibility,
                                   required_pump_power, scan_fringe_mean,
                                   scan_visibility, visibility_from_extrema)
from qkdpass.seeding import module_rng


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


def test_beacon_schedule_count_and_spacing():
    config = SourceConfig(beacon_frequency_hz=10e3)
    times = beacon_schedule(config, 1.0)
    # pulses at 0, 1/f, ..., 1.0 inclusive
    assert len(times) == 10001
    assert times[0] == 0.0
    assert np.allclose(np.diff(times), 1e-4)
    assert beacon_schedule(SourceConfig(beacon_frequency_hz=0.0), 1.0).size == 0


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
    stream = generate_pair_stream(config, duration, seed=11)
    mean = pair_rate(config) * duration
    assert abs(len(stream) - mean) < 5.0 * np.sqrt(mean)
    assert np.all(np.diff(stream.emission_times) > 0.0)
    assert stream.emission_times[0] >= 0.0
    assert stream.emission_times[-1] <= duration
    # half the idlers in each basis, and half of their outcomes 1
    n = len(stream)
    assert abs(stream.idler_basis.mean() - 0.5) < 5.0 / (2.0 * np.sqrt(n))
    assert abs(stream.idler_outcome.mean() - 0.5) < 5.0 / (2.0 * np.sqrt(n))
    # times, basis and outcome are the only per-pair columns: 10 B a pair
    per_pair = sum(value.nbytes for value in vars(stream).values()
                   if isinstance(value, np.ndarray) and len(value) == n)
    assert per_pair == 10 * n


def test_stream_deterministic_per_seed():
    config = SourceConfig(pump_power_mw=0.005)
    a = generate_pair_stream(config, 1.0, seed=3)
    b = generate_pair_stream(config, 1.0, seed=3)
    assert np.array_equal(a.emission_times, b.emission_times)
    assert np.array_equal(a.idler_basis, b.idler_basis)
    assert np.array_equal(a.idler_outcome, b.idler_outcome)
    c = generate_pair_stream(config, 1.0, seed=4)
    assert len(a) != len(c) or not np.array_equal(a.emission_times, c.emission_times)


@pytest.mark.parametrize("values", [
    [],
    [0.5],
    [0.3, 0.1, 0.2],
    [0.3, 0.1, 0.3, 0.2, 0.1, 0.1],
    [2.0, 2.0],
    [0.0, 1e-300, 0.0, 5e-324, 5e-324],
])
def test_sorted_distinct_is_unique(values):
    values = np.asarray(values, dtype=float)
    want = np.unique(values)
    got = _sorted_distinct(values.copy())
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, 0.125, 0.25, 1.0, 3.5, 7.0]),
                       max_size=40) | st.lists(st.floats(0.0, 10.0), max_size=40))
def test_sorted_distinct_is_unique_property(values):
    values = np.asarray(values, dtype=float)
    assert _sorted_distinct(values.copy()).tobytes() == np.unique(values).tobytes()


def test_stream_times_are_unique_draws():
    # the form generate_pair_stream replaces: np.unique of the raw uniforms
    config = SourceConfig(pump_power_mw=0.01)
    rng = module_rng(6, MODULE_NAME)
    want = np.unique(rng.uniform(0.0, 0.5, size=rng.poisson(pair_rate(config) * 0.5)))
    stream = generate_pair_stream(config, 0.5, seed=6)
    assert stream.emission_times.tobytes() == want.tobytes()
    assert np.array_equal(stream.idler_basis,
                          rng.integers(0, 2, size=len(want), dtype=np.uint8))


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
