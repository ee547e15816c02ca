"""Sifting, error estimation, key-rate arithmetic, and the full pipeline."""
from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkdpass.bbm92_pipeline as pipeline
from qkdpass import channel_link, photon_source
from qkdpass.bbm92_pipeline import (QberEstimate, SiftedKey, binary_entropy,
                                    estimate_qber, secret_fraction, sift,
                                    simulate_pass)
from qkdpass.errors import EmptyKey, LowSample, NoSync, OutOfRange, SimulationError
from qkdpass.photon_source import SourceConfig
from qkdpass.polarization_correction import PcsSeries
from qkdpass.channel_link import LinkProfile
from qkdpass.quantum_receiver import (CHANNEL_A, CHANNEL_BEACON, CHANNEL_D, CHANNEL_H,
                                      CHANNEL_V, ORIGIN_BACKGROUND, ORIGIN_SIGNAL,
                                      QUAD_CHANNELS, ClockModel, DetectorCarry,
                                      DetectorModel, SyncConfig, apply_detector,
                                      find_coincidences, measure_polarization)
from qkdpass.scenario import LinkConfig, ProtocolConfig
from qkdpass.seeding import module_rng, module_streams
from conftest import arm_tags, base_scenario, pair_stream, stable_sorted, traced_memory
from sync_reference import beacon_schedule


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(
        -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
    )
    with pytest.raises(OutOfRange):
        binary_entropy(-0.01)
    with pytest.raises(OutOfRange):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric(p):
    assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


def test_secret_fraction_values():
    assert secret_fraction(0.0) == 1.0
    expected = 1.0 - 2.0 * (-0.05 * math.log2(0.05) - 0.95 * math.log2(0.95))
    assert secret_fraction(0.05) == pytest.approx(expected, abs=1e-12)
    assert secret_fraction(0.5) == 0.0
    # the rate hits zero just above 11 percent and stays clamped
    assert secret_fraction(0.12) == 0.0
    with pytest.raises(OutOfRange):
        secret_fraction(0.51)
    with pytest.raises(OutOfRange):
        secret_fraction(-0.001)


def test_secret_fraction_monotone():
    grid = np.linspace(0.0, 0.5, 101)
    values = [secret_fraction(float(q)) for q in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_sift_hand_worked_example():
    onboard = np.array([CHANNEL_H, CHANNEL_V, CHANNEL_A, CHANNEL_D, CHANNEL_H, CHANNEL_A])
    ground = np.array([CHANNEL_H, CHANNEL_H, CHANNEL_D, CHANNEL_D, CHANNEL_A, CHANNEL_V])
    key = sift(onboard, ground)
    # pairs 0,1 share H/V; pairs 2,3 share A/D; pairs 4,5 are cross-basis
    assert len(key) == 4
    assert key.basis_per_bit.tolist() == [0, 0, 1, 1]
    assert key.bits.tolist() == [0, 0, 1, 1]
    # onboard bits: H=0, V=1, then A=0 and D=1 flipped by the
    # anticorrelation convention to 1 and 0
    assert key.partner_bits.tolist() == [0, 1, 1, 0]
    assert key.mismatches() == 2
    plain = sift(onboard, ground, ad_anticorrelated=False)
    assert plain.partner_bits.tolist() == [0, 1, 0, 1]


def test_sift_all_same_basis():
    onboard = np.array([CHANNEL_H, CHANNEL_V] * 10)
    ground = np.array([CHANNEL_V, CHANNEL_H] * 10)
    assert len(sift(onboard, ground)) == 20


def test_sift_length_mismatch():
    with pytest.raises(ValueError):
        sift(np.array([CHANNEL_H]), np.array([CHANNEL_H, CHANNEL_V]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=2**31 - 1))
def test_sift_conserves_events(n, seed):
    rng = np.random.default_rng(seed)
    onboard = rng.integers(0, 4, n).astype(np.uint8)
    ground = rng.integers(0, 4, n).astype(np.uint8)
    key = sift(onboard, ground)
    discarded = int(np.count_nonzero((onboard >> 1) != (ground >> 1)))
    assert len(key) + discarded == n


def test_sift_fraction_near_half():
    rng = np.random.default_rng(21)
    n = 40000
    onboard = rng.integers(0, 4, n).astype(np.uint8)
    ground = rng.integers(0, 4, n).astype(np.uint8)
    key = sift(onboard, ground)
    assert abs(len(key) / n - 0.5) < 5.0 * 0.5 / np.sqrt(n)


def _key(bits, partner):
    bits = np.asarray(bits, dtype=np.uint8)
    partner = np.asarray(partner, dtype=np.uint8)
    return SiftedKey(bits=bits, partner_bits=partner,
                     basis_per_bit=np.zeros(len(bits), dtype=np.uint8))


def _qber_rng(seed: int) -> np.random.Generator:
    """The pipeline's disclosure stream for a seed."""
    return module_rng(seed, pipeline.MODULE_NAME)


def test_estimate_qber_extremes():
    n = 2000
    bits = np.random.default_rng(20).integers(0, 2, n).astype(np.uint8)
    perfect = estimate_qber(_key(bits, bits), rng=_qber_rng(0))
    assert perfect.qber == 0.0
    assert perfect.std_error == 0.0
    assert perfect.disclosed == 200
    inverted = estimate_qber(_key(bits, 1 - bits), rng=_qber_rng(0))
    assert inverted.qber == 1.0


def test_estimate_qber_matches_true_rate():
    rng = np.random.default_rng(22)
    n = 50000
    bits = rng.integers(0, 2, n).astype(np.uint8)
    flips = rng.random(n) < 0.07
    est = estimate_qber(_key(bits, bits ^ flips), sample_fraction=0.2, rng=_qber_rng(1))
    assert est.disclosed == 10000
    assert est.qber == pytest.approx(0.07, abs=5.0 * math.sqrt(0.07 * 0.93 / 10000))
    assert est.std_error == pytest.approx(math.sqrt(est.qber * (1 - est.qber) / 10000))
    assert est.errors == round(est.qber * est.disclosed)


def test_estimate_qber_guards():
    with pytest.raises(EmptyKey):
        estimate_qber(_key([], []), rng=_qber_rng(0))
    bits = np.ones(500, dtype=np.uint8)
    with pytest.raises(OutOfRange):
        estimate_qber(_key(bits, bits), sample_fraction=0.0, rng=_qber_rng(0))
    with pytest.raises(OutOfRange):
        estimate_qber(_key(bits, bits), sample_fraction=1.5, rng=_qber_rng(0))
    with pytest.warns(LowSample):
        estimate_qber(_key(bits, bits), sample_fraction=0.01, rng=_qber_rng(0))


def test_estimate_qber_deterministic_per_seed():
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2, 5000).astype(np.uint8)
    flips = rng.random(5000) < 0.05
    key = _key(bits, bits ^ flips)
    a = estimate_qber(key, rng=_qber_rng(4))
    b = estimate_qber(key, rng=_qber_rng(4))
    assert a == b


def test_error_mechanisms_add_independently():
    # source errors at q1 and misalignment flips at q2 combine to
    # q1 + q2 - 2 q1 q2 (a double flip cancels)
    q1, q2 = 0.05, 0.03
    config = SourceConfig(pump_power_mw=0.02, visibility=1.0 - 2.0 * q1)
    stream = pair_stream(config, 0.5, 31)
    residual = math.degrees(math.asin(math.sqrt(q2)))
    onboard = measure_polarization(stream, "onboard")
    ground = measure_polarization(stream, "ground", residual_deg=residual,
                                  rng=module_rng(32, "quantum_receiver.ground"))
    key = sift(onboard, ground)
    rate = key.mismatches() / len(key)
    expected = q1 + q2 - 2.0 * q1 * q2
    sigma = math.sqrt(expected * (1.0 - expected) / len(key))
    assert rate == pytest.approx(expected, abs=4.0 * sigma)


def test_simulate_pass_report_well_formed(sim_result):
    report = sim_result.report
    assert report.coincidences_total > 0
    assert 0 < report.sifted_bits <= report.coincidences_total
    assert abs(report.sifted_bits / report.coincidences_total - 0.5) < 0.05
    assert 0.0 <= report.qber_estimate <= 1.0
    assert 0.0 <= report.secret_fraction <= 1.0
    assert report.secret_bits >= 0
    assert report.pat_lock_fraction > 0.3
    assert report.sync_offset_s is not None
    assert report.quantum_window_duration_s > 0.0
    budget = report.loss_budget
    for term in ("geometric_db", "atmospheric_db", "pointing_db", "optics_db", "total_db"):
        assert budget[term] is None or budget[term] >= 0.0
    parts = sum(budget[k] for k in ("geometric_db", "atmospheric_db",
                                    "pointing_db", "optics_db"))
    assert budget["total_db"] == pytest.approx(parts, rel=0.05)
    payload = json.dumps(report.to_dict(), sort_keys=True)
    assert "qber" in payload


def test_simulate_pass_recovers_configured_clock(sim_result):
    scenario = base_scenario()
    sync = sim_result.sync
    assert sync is not None
    assert abs(sync.clock.offset_s - scenario.clock.offset_s) < 1e-9
    assert abs(sync.clock.drift - scenario.clock.drift) < 1e-8


def test_simulate_pass_onboard_tags_are_quad_only(sim_result):
    # coincidence matching reads the onboard tags without a beacon filter
    channels = arm_tags(sim_result, "onboard").channels
    assert len(channels) > 0
    assert set(np.unique(channels).tolist()) <= set(QUAD_CHANNELS)


def test_simulate_pass_ground_tags_are_quad_only(sim_result):
    # clock correction and matching read the ground tags without a beacon filter
    channels = arm_tags(sim_result, "ground").channels
    assert len(channels) > 0
    assert set(np.unique(channels).tolist()) <= set(QUAD_CHANNELS)


def test_simulate_pass_residual_only_at_ground_arrivals(monkeypatch):
    # the PCS residual is evaluated for the pairs that reach the ground
    # analyzer, not for every emitted pair
    residual_sizes, signal_arrivals = [], []
    residual_at, apply_detector = PcsSeries.residual_at, pipeline.apply_detector

    def recording_residual_at(self, t_s):
        residual_sizes.append(np.size(t_s))
        return residual_at(self, t_s)

    def recording_detector(*args, **kwargs):
        if kwargs.get("origins") is not None:
            signal_arrivals.append(
                int(np.count_nonzero(kwargs["origins"] == ORIGIN_SIGNAL)))
        return apply_detector(*args, **kwargs)

    monkeypatch.setattr(PcsSeries, "residual_at", recording_residual_at)
    monkeypatch.setattr(pipeline, "apply_detector", recording_detector)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = simulate_pass(base_scenario())
    assert len(signal_arrivals) == 1
    assert residual_sizes == signal_arrivals
    assert 0 < signal_arrivals[0] < len(result.stream)


def _run_recording_survivors(monkeypatch, scenario):
    """simulate_pass, the emission time and idler channel of every
    channel survivor and the sky background, each joined over the blocks
    in call order, the number of ground detector calls and the first
    emission time of every pair block after the first."""
    survivors, background, ground_calls, edges = [], [], [], []
    apply_channel, apply_detector = pipeline.apply_channel, pipeline.apply_detector

    def recording_channel(block, *args, **kwargs):
        result = apply_channel(block, *args, **kwargs)
        rows = result.survivor_indices
        survivors.append((block.emission_times[rows], block.idler_channel[rows]))
        background.append(result.background_times)
        edges.append(block.emission_times[:1])
        return result

    def recording_detector(*args, **kwargs):
        ground_calls.append(kwargs.get("origins") is not None)
        return apply_detector(*args, **kwargs)

    monkeypatch.setattr(pipeline, "apply_channel", recording_channel)
    monkeypatch.setattr(pipeline, "apply_detector", recording_detector)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = simulate_pass(scenario)
    return (result, [np.concatenate(column).tobytes() for column in zip(*survivors)]
            + [np.concatenate(background).tobytes()], sum(ground_calls),
            np.concatenate(edges[1:]))


def test_simulate_pass_does_not_depend_on_block_size(monkeypatch):
    # the pairs, the channel thinning and the onboard detector run a block
    # of pairs at a time, the sky background and the ground detector a
    # block of background at a time, the signal arrivals of a sky block in
    # pieces of at most a block, and both arms are matched a block at a
    # time; every draw is sequential in its own stream, so any block sizes
    # give the same bytes (3000 pairs and about 5000 background arrivals:
    # 1 a block stays quick; 22 ms of window still holds 220 beacon
    # pulses). Without sky light the signal pieces alone split the ground
    # arm.
    for sky in (2e5, 0.0):
        scenario = base_scenario(protocol=ProtocolConfig(max_source_events=3000))
        scenario = dataclasses.replace(
            scenario, source=dataclasses.replace(scenario.source, pump_power_mw=0.01),
            link=dataclasses.replace(scenario.link, sky_background_rate_zenith=sky))
        runs, ground_calls = {}, {}
        for block in (1, 7, 4096, 1 << 40):
            monkeypatch.setattr(photon_source, "_BLOCK_PAIRS", block)
            monkeypatch.setattr(channel_link, "_BLOCK_ARRIVALS", block)
            result, drawn, ground_calls[block], edges = _run_recording_survivors(
                monkeypatch, scenario)
            if block == 7:
                # an onboard tag whose dead time runs past the next pair
                # block's first emission
                tags = arm_tags(result, "onboard").times_s
                dead = scenario.onboard_detector.dead_time_s
                after = np.searchsorted(edges, tags, side="right")
                inside = after < len(edges)
                assert np.any(edges[after[inside]] < tags[inside] + dead)
            runs[block] = (
                json.dumps(result.report.to_dict(), sort_keys=True), drawn,
                *(getattr(tags, column).tobytes()
                  for tags in (arm_tags(result, "onboard"), arm_tags(result, "ground"))
                  for column in ("times_s", "channels", "origins")))
        assert runs[1][0] and json.loads(runs[1][0])["coincidences_total"] > 0
        origins = np.frombuffer(runs[1][-1], np.uint8)
        assert np.any(origins == ORIGIN_BACKGROUND) == bool(sky)
        # one call per signal arrival without sky light, and a call per
        # background arrival with it
        signal = int(np.count_nonzero(origins == ORIGIN_SIGNAL))
        assert ground_calls[1] > (1000 if sky else signal) and ground_calls[1 << 40] == 1
        assert runs[1] == runs[7] == runs[4096] == runs[1 << 40]


@pytest.mark.parametrize("block", [7, photon_source._BLOCK_PAIRS])
def test_stream_is_the_pairs_simulate_pass_drew(monkeypatch, block):
    # the survivor pass and then the onboard arm draw the same pair blocks,
    # and PassResult.stream is those blocks joined
    monkeypatch.setattr(photon_source, "_BLOCK_PAIRS", block)
    drawn, generate = [], pipeline.generate_pair_stream

    def recording_pairs(*args):
        pairs = generate(*args)
        drawn.append((pairs.emission_times.tobytes(), pairs.idler_channel.tobytes()))
        return pairs

    monkeypatch.setattr(pipeline, "generate_pair_stream", recording_pairs)
    scenario = base_scenario(
        source=SourceConfig(pump_power_mw=0.01),
        protocol=ProtocolConfig(max_source_events=3000 if block == 7 else 300_000))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = simulate_pass(scenario)
    half = len(drawn) // 2
    assert result.sync is not None and half > (100 if block == 7 else 1)
    assert drawn[:half] == drawn[half:]
    times, idlers = (b"".join(column) for column in zip(*drawn[:half]))
    assert times == result.stream.emission_times.tobytes()
    assert idlers == result.stream.idler_channel.tobytes()


ON_DEMAND_RUNS = {
    "zero_sky": base_scenario(protocol=ProtocolConfig(max_source_events=300_000)),
    "sky": base_scenario(
        protocol=ProtocolConfig(max_source_events=300_000),
        link=LinkConfig(rx_aperture_diameter_m=1.0, tx_divergence_rad=10e-6,
                        sky_background_rate_zenith=2e6)),
    "blackout": base_scenario(
        protocol=ProtocolConfig(max_source_events=300_000),
        link=LinkConfig(rx_aperture_diameter_m=1.0, tx_divergence_rad=10e-6,
                        zenith_atmospheric_loss_db=500.0)),
}


@pytest.mark.parametrize("run", sorted(ON_DEMAND_RUNS))
def test_ground_tags_are_drawn_again_on_demand(monkeypatch, run):
    # simulate_pass matches both arms' tags a block at a time and keeps
    # none; tag_blocks runs each arm again, and one
    # find_coincidences call on those tags, the ground tags corrected and
    # stable-sorted, gives the pass's coincidences and key. Small pair and
    # sky blocks make many blocks and segments.
    monkeypatch.setattr(photon_source, "_BLOCK_PAIRS", 1 << 14)
    monkeypatch.setattr(channel_link, "_BLOCK_ARRIVALS", 1 << 12)
    calls, apply_detector = [], pipeline.apply_detector

    def counting_detector(*args, **kwargs):
        calls.append("onboard" if kwargs.get("origins") is None else "ground")
        return apply_detector(*args, **kwargs)

    def uncounted_beacon_tags(*args, beacon_tags=pipeline._beacon_tags):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "apply_detector", apply_detector)
            return beacon_tags(*args)

    monkeypatch.setattr(pipeline, "apply_detector", counting_detector)
    monkeypatch.setattr(pipeline, "_beacon_tags", uncounted_beacon_tags)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = simulate_pass(ON_DEMAND_RUNS[run])
    during = {arm: calls.count(arm) for arm in ("onboard", "ground")}
    onboard, tags = arm_tags(result, "onboard"), arm_tags(result, "ground")
    assert calls.count("onboard") > during["onboard"]
    assert calls.count("ground") > during["ground"]
    for stream in (onboard, tags):
        assert len(stream) and set(np.unique(stream.channels).tolist()) <= set(QUAD_CHANNELS)
    if run == "blackout":
        # no sync: neither arm runs, yet their tags can be drawn
        assert during == {"onboard": 0, "ground": 0}
        assert result.sync is None and result.coincidences is None
        assert not np.any(tags.origins == ORIGIN_SIGNAL)
        return
    assert during["onboard"] > 10 and during["ground"] > (100 if run == "sky" else 0)
    times, channels = stable_sorted(pipeline._corrected_times(
        tags.times_s, result.sync.clock, result.ground_arm.flight_s), tags.channels)
    want = find_coincidences(onboard.times_s, times, ProtocolConfig().coincidence_window_s)
    got = result.coincidences
    assert len(want) > 0 and got.expected_accidentals == want.expected_accidentals
    for column in ("onboard_indices", "ground_indices"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
    key = sift(onboard.channels[want.onboard_indices], channels[want.ground_indices])
    assert key.bits.tobytes() == result.key.bits.tobytes()
    assert key.partner_bits.tobytes() == result.key.partner_bits.tobytes()


def _beacon_run(frequency_hz, duration_s, transmittance, jitter_s=1e-9):
    """A scenario with that beacon, a link sampled every 25 pulses whose
    holds take transmittance in turn (its loss columns unused), its
    flight time and the ground gate."""
    scenario = base_scenario(sync=SyncConfig(beacon_jitter_rms_s=jitter_s))
    scenario = dataclasses.replace(scenario, source=dataclasses.replace(
        scenario.source, beacon_frequency_hz=frequency_hz))
    # samples on pulse times: pulses sit on every hold edge
    times = np.arange(0, int(duration_s * frequency_hz) + 25, 25) / frequency_hz
    range_km, zeros = np.linspace(600.0, 900.0, len(times)), np.zeros(len(times))
    link = LinkProfile(times, zeros, range_km, zeros, zeros, zeros, zeros,
                       np.resize(transmittance, len(times)), zeros)

    def flight_s(t):
        return np.interp(t, times, range_km) / pipeline.SPEED_OF_LIGHT_KM_S

    return scenario, link, flight_s, (0.0, duration_s + float(flight_s(duration_s)))


@pytest.mark.parametrize("block", [1, 7, 4096, 1 << 40])
@pytest.mark.parametrize("jitter_s", [1e-9, 3e-4])
@pytest.mark.parametrize("transmittance", [
    [1e-3, 0.0, 0.5, 1e-12, 2e-12], [0.0], [1e-3, 1e-3, 0.0, 0.0, 0.0, 0.0]])
def test_beacon_tags_in_blocks_equal_one_call(monkeypatch, block, jitter_s, transmittance):
    # the beacon train is walked a block of pulses at a time; the tags are
    # those of one detector call over every pulse the link lets through,
    # byte for byte, with pulses on the edges of blackout holds, a jitter
    # wider than the pulse spacing, a total blackout and a window that
    # ends in one
    scenario, link, flight_s, span = _beacon_run(10e3, 0.2, transmittance, jitter_s)
    schedule = beacon_schedule(scenario.source, 0.2)
    emit = schedule[link.transmittance_at(schedule) > pipeline.BEACON_BLACKOUT]
    want = apply_detector(
        emit + flight_s(emit), np.full(len(emit), CHANNEL_BEACON, dtype=np.uint8),
        DetectorModel(efficiency=1.0, dark_rate_hz=0.0, dead_time_s=0.0,
                      timing_jitter_rms_s=jitter_s),
        scenario.clock, rng=module_streams(scenario.seed, "quantum_receiver.ground.beacon", 3),
        span_s=span, carry=DetectorCarry()).times_s
    monkeypatch.setattr(pipeline, "_BEACON_BLOCK", block)
    got = pipeline._beacon_tags(scenario, link, flight_s, len(schedule), span)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if transmittance[0]:
        # a pulse on the edge of a hold that lets it through, and one on
        # the edge of a blackout
        assert np.isin(link.times_s, emit).any() and not np.isin(link.times_s, emit).all()


def test_clock_sync_memory_is_bounded_per_pulse():
    # the sync stage walks the pulse train and the fit inputs in blocks:
    # only the beacon tags, one fit input and one residual array (8 B a
    # pulse each) scale with the pulse count. 1.25M pulses peak at 26.3 B
    # a pulse; a whole-window schedule, keep mask, flight array and fit
    # temporaries took 139.9 B
    scenario, link, flight_s, span = _beacon_run(50e3, 25.0, [1e-3])
    n_pulses = photon_source.beacon_pulse_count(scenario.source, 25.0)
    sync, _, peak = traced_memory(pipeline._clock_sync, scenario, link, flight_s, 25.0, span)
    assert n_pulses >= 1_000_000 and sync.n_matched == n_pulses
    assert peak / n_pulses <= 48.0


def test_failed_sync_warns_why():
    # a blackout loses every beacon pulse: the zero-key report says nothing
    # of why, the warning does
    with pytest.warns(NoSync, match="no beacon tags to synchronize on"):
        result = simulate_pass(ON_DEMAND_RUNS["blackout"])
    assert result.sync is None and result.report.secret_bits == 0


def test_simulate_pass_memory_is_bounded_per_pair():
    # only the channel survivors outlive a pair block, and both arms are
    # matched a block at a time, so the peak is one block's working set
    # and the per-pass fixed costs: 3.87 B a pair on this run (5.23 B
    # with 2^18-pair blocks and a whole-window beacon fit). Holding the
    # onboard tags (10 B each, about half the pairs) and 2^20-pair blocks
    # peaked at 13.83 B a pair; a whole-window pair stream and its
    # detector pass at 22 B
    scenario = base_scenario(protocol=ProtocolConfig(max_source_events=3_000_000))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result, _, peak = traced_memory(simulate_pass, scenario)
    pairs = 3_000_000
    assert len(arm_tags(result, "onboard")) > 0.4 * pairs
    assert peak / pairs <= 8.0


def reference_ground_arrivals(signal_t, signal_c, background_t, background_c):
    """Concatenate and stable-argsort: the glue the merge replaces."""
    arrivals = np.concatenate([signal_t, background_t])
    chans = np.concatenate([signal_c, background_c])
    origins = np.concatenate([
        np.full(len(signal_t), ORIGIN_SIGNAL, dtype=np.uint8),
        np.full(len(background_t), ORIGIN_BACKGROUND, dtype=np.uint8),
    ])
    order = np.argsort(arrivals, kind="stable")
    return arrivals[order], chans[order], origins[order]


def assert_matches_reference_glue(signal_t, background_t, seed):
    rng = np.random.default_rng(seed)
    signal_c = rng.integers(0, 4, len(signal_t), dtype=np.uint8)
    background_c = rng.integers(0, 4, len(background_t), dtype=np.uint8)
    got = pipeline._ground_arrivals(signal_t, signal_c, background_t, background_c)
    want = reference_ground_arrivals(signal_t, signal_c, background_t, background_c)
    for column, expected in zip(got, want):
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n_signal=st.integers(min_value=0, max_value=60),
    n_background=st.integers(min_value=0, max_value=200),
    grid=st.sampled_from([None, 0.05]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ground_arrivals_match_concatenate_and_argsort(n_signal, n_background,
                                                       grid, seed):
    # on a coarse grid many signal and background times tie exactly
    rng = np.random.default_rng(seed)
    signal_t = np.sort(rng.uniform(0.0, 1.0, n_signal))
    background_t = np.sort(rng.uniform(0.0, 1.0, n_background))
    if grid:
        signal_t, background_t = (np.round(t / grid) * grid
                                  for t in (signal_t, background_t))
    assert_matches_reference_glue(signal_t, background_t, seed)


def ground_blocks(signal_t, signal_c, background_t, background_c, ends):
    """_ground_block's pieces over the background split at ends, as the
    pipeline takes them, joined; and each piece's arrival times."""
    taken, blocks, bounds = 0, [], [0, *ends, len(background_t)]
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for *block, taken in pipeline._ground_block(
                signal_t, signal_c, taken, background_t[lo:hi], background_c[lo:hi],
                k == len(ends)):
            blocks.append(block)
    assert taken == len(signal_t)
    return [np.concatenate(column) for column in zip(*blocks)], [b[0] for b in blocks]


@settings(max_examples=200, deadline=None)
@given(
    n_signal=st.integers(min_value=0, max_value=60),
    n_background=st.integers(min_value=1, max_value=200),
    n_blocks=st.integers(min_value=1, max_value=12),
    grid=st.sampled_from([None, 0.05]),
    cap=st.sampled_from([1, 3, 1 << 17]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ground_blocks_match_one_merge(n_signal, n_background, n_blocks, grid, cap,
                                       seed):
    # any split of the background into blocks (only the last one may be
    # empty), and of a block's signal rows into pieces of at most cap,
    # gives the stable argsort of the whole streams, and no piece starts
    # before the last one ended
    rng = np.random.default_rng(seed)
    signal_t = np.sort(rng.uniform(0.0, 1.0, n_signal))
    background_t = np.sort(rng.uniform(0.0, 1.0, n_background))
    if grid:
        signal_t, background_t = (np.round(t / grid) * grid
                                  for t in (signal_t, background_t))
    signal_c = rng.integers(0, 4, n_signal, dtype=np.uint8)
    background_c = rng.integers(0, 4, n_background, dtype=np.uint8)
    ends = np.sort(rng.choice(np.arange(1, n_background + 1),
                              min(n_blocks, n_background) - 1, replace=False)).tolist()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel_link, "_BLOCK_ARRIVALS", cap)
        got, times = ground_blocks(signal_t, signal_c, background_t, background_c, ends)
    want = reference_ground_arrivals(signal_t, signal_c, background_t, background_c)
    for column, expected in zip(got, want):
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes()
    for before, after in zip(times, times[1:]):
        assert not len(before) or not len(after) or before[-1] <= after[0]


def test_ground_block_edge_tie_puts_signal_first():
    # a signal arrival equal to the last background time of a block goes
    # with that block, ahead of it; the next block starts with the
    # background arrival at the same time
    signal_t = np.array([0.1, 0.3, 0.5])
    background_t = np.array([0.2, 0.3, 0.3, 0.4])
    signal_c = np.zeros(3, dtype=np.uint8)
    background_c = np.ones(4, dtype=np.uint8)
    (arrivals, _, origins), times = ground_blocks(
        signal_t, signal_c, background_t, background_c, [2])
    S, B = ORIGIN_SIGNAL, ORIGIN_BACKGROUND
    assert [t.tolist() for t in times] == [[0.1, 0.2, 0.3, 0.3], [0.3, 0.4, 0.5]]
    assert origins.tolist() == [S, B, S, B, B, B, S]
    assert arrivals.tolist() == sorted(arrivals.tolist())


def test_simulate_pass_memory_is_bounded_per_background_arrival(monkeypatch):
    # the sky background and the ground detector run a block at a time,
    # so only the signal arrivals (9 B each), the ground tags (10 B each,
    # about 0.22 per arrival here) and one block's working set outlive a
    # block. Holding the whole background (9 B an arrival), its merge with
    # the signal (10 B) and the ground detector's pass over all of it
    # peaked at 23.7 B an arrival on this run; blocks of 2^16 arrivals,
    # so that one block is a small share of the run, peak at 13.0 B
    scenario = base_scenario(protocol=ProtocolConfig(max_source_events=100_000))
    scenario = dataclasses.replace(scenario, link=dataclasses.replace(
        scenario.link, sky_background_rate_zenith=1e7))
    monkeypatch.setattr(channel_link, "_BLOCK_ARRIVALS", 1 << 16)
    drawn, apply_channel = [], pipeline.apply_channel

    def counting_channel(*args, **kwargs):
        result = apply_channel(*args, **kwargs)
        drawn.append(len(result.background_times))
        return result

    monkeypatch.setattr(pipeline, "apply_channel", counting_channel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result, _, peak = traced_memory(simulate_pass, scenario)
    arrivals = sum(drawn)
    assert arrivals > 1_000_000 and result.report.coincidences_total > 0
    assert peak / arrivals <= 16.0


def test_simulate_pass_memory_per_background_arrival_at_default_blocks(monkeypatch):
    # at the default block sizes one sky block is a small share of a run,
    # and the ground tags are corrected and matched a block at a time,
    # never held whole: 6.5 B an arrival on this run (1.51M arrivals),
    # against 22.6 B with 2^20-arrival blocks, the whole ground tag stream
    # and its corrected copy
    scenario = base_scenario(protocol=ProtocolConfig(max_source_events=100_000))
    scenario = dataclasses.replace(scenario, link=dataclasses.replace(
        scenario.link, sky_background_rate_zenith=1e7))
    drawn, apply_channel = [], pipeline.apply_channel

    def counting_channel(*args, **kwargs):
        result = apply_channel(*args, **kwargs)
        drawn.append(len(result.background_times))
        return result

    monkeypatch.setattr(pipeline, "apply_channel", counting_channel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result, _, peak = traced_memory(simulate_pass, scenario)
    arrivals = sum(drawn)
    assert arrivals > 1_000_000 and result.report.coincidences_total > 0
    assert peak / arrivals <= 10.0


def test_corrected_times_blocks_match_one_evaluation(monkeypatch):
    rng = np.random.default_rng(17)
    tags = np.sort(rng.uniform(0.0, 20.0, 1000))
    clock = ClockModel(offset_s=2e-3, drift=4e-6)
    profile_t = np.linspace(-5.0, 30.0, 36)
    profile_km = 500.0 + 10.0 * (profile_t - 12.0) ** 2

    def flight_s(t):
        return np.interp(t, profile_t, profile_km) / pipeline.SPEED_OF_LIGHT_KM_S

    emit = pipeline._emission_estimate(tags, clock, flight_s)
    want = clock.invert(tags - flight_s(emit) * (1.0 + clock.drift))
    monkeypatch.setattr(pipeline, "_CORRECTION_BLOCK", 7)
    assert pipeline._corrected_times(tags, clock, flight_s).tobytes() == want.tobytes()


def test_simulate_pass_deterministic(sim_result):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        again = simulate_pass(base_scenario())
    assert json.dumps(again.report.to_dict(), sort_keys=True) == \
        json.dumps(sim_result.report.to_dict(), sort_keys=True)


def test_simulate_pass_background_degrades_key():
    results = []
    for rate in (0.0, 2e4, 2e6):
        scenario = base_scenario(
            link=LinkConfig(rx_aperture_diameter_m=1.0,
                            tx_divergence_rad=10e-6,
                            sky_background_rate_zenith=rate),
            protocol=ProtocolConfig(max_source_events=300_000),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results.append(simulate_pass(scenario))
    accidental = [r.report.accidental_fraction for r in results]
    assert accidental[0] < accidental[1] < accidental[2]
    # judge error rates on the full sifted key, not the disclosed sample,
    # since these short runs disclose only a few dozen bits
    error_rate = [r.key.mismatches() / len(r.key) for r in results]
    assert error_rate[0] < error_rate[2]
    assert error_rate[1] < error_rate[2]


def test_simulate_pass_blackout_yields_zero_key():
    scenario = base_scenario(
        link=LinkConfig(rx_aperture_diameter_m=1.0,
                        tx_divergence_rad=10e-6,
                        zenith_atmospheric_loss_db=500.0),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = simulate_pass(scenario)
    report = result.report
    assert report.coincidences_total == 0
    assert report.sifted_bits == 0
    assert report.secret_bits == 0
    assert report.qber_estimate == 0.0
    assert report.secret_fraction == 0.0
    assert report.sync_offset_s is None
    json.dumps(report.to_dict())  # stays serializable


def test_simulate_pass_no_pass_found_is_simulation_error():
    scenario = base_scenario()
    with pytest.raises(SimulationError):
        simulate_pass(scenario, pass_index=99)
