"""The ground arm with the detector acting on every arrival.

This is the ground arm as it stood before the sky light was drawn as
the ground detector registers it: the sky background is drawn at the
profile's full rate, merged with the signal arrivals, and the ground
detector thins and jitters each arrival of both a block at a time. The
tests hold _GroundArm.blocks to it in law (the colouring and
displacement theorems for Poisson processes). The random streams
differ: here the detector's thinning and jitter draws follow the merged
arrivals, and the sky is drawn from its own stream at the full rate.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from qkdpass.bbm92_pipeline import _ground_block
from qkdpass.channel_link import BackgroundCarry, apply_channel
from qkdpass.photon_source import PairEventStream
from qkdpass.quantum_receiver import (DetectorCarry, TagStream, apply_detector,
                                      measure_polarization)
from qkdpass.seeding import _two_bit_codes, module_rng, module_streams


def reference_ground_blocks(arm) -> Iterator[TagStream]:
    """arm's ground tags, a block of full-rate sky background at a time,
    with the ground detector thinning and jittering every arrival."""
    scenario, seed, survivors = arm.scenario, arm.scenario.seed, arm.survivors
    downlink = module_rng(seed, "photon_source.downlink").random(
        len(survivors)) < scenario.source.downlink_fraction
    signal_idx = np.flatnonzero(downlink)
    signal_emit = survivors.emission_times[signal_idx]
    signal_channels = measure_polarization(
        survivors, "ground", residual_deg=arm.pcs.residual_at(arm.q_start + signal_emit),
        rng=module_rng(seed, "quantum_receiver.ground"),
        ad_anticorrelated=scenario.protocol.ad_anticorrelated, rows=signal_idx)
    signal_t = signal_emit + arm.flight_s(signal_emit)
    order = np.argsort(signal_t, kind="stable")
    signal_t, signal_channels = signal_t[order], signal_channels[order]

    rngs = module_streams(seed, "quantum_receiver.ground.detector", 3)
    carry, sky = DetectorCarry(), BackgroundCarry(arm.span_s)
    sky_rng = module_rng(seed, "channel_link.background")
    sky_codes = module_rng(seed, "quantum_receiver.ground.background")
    spare = np.empty(0, dtype=np.uint8)
    no_pairs = PairEventStream(np.empty(0), np.empty(0, dtype=np.uint8),
                               survivors.duration_s, scenario.source)
    taken = 0
    while not sky.done:
        sky_t = apply_channel(no_pairs, arm.link, sky_rng, background=sky).background_times
        sky_c, spare = _two_bit_codes(sky_codes, spare, len(sky_t))
        for arrivals, chans, origins, taken in _ground_block(
                signal_t, signal_channels, taken, sky_t, sky_c, sky.done):
            yield apply_detector(arrivals, chans, scenario.ground_detector,
                                 scenario.clock, rng=rngs, span_s=arm.span_s,
                                 origins=origins, carry=carry,
                                 last=sky.done and taken == len(signal_t))
