"""The ground arm with the detector acting on every arrival.

This is the ground arm as it stood before the sky light was drawn as
the ground detector registers it: the sky background is drawn at the
profile's full rate, merged with the signal arrivals, and the ground
detector thins and jitters each arrival of both, in one call over the
window. The tests hold the pipeline's ground tags to it in law (the
colouring and displacement theorems for Poisson processes). The random
streams differ: here the detector's thinning and jitter draws follow the
merged arrivals, and the sky is drawn from its own stream at the full
rate.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from qkdpass.channel_link import BackgroundCarry, apply_channel
from qkdpass.quantum_receiver import (ORIGIN_BACKGROUND, ORIGIN_SIGNAL, DetectorCarry,
                                      TagStream, apply_detector, measure_polarization)
from qkdpass.seeding import _two_bit_codes, module_rng, module_streams

from conftest import pair_stream, stable_sorted


def reference_ground_tags(chain) -> TagStream:
    """The ground tags of a pass's photon chain (PassResult.chain), with
    full-rate sky background and the ground detector thinning and
    jittering every arrival."""
    scenario, seed = chain.scenario, chain.scenario.seed
    pairs = pair_stream(scenario.source, chain.duration_s, seed)
    rows = apply_channel(pairs, chain.link, module_rng(seed, "channel_link")).survivor_indices
    rows = rows[module_rng(seed, "photon_source.downlink").random(len(rows))
                < scenario.source.downlink_fraction]
    emit = pairs.emission_times[rows]
    signal_c = measure_polarization(
        pairs, "ground", residual_deg=chain.pcs.residual_at(chain.q_start + emit),
        rng=module_rng(seed, "quantum_receiver.ground"),
        ad_anticorrelated=scenario.protocol.ad_anticorrelated, rows=rows)
    signal_t = emit + chain.flight_s(emit)

    sky, sky_rng = BackgroundCarry(chain.span_s), module_rng(seed, "channel_link.background")
    no_pairs = dataclasses.replace(pairs, emission_times=np.empty(0),
                                   idler_channel=np.empty(0, dtype=np.uint8))
    sky_t = []
    while not sky.done:
        sky_t.append(apply_channel(no_pairs, chain.link, sky_rng, background=sky).background_times)
    sky_t = np.concatenate(sky_t)
    sky_c, _ = _two_bit_codes(module_rng(seed, "quantum_receiver.ground.background"),
                              np.empty(0, dtype=np.uint8), len(sky_t))
    arrivals, channels, origins = stable_sorted(
        np.concatenate([signal_t, sky_t]), np.concatenate([signal_c, sky_c]),
        np.repeat(np.array([ORIGIN_SIGNAL, ORIGIN_BACKGROUND], dtype=np.uint8),
                  [len(signal_t), len(sky_t)]))
    return apply_detector(arrivals, channels, scenario.ground_detector, scenario.clock,
                          rng=module_streams(seed, "quantum_receiver.ground.detector", 3),
                          span_s=chain.span_s, carry=DetectorCarry(), origins=origins)
