"""Entanglement key extraction over one satellite pass.

Orchestrates the full chain: pass geometry, pointing acquisition,
polarization-frame tracking, pair generation, channel thinning,
detection on both arms, beacon clock recovery with flight-time
compensation, coincidence identification, basis sifting, error
estimation, and the asymptotic secret-key accounting.

The onboard arm detects the idler locally, so its tags sit on the
reference timebase. Ground tags carry the free-running receiver clock
plus the light flight time, which changes by milliseconds over a pass
and cannot be absorbed by a linear clock fit; the pipeline subtracts
the flight time predicted from the ephemeris and refines the
subtraction once the first clock fit pins down the emission times.
"""
from __future__ import annotations

import copy
import math
import warnings
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import timedelta
from functools import cached_property
from typing import Any

import numpy as np

from . import channel_link
from .channel_link import BackgroundCarry, LinkProfile, apply_channel, build_link_profile
from .errors import (EmptyKey, LowSample, NoSync, OutOfRange, QkdPassError,
                     SimulationError, SyncFailed)
from .orbit_dynamics import PassProfile, PassWindow, TwoLineElement, \
    predict_passes, sample_pass
from .pat_controller import PatSeries, run_pat
from .photon_source import (PairCarry, PairEventStream, beacon_pulse_count,
                            generate_pair_stream, pair_rate)
from .polarization_correction import PcsSeries, frame_offset_profile, \
    run_polarization_correction
from .quantum_receiver import (CHANNEL_BEACON, ClockModel, CoincidenceResult,
                               DetectorCarry, DetectorModel, ORIGIN_BACKGROUND,
                               ORIGIN_SIGNAL, SyncResult, TagStream, _is_sorted,
                               apply_detector, beacon_clock_sync, channel_basis,
                               channel_bit, find_coincidences, match_blocks,
                               measure_polarization)
from .scenario import Scenario
from .seeding import _two_bit_codes, module_rng, module_streams

MODULE_NAME = "bbm92_pipeline"

SPEED_OF_LIGHT_KM_S = 299792.458

# transmittance below this is treated as a total blackout for the
# classical beacon; above it the bright pulse train always registers
BEACON_BLACKOUT = 1e-12


def binary_entropy(p: float) -> float:
    """Shannon entropy of a binary variable, in bits."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def secret_fraction(qber: float) -> float:
    """Asymptotic BBM92 key fraction max(0, 1 - 2 h2(qber)).

    Models one-way error correction at the Shannon limit plus privacy
    amplification; finite-key corrections are out of scope. Valid for
    qber in [0, 0.5]; beyond that no key survives and the input is
    rejected rather than silently clamped.
    """
    if not 0.0 <= qber <= 0.5:
        raise OutOfRange(f"qber {qber} outside [0, 0.5]")
    return max(0.0, 1.0 - 2.0 * binary_entropy(qber))


@dataclass(frozen=True)
class SiftedKey:
    """Matched-basis bit pairs kept after sifting.

    bits holds the ground outcomes, partner_bits the onboard outcomes
    after the entangled-state convention is unwound, so error-free
    events agree. basis_per_bit records the shared basis (0 = H/V,
    1 = A/D).
    """

    bits: np.ndarray
    partner_bits: np.ndarray
    basis_per_bit: np.ndarray

    def __post_init__(self):
        if not (len(self.bits) == len(self.partner_bits) == len(self.basis_per_bit)):
            raise ValueError("sifted key columns must share one length")

    def __len__(self) -> int:
        return len(self.bits)

    def mismatches(self) -> int:
        return int(np.count_nonzero(self.bits != self.partner_bits))


def sift(
    onboard_channels: np.ndarray,
    ground_channels: np.ndarray,
    ad_anticorrelated: bool = True,
) -> SiftedKey:
    """Keep coincidences where both sides measured in the same basis.

    Inputs are the channel codes of matched coincidence pairs, one
    entry per coincidence. When the source emits the A/D-anticorrelated
    state the onboard A/D bits are flipped here, so agreement between
    bits and partner_bits is the error-free case in both bases.
    """
    on = np.asarray(onboard_channels)
    gr = np.asarray(ground_channels)
    if len(on) != len(gr):
        raise ValueError("coincidence channel lists must share one length")
    on_basis = channel_basis(on)
    keep = on_basis == channel_basis(gr)
    partner = channel_bit(on[keep])
    if ad_anticorrelated:
        partner = partner ^ (on_basis[keep] == 1)
    return SiftedKey(
        bits=channel_bit(gr[keep]).astype(np.uint8),
        partner_bits=partner.astype(np.uint8),
        basis_per_bit=on_basis[keep].astype(np.uint8),
    )


@dataclass(frozen=True)
class QberEstimate:
    """Error rate from a disclosed random subset of the sifted key."""

    qber: float
    std_error: float
    disclosed: int
    errors: int


def estimate_qber(
    key: SiftedKey,
    sample_fraction: float = 0.1,
    *,
    rng: np.random.Generator,
) -> QberEstimate:
    """Disclose a random fraction of the key, drawn by rng, and count errors.

    The standard error is the binomial estimate sqrt(q(1-q)/n) on the
    disclosed sample. Raises EmptyKey on a zero-length key and warns
    LowSample when fewer than 100 bits are disclosed.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise OutOfRange(f"sample_fraction {sample_fraction} outside (0, 1]")
    n = len(key)
    if n == 0:
        raise EmptyKey("cannot estimate an error rate from an empty key")
    n_disclosed = max(1, int(round(sample_fraction * n)))
    if n_disclosed < 100:
        warnings.warn(
            f"only {n_disclosed} bits disclosed; error estimate is coarse",
            LowSample, stacklevel=2,
        )
    idx = rng.choice(n, size=n_disclosed, replace=False)
    errors = int(np.count_nonzero(key.bits[idx] != key.partner_bits[idx]))
    q = errors / n_disclosed
    return QberEstimate(
        qber=q,
        std_error=math.sqrt(q * (1.0 - q) / n_disclosed),
        disclosed=n_disclosed,
        errors=errors,
    )


@dataclass(frozen=True)
class KeyReport:
    """Per-pass key accounting written to report.json."""

    pass_id: str
    coincidences_total: int
    sifted_bits: int
    qber_estimate: float
    qber_std_error: float
    accidental_fraction: float
    secret_fraction: float
    secret_bits: int
    loss_budget: dict[str, float | None]
    pat_lock_fraction: float
    sync_offset_s: float | None
    sync_drift: float | None
    window_start_utc: str
    window_duration_s: float
    quantum_window_start_s: float
    quantum_window_duration_s: float

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class PassResult:
    """Everything simulate_pass produced, report plus telemetry.

    Neither the pair stream nor either arm's tags are kept: stream and
    tag_blocks draw them again from the seed. onboard_arm and ground_arm
    hold what the tags are drawn from, the channel survivors among it.
    """

    report: KeyReport
    pat: PatSeries = field(repr=False)
    pcs: PcsSeries = field(repr=False)
    link: LinkProfile = field(repr=False)
    onboard_arm: _OnboardArm = field(repr=False)
    ground_arm: _GroundArm = field(repr=False)
    sync: SyncResult | None = field(repr=False)
    coincidences: CoincidenceResult | None = field(repr=False)
    key: SiftedKey = field(repr=False)

    @cached_property
    def stream(self) -> PairEventStream:
        """The quantum window's pair stream: the blocks simulate_pass drew
        (_pair_blocks), drawn again and joined on first read."""
        arm = self.onboard_arm
        blocks = [block for block, _ in _pair_blocks(arm.scenario, arm.duration_s)]
        return PairEventStream(np.concatenate([b.emission_times for b in blocks]),
                               np.concatenate([b.idler_channel for b in blocks]),
                               arm.duration_s, arm.scenario.source)

    def tag_blocks(self, arm: str) -> Iterator[TagStream]:
        """The "onboard" or "ground" arm's tags, drawn again from the seed
        a block at a time: the same arm simulate_pass ran, whose
        coincidences index the blocks joined (the ground tags corrected to
        the reference timebase and stable-sorted)."""
        if arm == "onboard":
            return (tags for tags, _ in self.onboard_arm.blocks())
        if arm == "ground":
            return self.ground_arm.blocks()
        raise ValueError(f"arm must be 'onboard' or 'ground', got {arm!r}")


@contextmanager
def _stage(module: str):
    """Reattribute library errors to the pipeline stage that hit them."""
    try:
        yield
    except SimulationError:
        raise
    except QkdPassError as exc:
        raise SimulationError(module, str(exc)) from exc


def _loss_budget(link: LinkProfile) -> dict[str, float | None]:
    """Time-averaged dB per term over the quantum window.

    Samples where a term underflows to zero transmittance (open-loop
    pointing, total blackout) would average to infinity; the mean runs
    over the finite samples only, and a term with no finite sample
    reports null.
    """
    def mean_db(series: np.ndarray) -> float | None:
        finite = series[np.isfinite(series)]
        return float(np.mean(finite)) if len(finite) else None

    with np.errstate(divide="ignore"):
        total_db = -10.0 * np.log10(link.transmittance)
    return {
        "geometric_db": mean_db(link.geometric_loss_db),
        "atmospheric_db": mean_db(link.atmospheric_loss_db),
        "pointing_db": mean_db(link.pointing_loss_db),
        "optics_db": mean_db(link.optics_loss_db),
        "total_db": mean_db(total_db),
    }


def find_passes(scenario: Scenario) -> tuple[TwoLineElement, list[PassWindow]]:
    """The scenario's TLE and its passes within prediction.search_hours of its epoch."""
    tle = scenario.load_tle()
    end = tle.epoch + timedelta(hours=scenario.prediction.search_hours)
    return tle, predict_passes(tle, scenario.site, tle.epoch, end,
                               scenario.prediction.min_elevation_deg)


def select_pass(
    scenario: Scenario, pass_index: int = 0
) -> tuple[TwoLineElement, PassWindow]:
    """The TLE and find_passes' pass_index-th pass; SimulationError if there is none."""
    tle, passes = find_passes(scenario)
    if not passes:
        raise SimulationError(
            "orbit_dynamics",
            f"no pass above {scenario.prediction.min_elevation_deg} deg "
            f"within {scenario.prediction.search_hours} h of epoch",
        )
    if not 0 <= pass_index < len(passes):
        raise SimulationError(
            "orbit_dynamics",
            f"pass index {pass_index} outside 0..{len(passes) - 1}",
        )
    return tle, passes[pass_index]


def _track(scenario: Scenario, pass_index: int):
    """(tle, window, profile, pat): select_pass, then sample_pass and run_pat over it."""
    tle, window = select_pass(scenario, pass_index)
    with _stage("orbit_dynamics"):
        profile = sample_pass(tle, scenario.site, window,
                              step_s=scenario.prediction.profile_step_s)
    with _stage("pat_controller"):
        pat = run_pat(profile.elevation_at, scenario.pat, duration_s=float(profile.duration_s),
                      dt_s=scenario.pat_dt_s, seed=scenario.seed)
    return tle, window, profile, pat


def _link_over(scenario: Scenario, profile: PassProfile, pat: PatSeries,
               start_s: float, span_s: float) -> LinkProfile:
    """The link on the samples bracketing [start_s, start_s + span_s], times from start_s."""
    times = profile.times_s
    lo = max(np.searchsorted(times, start_s, side="right") - 1, 0)
    seg = slice(lo, np.searchsorted(times, start_s + span_s, side="left") + 1)
    with _stage("channel_link"):
        res_times, res_vals = pat.residual_profile()
        return build_link_profile(times[seg] - start_s, profile.range_km[seg],
                                  profile.elevation_deg[seg],
                                  np.interp(times[seg], res_times, res_vals), scenario.link)


def link_budget(scenario: Scenario, pass_index: int = 0) -> LinkProfile:
    """simulate_pass's pass, pointing and link stages over the whole pass, times from AOS."""
    _, _, profile, pat = _track(scenario, pass_index)
    return _link_over(scenario, profile, pat, 0.0, float(profile.duration_s))


def simulate_pass(scenario: Scenario, pass_index: int = 0) -> PassResult:
    """Run the full chain for one pass and account for the key.

    The pass comes from select_pass. The quantum source runs over a
    window centered on the closest approach, capped so the event count
    stays at protocol.max_source_events; pointing and frame tracking
    run over the whole pass. Then, in this order:

    - Beacon clock sync (_clock_sync). It reads only the link and the
      flight time, so it runs before any photon. A pass with no usable
      beacon (total blackout) warns NoSync with the reason and yields a
      well-formed zero-key report instead of an error; neither arm runs.
    - The survivor pass (_survivors): the pairs, drawn and thinned by
      the channel one block at a time. Only the channel survivors
      outlive a block.
    - Both arms, matched in time order (match_blocks). The onboard arm
      (_OnboardArm.blocks) draws the pairs again and detects every idler
      a pair block at a time; the ground arm (_GroundArm.blocks) detects
      the survivors that reach it and the sky background a block of
      background at a time, and corrects each block's tags to the
      reference timebase with the fitted clock and the flight time.
      Whichever arm is behind gives its next block, and the tags of both
      up to a gap wider than the coincidence window are matched as one
      segment, so neither whole tag stream is held;
      PassResult.tag_blocks runs an arm again.

    The survivor pass, the onboard arm and PassResult.stream draw their
    pairs from one generator (_pair_blocks). The results do not depend on
    either block size. Deterministic for a given scenario and seed.
    """
    seed = scenario.seed
    proto = scenario.protocol

    tle, window, profile, pat = _track(scenario, pass_index)
    duration = float(profile.duration_s)

    with _stage("polarization_correction"):
        frame = frame_offset_profile(profile, scenario.pcs,
                                     scenario.prediction.profile_step_s, duration)
        pcs = run_polarization_correction(frame, scenario.pcs, seed)

    with _stage("photon_source"):
        rate = pair_rate(scenario.source)
        q_dur = min(duration, proto.max_source_events / max(rate, 1.0))
        tca_rel = (window.tca - window.aos).total_seconds()
        q_start = min(max(tca_rel - q_dur / 2.0, 0.0), duration - q_dur)

    link = _link_over(scenario, profile, pat, q_start, q_dur)

    def flight_s(t_window: np.ndarray) -> np.ndarray:
        rng_km = np.interp(np.asarray(t_window, dtype=float) + q_start,
                           profile.times_s, profile.range_km)
        return rng_km / SPEED_OF_LIGHT_KM_S

    max_flight = float(np.max(link.range_km)) / SPEED_OF_LIGHT_KM_S
    ground_span = (0.0, q_dur + max_flight)
    sync = _clock_sync(scenario, link, flight_s, q_dur, ground_span)

    survivors, channel_rng = _survivors(scenario, link, q_dur)
    onboard_arm = _OnboardArm(scenario, q_dur)
    # the sky background continues the channel stream where the pairs left it
    ground_arm = _GroundArm(scenario, link, pcs, q_start, ground_span, flight_s,
                            survivors, channel_rng)

    coincidences: CoincidenceResult | None = None
    key = SiftedKey(np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint8),
                    np.empty(0, dtype=np.uint8))
    if sync is not None:
        with _stage("quantum_receiver"):
            # beacon tags are a stream of their own: both arms' tags are quad
            coincidences, onboard_channels, ground_channels = match_blocks(
                ((tags.times_s, tags.channels, until)
                 for tags, until in onboard_arm.blocks()),
                _corrected_blocks(ground_arm.blocks(), sync.clock, flight_s),
                proto.coincidence_window_s, match=find_coincidences)

    with _stage(MODULE_NAME):
        if coincidences is not None:
            key = sift(onboard_channels, ground_channels,
                       ad_anticorrelated=proto.ad_anticorrelated)
        total = len(coincidences.onboard_indices) if coincidences else 0
        if len(key):
            est = estimate_qber(key, proto.sample_fraction,
                                rng=module_rng(seed, MODULE_NAME))
            fraction = secret_fraction(min(est.qber, 0.5))
            secret_bits = max(0, math.floor(
                len(key) * fraction * (1.0 - proto.sample_fraction)))
        else:
            est = QberEstimate(qber=0.0, std_error=0.0, disclosed=0, errors=0)
            fraction = 0.0
            secret_bits = 0
        accidental_fraction = (
            coincidences.expected_accidentals / max(total, 1)
            if coincidences else 0.0
        )
        report = KeyReport(
            pass_id=(f"{tle.satellite_number:05d}-"
                     f"{window.tca.strftime('%Y%m%dT%H%M%SZ')}"),
            coincidences_total=total,
            sifted_bits=len(key),
            qber_estimate=float(est.qber),
            qber_std_error=float(est.std_error),
            accidental_fraction=float(accidental_fraction),
            secret_fraction=float(fraction),
            secret_bits=int(secret_bits),
            loss_budget=_loss_budget(link),
            pat_lock_fraction=float(pat.lock_fraction()),
            sync_offset_s=float(sync.clock.offset_s) if sync else None,
            sync_drift=float(sync.clock.drift) if sync else None,
            window_start_utc=window.aos.isoformat(),
            window_duration_s=float(window.duration_s),
            quantum_window_start_s=float(q_start),
            quantum_window_duration_s=float(q_dur),
        )

    return PassResult(
        report=report, pat=pat, pcs=pcs, link=link, onboard_arm=onboard_arm,
        ground_arm=ground_arm, sync=sync, coincidences=coincidences, key=key,
    )


def _clock_sync(scenario: Scenario, link: LinkProfile, flight_s, q_dur: float,
                ground_span: tuple[float, float]) -> SyncResult | None:
    """The ground clock fitted to the beacon tags, or None if sync fails.

    The classical beacon is a bright pulse train, lost only in a
    blackout (_beacon_tags). Two fits: the first predicts the flight
    time at the raw tag time (the clock offset slews the lookup point,
    worst case tens of ns); the second inverts the fitted clock,
    iterates the emission time and scales the flight time by the fitted
    rate (_flight_removed). Each fit's input is built a block of tags at
    a time into one array, so the tags and that input are all that
    scale with the beacon count. A failed sync warns NoSync with the
    SyncFailed message.
    """
    frequency = scenario.source.beacon_frequency_hz
    n_pulses = beacon_pulse_count(scenario.source, q_dur)
    with _stage("quantum_receiver"):
        tags = _beacon_tags(scenario, link, flight_s, n_pulses, ground_span)
    try:
        with _stage("quantum_receiver"):
            fit_in = _by_blocks(lambda t: t - flight_s(t), tags)
            sync1 = beacon_clock_sync(fit_in, frequency, n_pulses, scenario.sync)
            _by_blocks(lambda t: _flight_removed(t, sync1.clock, flight_s), tags,
                       out=fit_in)
            return beacon_clock_sync(fit_in, frequency, n_pulses, scenario.sync)
    except SimulationError as exc:
        if not isinstance(exc.__cause__, SyncFailed):
            raise
        # no timing reference: no coincidence identification is
        # possible, report zero key rather than failing the pass
        warnings.warn(f"beacon clock sync failed, so the key is zero: {exc.__cause__}",
                      NoSync, stacklevel=3)
        return None


# Pulses per block of the beacon train: bounds the beacon detector's
# working set, whatever the window's length.
_BEACON_BLOCK = 1 << 16


def _beacon_tags(scenario: Scenario, link: LinkProfile, flight_s, n_pulses: int,
                 ground_span: tuple[float, float]) -> np.ndarray:
    """The ground receiver's beacon tag times, a block of pulses at a time.

    Pulse k leaves at k / beacon_frequency_hz (beacon_pulse_count). The
    pulses the link does not black out reach the ground a flight time
    later and go through the beacon detector, whose blocks (see
    apply_detector) give the tags of one call over all of them. Only
    the tags outlive a block.
    """
    frequency = scenario.source.beacon_frequency_hz
    model = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, dead_time_s=0.0,
                          timing_jitter_rms_s=scenario.sync.beacon_jitter_rms_s)
    rngs = module_streams(scenario.seed, "quantum_receiver.ground.beacon", 3)
    carry = DetectorCarry()

    def detect(arrivals: np.ndarray, last: bool) -> np.ndarray:
        return apply_detector(
            arrivals, np.full(len(arrivals), CHANNEL_BEACON, dtype=np.uint8), model,
            scenario.clock, rng=rngs, span_s=ground_span, carry=carry, last=last,
        ).times_s

    tags, arrivals = [], np.empty(0)
    for start in range(0, n_pulses, _BEACON_BLOCK):
        emit = np.arange(start, min(start + _BEACON_BLOCK, n_pulses)) / frequency
        emit = emit[link.transmittance_at(emit) > BEACON_BLACKOUT]
        if len(emit):
            # a block is detected once the next one with pulses is in, so
            # that only a total blackout makes a call without pulses
            if len(arrivals):
                tags.append(detect(arrivals, last=False))
            arrivals = emit + flight_s(emit)
    tags.append(detect(arrivals, last=True))
    return np.concatenate(tags)


def _pair_blocks(scenario: Scenario,
                 duration_s: float) -> Iterator[tuple[PairEventStream, bool]]:
    """The window's pairs drawn from the seed (generate_pair_stream), one
    block at a time, each block with whether it is the last.

    The blocks joined do not depend on the block size.
    """
    carry = PairCarry.seeded(scenario.seed)
    with _stage("photon_source"):
        while not carry.done:
            # bound to no local, which a suspended generator would keep
            # alive while the next block is drawn
            yield generate_pair_stream(scenario.source, duration_s, carry), carry.done


def _survivors(scenario: Scenario, link: LinkProfile,
               q_dur: float) -> tuple[PairEventStream, np.random.Generator]:
    """The window's channel survivors, and the channel stream as the last
    pair block left it.

    The pairs are thinned by the channel a block at a time; only the
    survivors' emission times and idler channels (9 B each) outlive a
    block.
    """
    channel_rng = module_rng(scenario.seed, "channel_link")
    kept_t, kept_c = [], []
    for block, _ in _pair_blocks(scenario, q_dur):
        with _stage("channel_link"):
            rows = apply_channel(block, link, channel_rng).survivor_indices
        kept_t.append(block.emission_times[rows])
        kept_c.append(block.idler_channel[rows])
        del block, rows
    return (PairEventStream(np.concatenate(kept_t), np.concatenate(kept_c),
                            q_dur, scenario.source), channel_rng)


@dataclass(frozen=True)
class _OnboardArm:
    """The onboard idler arm, run from the same state on every call.

    The survivor pass keeps no pair that the channel lost, and the
    onboard detector measures every pair, so the arm draws the window's
    pairs again from the seed; duration_s is the window.
    """

    scenario: Scenario
    duration_s: float

    def blocks(self) -> Iterator[tuple[TagStream, float]]:
        """The onboard tags, one pair block at a time, each block with a
        time that no tag of a later block comes before (DetectorCarry.until).

        The idlers are detected on the reference timebase. The blocks
        joined do not depend on the block size.
        """
        scenario, span = self.scenario, (0.0, self.duration_s)
        rngs = module_streams(scenario.seed, "quantum_receiver.onboard.detector", 3)
        carry = DetectorCarry()
        for block, last in _pair_blocks(scenario, self.duration_s):
            with _stage("quantum_receiver"):
                tags = apply_detector(
                    block.emission_times, measure_polarization(block, "onboard"),
                    scenario.onboard_detector, ClockModel(), rng=rngs,
                    span_s=span, carry=carry, last=last)
            del block
            yield tags, carry.until


@dataclass(frozen=True)
class _GroundArm:
    """The ground receiver's arm, run from the same state on every call.

    survivors are the channel survivors of all pair blocks, and
    channel_rng the channel stream as the last pair block left it: the
    sky background continues it. span_s is the receiver's gate, the
    window plus the longest flight time.
    """

    scenario: Scenario
    link: LinkProfile
    pcs: PcsSeries
    q_start: float
    span_s: tuple[float, float]
    flight_s: Callable[[np.ndarray], np.ndarray]
    survivors: PairEventStream
    channel_rng: np.random.Generator

    def blocks(self) -> Iterator[TagStream]:
        """The ground tags, one block of sky background at a time.

        The downlink split picks the survivors that reach the ground
        analyzer, measured at the PCS residual of their emission time
        and sorted by arrival. The sky background is then drawn over the
        gate a block at a time (see apply_channel), and each block is
        detected merged with the signal arrivals up to its last time, in
        pieces of at most _BLOCK_ARRIVALS signal arrivals (_ground_block),
        so that a window without sky light is not one block either. The
        blocks joined do not depend on the block size.
        """
        scenario, seed, survivors = self.scenario, self.scenario.seed, self.survivors
        with _stage("quantum_receiver"):
            downlink = module_rng(seed, "photon_source.downlink").random(
                len(survivors)) < scenario.source.downlink_fraction
            signal_idx = np.flatnonzero(downlink)
            signal_emit = survivors.emission_times[signal_idx]
            signal_channels = measure_polarization(
                survivors, "ground",
                residual_deg=self.pcs.residual_at(self.q_start + signal_emit),
                rng=module_rng(seed, "quantum_receiver.ground"),
                ad_anticorrelated=scenario.protocol.ad_anticorrelated, rows=signal_idx,
            )
            del downlink, signal_idx
            signal_t = signal_emit + self.flight_s(signal_emit)
            del signal_emit
            # the blocks split the signal by time; a flight time that rounds
            # the other way could still swap two arrivals attoseconds apart
            if not _is_sorted(signal_t):
                order = np.argsort(signal_t, kind="stable")
                signal_t, signal_channels = signal_t[order], signal_channels[order]

        ground_rngs = module_streams(seed, "quantum_receiver.ground.detector", 3)
        ground_carry = DetectorCarry()
        channel_rng = copy.deepcopy(self.channel_rng)
        sky = BackgroundCarry(self.span_s)
        sky_codes = module_rng(seed, "quantum_receiver.ground.background")
        spare = np.empty(0, dtype=np.uint8)
        no_pairs = PairEventStream(np.empty(0), np.empty(0, dtype=np.uint8),
                                   survivors.duration_s, scenario.source)
        taken = 0
        while not sky.done:
            with _stage("channel_link"):
                sky_t = apply_channel(no_pairs, self.link, channel_rng,
                                      background=sky).background_times
            with _stage("quantum_receiver"):
                sky_c, spare = _two_bit_codes(sky_codes, spare, len(sky_t))
                pieces = _ground_block(signal_t, signal_channels, taken, sky_t, sky_c,
                                       sky.done)
                del sky_t, sky_c
                for arrivals, chans, origins, taken in pieces:
                    yield apply_detector(
                        arrivals, chans, scenario.ground_detector, scenario.clock,
                        rng=ground_rngs, span_s=self.span_s, origins=origins,
                        carry=ground_carry, last=sky.done and taken == len(signal_t),
                    )
                    del arrivals, chans, origins


def _emission_estimate(tag_times_s, clock: ClockModel, flight_s) -> np.ndarray:
    """Iterate t_emit = clock.invert(tag) - flight(t_emit) to fixed point.

    Two rounds leave an error of order (d_flight/dt)^2 * flight, well
    under a picosecond for LEO geometry.
    """
    t0 = clock.invert(np.asarray(tag_times_s, dtype=float))
    t1 = t0 - flight_s(t0)
    return t0 - flight_s(t1)


def _flight_removed(tag_times_s: np.ndarray, clock: ClockModel, flight_s) -> np.ndarray:
    """Each tag less its flight time, on the receiver clock:
    tag - flight(emit) * (1 + drift), emit from _emission_estimate."""
    emit = _emission_estimate(tag_times_s, clock, flight_s)
    return tag_times_s - flight_s(emit) * (1.0 + clock.drift)


# Ground tags within this of a block's last corrected time wait for the
# next block (match_blocks' until). The correction rises with the tag
# time, and rounding reorders neighbours by a few ulps only, under
# 1e-13 s for tags within hours of the window start.
_CORRECTION_HOLD_S = 1e-9


def _corrected_blocks(blocks: Iterable[TagStream], clock: ClockModel, flight_s):
    """match_blocks' blocks: each block's times on the reference timebase
    (_corrected_times), its channels, and a time that no tag of a later
    block comes before."""
    for tags in blocks:
        times = _corrected_times(tags.times_s, clock, flight_s)
        until = times[-1] - _CORRECTION_HOLD_S if len(times) else -np.inf
        yield times, tags.channels, until


# Values per step of _by_blocks: bounds the temporaries of the
# elementwise chains it evaluates.
_CORRECTION_BLOCK = 1 << 16


def _by_blocks(fn: Callable[[np.ndarray], np.ndarray], values: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """fn(values) for an elementwise fn, evaluated _CORRECTION_BLOCK values
    at a time into out (a new array by default): the values of one
    whole-array call, without its whole-array temporaries."""
    out = np.empty(len(values)) if out is None else out
    for start in range(0, len(values), _CORRECTION_BLOCK):
        block = slice(start, start + _CORRECTION_BLOCK)
        out[block] = fn(values[block])
    return out


def _corrected_times(tag_times_s: np.ndarray, clock: ClockModel,
                     flight_s) -> np.ndarray:
    """Reference-time estimate of each ground tag: clock.invert of
    _flight_removed, a block at a time (_by_blocks)."""
    return _by_blocks(lambda t: clock.invert(_flight_removed(t, clock, flight_s)),
                      tag_times_s)


def _ground_arrivals(
    signal_t: np.ndarray, signal_channels: np.ndarray,
    background_t: np.ndarray, background_channels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival times, channels and origins of both ground streams, in time order.

    Both inputs must be sorted; the order is then that of a stable
    argsort of the signal rows followed by the background rows. The
    ground arm passes a block of each at a time (the signal sorted once
    before its blocks, the background sorted as drawn), so the signal
    rows are inserted into the background ahead of equal times.
    """
    at = np.searchsorted(background_t, signal_t, side="left")
    origins = np.full(len(signal_t) + len(background_t), ORIGIN_BACKGROUND,
                      dtype=np.uint8)
    origins[at + np.arange(len(at))] = ORIGIN_SIGNAL
    return (np.insert(background_t, at, signal_t),
            np.insert(background_channels, at, signal_channels),
            origins)


def _ground_block(
    signal_t: np.ndarray, signal_channels: np.ndarray, taken: int,
    background_t: np.ndarray, background_channels: np.ndarray, last: bool,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """One sky block's ground arrivals (_ground_arrivals), in pieces of at
    most channel_link._BLOCK_ARRIVALS signal rows, each piece with the
    end of the sorted signal rows taken so far.

    The block takes the signal rows from taken up to its last background
    time, all that are left if it is the last block. A signal arrival
    equal to that time goes with the block, ahead of the background
    arrival. A piece ends at its last signal row, and background rows at
    that time go to the next piece, behind any signal rows left at it.
    So the pieces joined are _ground_arrivals over the whole streams,
    and each piece starts no earlier than the last one ended. Only the
    last piece of the last block can be empty.
    """
    end = len(signal_t) if last else \
        int(np.searchsorted(signal_t, background_t[-1], side="right"))
    cap = channel_link._BLOCK_ARRIVALS
    while end - taken > cap:
        cut = int(np.searchsorted(background_t, signal_t[taken + cap - 1], side="left"))
        yield (*_ground_arrivals(signal_t[taken:taken + cap],
                                 signal_channels[taken:taken + cap],
                                 background_t[:cut], background_channels[:cut]),
               taken + cap)
        taken += cap
        background_t, background_channels = background_t[cut:], background_channels[cut:]
    yield (*_ground_arrivals(signal_t[taken:end], signal_channels[taken:end],
                             background_t, background_channels), end)
