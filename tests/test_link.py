"""Free-space link budget terms against closed-form anchors."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0e
from scipy.stats import chi2, ncx2

from qkdpass import channel_link
from qkdpass.channel_link import (MODULE_NAME, BackgroundCarry, LinkConfig,
                                  LinkProfile, _i0e, apply_channel,
                                  atmospheric_loss, background_rate,
                                  build_link_profile, geometric_transmittance,
                                  pointing_transmittance)
from qkdpass.errors import LowElevation, OutOfRange, ProfileGap
from qkdpass.photon_source import SourceConfig
from qkdpass.seeding import module_rng
from conftest import channel_window, pair_stream

CONFIG = LinkConfig()


def test_geometric_transmittance_far_field():
    # 20 urad full divergence at 500 km: beam radius 5 m, aperture radius 0.3 m
    t = geometric_transmittance(500.0, CONFIG)
    assert t == pytest.approx(0.3**2 / 5.0**2, rel=1e-12)
    link = build_link_profile([0.0], [500.0], [90.0], [0.0], CONFIG)
    assert link.geometric_loss_db[0] == pytest.approx(24.4370, abs=1e-3)


def test_geometric_transmittance_caps_at_unity():
    # beam smaller than the aperture in the (unphysical) near field
    assert geometric_transmittance(10.0, CONFIG) == 1.0
    link = build_link_profile([0.0], [10.0], [90.0], [0.0], CONFIG)
    assert link.geometric_loss_db[0] == 0.0


def test_geometric_obstruction_scales_area():
    blocked = LinkConfig(rx_obstruction_fraction=0.25)
    ratio = geometric_transmittance(800.0, blocked) / geometric_transmittance(800.0, CONFIG)
    assert ratio == pytest.approx(0.75, rel=1e-12)


def test_geometric_rejects_nonpositive_range():
    with pytest.raises(OutOfRange):
        geometric_transmittance(0.0, CONFIG)


def test_atmospheric_airmass_scaling():
    assert atmospheric_loss(90.0, CONFIG) == pytest.approx(CONFIG.zenith_atmospheric_loss_db)
    assert atmospheric_loss(30.0, CONFIG) == pytest.approx(
        2.0 * CONFIG.zenith_atmospheric_loss_db, rel=1e-12
    )
    el5 = 1.0 / np.sin(np.radians(5.0))
    assert atmospheric_loss(5.0, CONFIG) == pytest.approx(el5, rel=1e-9)


def test_atmospheric_clamped_below_five_degrees():
    with pytest.warns(LowElevation):
        low = atmospheric_loss(2.0, CONFIG)
    assert low == pytest.approx(atmospheric_loss(5.0, CONFIG))


def test_pointing_on_axis_closed_form():
    # spot radius w = stop radius a: captured fraction is 1 - exp(-2 a^2 / w^2)
    expected = 1.0 - np.exp(-2.0)
    assert pointing_transmittance(0.0, CONFIG) == pytest.approx(expected, abs=1e-6)
    # the 0.63 dB floor at zero residual comes from the stop geometry alone
    link = build_link_profile([0.0], [500.0], [90.0], [0.0], CONFIG)
    assert link.pointing_loss_db[0] == pytest.approx(0.6315, abs=1e-3)


def test_pointing_matches_noncentral_chi_square():
    # displaced-Gaussian capture equals the Marcum Q complement, which the
    # noncentral chi-square CDF with 2 dof provides: an independent route
    w = CONFIG.spot_radius
    a = CONFIG.stop_radius
    for d in (0.5, 2.0, 5.0, 7.5, 12.0, 20.0):
        expected = ncx2.cdf((2.0 * a / w) ** 2, df=2, nc=(2.0 * d / w) ** 2)
        assert pointing_transmittance(d, CONFIG) == pytest.approx(expected, abs=1e-6)


def test_i0e_is_scipy_bit_for_bit():
    # both branches, the switch at 8 with its neighbouring doubles, and far tails
    x = np.concatenate([
        np.linspace(0.0, 100.0, 200_001),
        np.exp(np.linspace(-20.0, 8.0, 50_001)),
        [0.0, np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0), 1e3, 1e300],
    ])
    assert np.array_equal(_i0e(x).view(np.int64), i0e(x).view(np.int64))


def test_pointing_monotone_in_residual():
    d = np.linspace(0.0, 40.0, 81)
    t = pointing_transmittance(d, CONFIG)
    assert np.all(np.diff(t) < 0.0)
    assert np.all((t >= 0.0) & (t <= 1.0))


def test_pointing_rejects_negative_residual():
    with pytest.raises(OutOfRange):
        pointing_transmittance(-1.0, CONFIG)


def test_total_transmittance_composes_terms():
    profile = build_link_profile(
        np.array([12.0]),
        range_km=np.array([700.0]),
        elevation_deg=np.array([45.0]),
        residual_arcsec=np.array([3.0]),
        config=CONFIG,
    )
    recombined = 10.0 ** (
        -(
            profile.geometric_loss_db[0]
            + profile.atmospheric_loss_db[0]
            + profile.pointing_loss_db[0]
            + profile.optics_loss_db[0]
        )
        / 10.0
    )
    assert profile.transmittance[0] == pytest.approx(recombined, rel=1e-9)
    assert profile.optics_loss_db[0] == pytest.approx(-10.0 * np.log10(CONFIG.optics_efficiency))
    assert profile.transmittance_at(12.0) == profile.transmittance[0]


def test_background_rate_scales_with_airmass():
    config = LinkConfig(sky_background_rate_zenith=200.0)
    assert background_rate(90.0, config) == pytest.approx(200.0)
    assert background_rate(30.0, config) == pytest.approx(400.0, rel=1e-12)
    assert background_rate(90.0, CONFIG) == 0.0


def test_config_validation():
    with pytest.raises(OutOfRange):
        LinkConfig(tx_divergence_rad=0.0)
    with pytest.raises(OutOfRange):
        LinkConfig(optics_efficiency=0.0)
    with pytest.raises(OutOfRange):
        LinkConfig(optics_efficiency=1.5)
    with pytest.raises(OutOfRange):
        LinkConfig(rx_obstruction_fraction=1.0)


@settings(max_examples=50, deadline=None)
@given(
    r1=st.floats(min_value=300.0, max_value=3000.0),
    r2=st.floats(min_value=300.0, max_value=3000.0),
)
def test_geometric_monotone_in_range(r1, r2):
    lo, hi = sorted((r1, r2))
    assert geometric_transmittance(hi, CONFIG) <= geometric_transmittance(lo, CONFIG)


@settings(max_examples=50, deadline=None)
@given(el=st.floats(min_value=5.0, max_value=90.0))
def test_atmospheric_bounded_by_airmass_range(el):
    loss = atmospheric_loss(el, CONFIG)
    assert CONFIG.zenith_atmospheric_loss_db <= loss
    assert loss <= CONFIG.zenith_atmospheric_loss_db / np.sin(np.radians(5.0)) + 1e-9


def test_profile_lookup_zero_order_hold():
    times = np.array([0.0, 10.0, 20.0])
    profile = build_link_profile(
        times,
        range_km=np.array([900.0, 500.0, 900.0]),
        elevation_deg=np.array([20.0, 80.0, 20.0]),
        residual_arcsec=np.zeros(3),
        config=CONFIG,
    )
    assert profile.covers(20.0)
    assert not profile.covers(25.0)
    assert profile.transmittance_at(10.0) == profile.transmittance[1]
    assert profile.transmittance_at(14.0) == profile.transmittance[1]
    assert profile.transmittance_at(9.999) == profile.transmittance[0]
    with pytest.raises(ProfileGap):
        profile.transmittance_at(-1.0)


def test_profile_recombines_to_transmittance():
    times = np.linspace(0.0, 60.0, 61)
    el = np.linspace(10.0, 80.0, 61)
    rng_km = np.linspace(1500.0, 550.0, 61)
    residual = np.linspace(6.0, 1.0, 61)
    profile = build_link_profile(times, rng_km, el, residual, CONFIG)
    recombined = 10.0 ** (
        -(
            profile.geometric_loss_db
            + profile.atmospheric_loss_db
            + profile.pointing_loss_db
            + profile.optics_loss_db
        )
        / 10.0
    )
    assert np.allclose(profile.transmittance, recombined, rtol=1e-9)


def test_apply_channel_thinning_statistics():
    config = SourceConfig(pump_power_mw=0.01)  # 136k pairs/s
    stream = pair_stream(config, 1.0, 2)
    profile = build_link_profile(
        np.array([0.0, 1.0]),
        range_km=np.full(2, 500.0),
        elevation_deg=np.full(2, 90.0),
        residual_arcsec=np.zeros(2),
        config=LinkConfig(),
    )
    t = float(profile.transmittance[0])
    result = channel_window(stream, profile, 9)
    n = len(stream)
    expected = n * t
    assert abs(len(result.survivor_indices) - expected) < 5.0 * np.sqrt(n * t * (1.0 - t))
    again = channel_window(stream, profile, 9)
    assert np.array_equal(result.survivor_indices, again.survivor_indices)


def test_apply_channel_background_statistics():
    config = SourceConfig(pump_power_mw=1e-4)
    stream = pair_stream(config, 2.0, 2)
    rate = 5000.0
    profile = build_link_profile(
        np.array([0.0, 2.0]),
        range_km=np.full(2, 500.0),
        elevation_deg=np.full(2, 90.0),
        residual_arcsec=np.zeros(2),
        config=LinkConfig(sky_background_rate_zenith=rate),
    )
    result = channel_window(stream, profile, 4)
    mean = rate * 2.0
    assert abs(len(result.background_times) - mean) < 5.0 * np.sqrt(mean)
    assert np.all(np.diff(result.background_times) >= 0.0)
    assert result.background_times.min() >= 0.0
    assert result.background_times.max() <= 2.0


def test_apply_channel_requires_coverage():
    stream = pair_stream(SourceConfig(pump_power_mw=1e-4), 10.0)
    profile = build_link_profile(
        np.array([0.0, 5.0]),
        range_km=np.full(2, 500.0),
        elevation_deg=np.full(2, 90.0),
        residual_arcsec=np.zeros(2),
        config=CONFIG,
    )
    with pytest.raises(ProfileGap):
        apply_channel(stream, profile, module_rng(0, MODULE_NAME))


def _profile(times, transmittance=None, background=None) -> LinkProfile:
    """A profile with chosen sample times, transmittance and background."""
    times = np.asarray(times, dtype=float)
    zeros = np.zeros(len(times))
    return LinkProfile(
        times_s=times, elevation_deg=np.full(len(times), 90.0),
        range_km=np.full(len(times), 500.0), geometric_loss_db=zeros,
        atmospheric_loss_db=zeros, pointing_loss_db=zeros, optics_loss_db=zeros,
        transmittance=zeros if transmittance is None
        else np.asarray(transmittance, dtype=float),
        background_rate=zeros if background is None
        else np.asarray(background, dtype=float),
    )


def _segments(profile, span_s):
    """Edges, rates and cumulated rate of the profile's holds over a span."""
    lo, hi = span_s
    edges = np.append(np.clip(profile.times_s, lo, hi), hi)
    rates = profile.background_rate[: len(edges) - 1]
    return edges, rates, np.concatenate([[0.0], np.cumsum(rates * np.diff(edges))])


def reference_background(rng, profile, span_s):
    """Background arrivals one at a time: a running sum of standard
    exponentials in the cumulated rate, until one reaches its total,
    each mapped by its own segment search and clipped into the segment:
    the form _background_block computes a block at a time."""
    edges, rates, cum = _segments(profile, span_s)
    out, u = [], 0.0
    if cum[-1] > 0.0:
        while (u := u + float(rng.standard_exponential())) < cum[-1]:
            k = int(np.searchsorted(cum, u, side="right")) - 1
            out.append(min(max((u - cum[k]) / rates[k] + edges[k], edges[k]),
                           edges[k + 1]))
    return np.array(out)


def draw_background(rng, profile, span_s):
    """Every block of one span's background, as the blocks came."""
    carry, blocks = BackgroundCarry(span_s), []
    while not carry.done:
        blocks.append(channel_link._background_block(rng, profile, carry))
    return blocks


@pytest.mark.parametrize("samples", [
    [0.0, 1.0, 2.5, 4.0],
    [-0.5, 0.0, 0.0, 3.0],  # starts before 0, repeated sample
    [2.0],
])
def test_hold_bounds_match_per_time_search(samples):
    profile = _profile(samples)
    s = profile.times_s
    earliest = s[0] - 1e-9
    queries = np.concatenate([
        s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf),
        [earliest, np.nextafter(earliest, np.inf), s[-1] + 1.0, s[-1] + 1e6],
        np.linspace(earliest, s[-1] + 2.0, 101),
        np.repeat(s[len(s) // 2], 3),
    ])
    t = np.sort(queries[queries >= earliest])
    for times in (t, t[:0], t[-1:]):
        bounds = profile._hold_bounds(times)
        assert bounds[0] == 0 and bounds[-1] == len(times)
        held = np.repeat(np.arange(len(s)), np.diff(bounds))
        assert np.array_equal(held, profile._indices(times))
    too_early = np.array([np.nextafter(earliest, -np.inf), s[0]])
    with pytest.raises(ProfileGap):
        profile._hold_bounds(too_early)
    with pytest.raises(ProfileGap):
        profile._indices(too_early)


@pytest.mark.parametrize("samples,rates,duration", [
    ([0.0, 1.0, 2.0, 3.0], [1e4, 0.0, 5e3, 2e4], 3.5),   # zero-rate segment
    ([0.0, 1.0, 1.0, 2.0], [1e4, 3e4, 2e4, 1e4], 2.0),   # zero-width segments
    ([-2.0, -1.0, 0.5, 1.5], [5e3, 7e3, 1e4, 3e3], 2.0),  # starts before 0
    ([0.0, 1.0, 2.0], [2e4, 1e4, 0.0], 2.5),             # zero-rate last segment
    ([0.0, 1.0], [0.0, 0.0], 1.0),                       # no background
])
def test_background_segments_match_per_arrival_form(samples, rates, duration):
    profile = _profile(samples, background=rates)
    for seed in range(3):
        want = reference_background(np.random.default_rng(seed), profile, (0.0, duration))
        got = np.concatenate(draw_background(np.random.default_rng(seed), profile,
                                             (0.0, duration)))
        assert got.tobytes() == want.tobytes()


class _ScriptedDraws:
    """A generator stand-in whose exponentials are chosen by the test,
    then a spacing no cumulated rate here reaches."""

    def __init__(self, spacings):
        self.spacings = list(spacings)

    def standard_exponential(self, size=None):
        n = 1 if size is None else size
        drawn, self.spacings = self.spacings[:n], self.spacings[n:]
        drawn = np.array(drawn + [1e9] * (n - len(drawn)))
        return drawn[0] if size is None else drawn


def test_background_segments_match_per_arrival_form_on_boundaries():
    # running sums exactly on the cumulative segment starts and one ulp
    # either side, some repeated, with zero-width and zero-rate segments
    profile = _profile([0.0, 1.0, 1.0, 2.0, 3.0], background=[2.0, 5.0, 0.0, 3.0, 0.0])
    span = (0.0, 3.5)
    cum = _segments(profile, span)[2]
    sums = np.concatenate([cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf)])
    sums = np.sort(sums[(sums > 0.0) & (sums < cum[-1])])
    spacings = np.diff(sums, prepend=0.0)
    assert np.array_equal(np.cumsum(spacings), sums)
    want = reference_background(_ScriptedDraws(spacings), profile, span)
    got = np.concatenate(draw_background(_ScriptedDraws(spacings), profile, span))
    assert len(got) == len(sums) and np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()
    assert np.all(np.diff(got) >= 0.0)


@pytest.mark.parametrize("edges,rates", [
    ([0.0, 0.8564016483033118, 1.9109420312818977, 2.0490178631608127,
      2.671603697512742],
     [1616.5313536428532, 11725.628401035023, 39.942473378413176, 390.8121524686562]),
    ([0.0, 0.5670011551510183, 2.6651514910205374],
     [76.95306271172322, 25652.67366099094]),
])
def test_background_clipped_into_its_hold(edges, rates):
    # the double just below the second hold's cumulated end maps, rounded,
    # past that hold's end time (holds found by a search); clipped into
    # its hold it stays ahead of an arrival at the next hold's start, or
    # inside the span when the hold is the last
    span = (0.0, edges[-1])
    profile = _profile(edges[:-1], background=rates)
    edges, rates, cum = _segments(profile, span)
    below = np.nextafter(cum[2], -np.inf)
    assert (below - cum[1]) / rates[1] + edges[1] > edges[2]
    sums = np.array([cum[1], below, cum[2]])
    sums = sums[sums < cum[-1]]
    spacings = np.diff(sums, prepend=0.0)
    assert np.array_equal(np.cumsum(spacings), sums)
    want = reference_background(_ScriptedDraws(spacings), profile, span)
    got = np.concatenate(draw_background(_ScriptedDraws(spacings), profile, span))
    assert got.tobytes() == want.tobytes()
    assert got[1] == edges[2] and np.all(np.diff(got) >= 0.0) and got[-1] <= span[1]


@settings(max_examples=80, deadline=None)
@given(
    gaps=st.lists(st.sampled_from([0.0, 1e-3, 0.25, 1.0, 3.0]), min_size=0, max_size=8),
    start=st.sampled_from([-1.5, -1e-3, 0.0]),
    rates=st.lists(st.sampled_from([0.0, 1.0, 300.0, 2e3]), min_size=9, max_size=9),
    extra=st.sampled_from([0.0, 0.5]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_background_segments_match_per_arrival_form_property(gaps, start, rates,
                                                             extra, seed):
    samples = start + np.concatenate([[0.0], np.cumsum(gaps)])
    duration = max(float(samples[-1]) + extra, 0.5)
    profile = _profile(samples, background=rates[: len(samples)])
    want = reference_background(np.random.default_rng(seed), profile, (0.0, duration))
    got = np.concatenate(draw_background(np.random.default_rng(seed), profile,
                                         (0.0, duration)))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [1, 7, 4096, 1 << 40])
def test_background_blocks_are_one_stream(monkeypatch, block):
    # any block size gives the same arrivals, sorted across the block
    # edges; the blocks hold at most block arrivals, only the last is done
    profile = _profile([-0.5, 0.0, 0.7, 0.7, 1.9, 2.2, 3.0],
                       background=[1e3, 2e3, 0.0, 5e3, 1e3, 0.0, 4e3])
    span = (0.0, 3.3)
    whole = np.concatenate(draw_background(np.random.default_rng(4), profile, span))
    monkeypatch.setattr(channel_link, "_BLOCK_ARRIVALS", block)
    blocks = draw_background(np.random.default_rng(4), profile, span)
    assert all(0 < len(b) <= block for b in blocks[:-1]) and len(blocks[-1]) <= block
    joined = np.concatenate(blocks)
    assert joined.tobytes() == whole.tobytes()
    assert len(whole) > 5000 and np.all(np.diff(joined) >= 0.0)
    assert 0.0 <= joined[0] and joined[-1] <= span[1]


def test_background_count_is_poisson():
    # pulls of the count against Poisson(integral of the rate) over seeds
    profile = _profile([-0.2, 0.0, 0.3, 0.3, 0.5, 0.8],
                       background=[9e9, 400.0, 9e9, 1500.0, 0.0, 250.0])
    span = (0.0, 1.1)
    mean = 0.3 * 400.0 + 0.2 * 1500.0 + 0.3 * 250.0
    pulls = np.array([
        (sum(map(len, draw_background(np.random.default_rng(s), profile, span))) - mean)
        / np.sqrt(mean) for s in range(300)])
    assert abs(pulls.mean()) < 5.0 / np.sqrt(len(pulls))
    assert 0.8 < pulls.std() < 1.2


def test_background_segment_counts_follow_rate_times_width():
    # chi-square of the counts per hold against rate * width; a hold of
    # zero rate or zero width gets none, even where the rate is huge
    samples = np.array([0.0, 0.4, 0.4, 1.0, 1.5, 2.5, 2.6, 3.0])
    rates = np.array([5e4, 1e12, 2e4, 0.0, 8e4, 1e4, 3e4, 7e4])
    profile = _profile(samples, background=rates)
    span = (0.0, 3.2)
    got = np.concatenate(draw_background(np.random.default_rng(11), profile, span))
    edges = np.append(samples, span[1])
    widths = np.diff(edges)
    positive = rates * widths > 0.0
    counts = np.histogram(got, bins=edges[np.r_[True, widths > 0.0]])[0]
    expected = (rates * widths)[widths > 0.0]
    assert np.all(counts[expected == 0.0] == 0)
    assert not np.any((got > 1.0) & (got < 1.5))   # the zero-rate hold, open
    assert np.count_nonzero(got == 0.4) <= 1      # the zero-width hold's time
    live = expected > 0.0
    stat = float(np.sum((counts[live] - expected[live]) ** 2 / expected[live]))
    assert chi2.sf(stat, int(np.count_nonzero(positive))) > 1e-4


def test_background_sorted_across_holds_an_ulp_apart():
    # holds one ulp wide at a rate that still puts arrivals in them: each
    # arrival is clipped into its hold, so rounding cannot reorder them
    t = [1.0]
    for _ in range(4):
        t.append(float(np.nextafter(t[-1], np.inf)))
    samples = np.array([0.0, *t, 2.0])
    rates = np.array([1e3, 5e16, 2e17, 3e17, 9e16, 1e3, 1e3])
    profile = _profile(samples, background=rates)
    for seed in range(20):
        got = np.concatenate(draw_background(np.random.default_rng(seed), profile,
                                             (0.0, 2.5)))
        assert np.all(np.diff(got) >= 0.0)
        assert np.count_nonzero((got >= t[0]) & (got <= t[-1])) > 10


def test_apply_channel_matches_per_pair_thinning():
    # 408k pairs: several draw chunks, and holds at 0 and 1
    stream = pair_stream(SourceConfig(pump_power_mw=0.01), 3.0, 5)
    profile = _profile([-0.5, 0.0, 0.7, 0.7, 1.9, 2.2, 3.0],
                       transmittance=[0.9, 0.3, 0.05, 1.0, 0.0, 0.6, 0.2],
                       background=[1e3, 2e3, 0.0, 5e3, 1e3, 0.0, 4e3])
    rng = module_rng(8, MODULE_NAME)
    p = profile.transmittance_at(stream.emission_times)
    want = np.flatnonzero(rng.random(len(stream)) < p)
    want_background = reference_background(rng, profile, (0.0, stream.duration_s))
    got = channel_window(stream, profile, 8)
    assert np.array_equal(got.survivor_indices, want)
    assert got.survivor_indices.dtype == want.dtype
    assert got.background_times.tobytes() == want_background.tobytes()
