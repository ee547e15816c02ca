"""Downlink transmittance decomposition and background model.

Four multiplicative terms: far-field geometric capture, elevation-
scaled atmospheric extinction, pointing loss of a Gaussian spot
against the quantum-channel field stop, and a static optics
efficiency. Background counts scale with the same airmass factor as
the atmospheric loss. apply_channel thins a pair stream photon by
photon at the time-local transmittance and draws the background
arrivals a receiver registers.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import LowElevation, NonpositiveElevation, OutOfRange, ProfileGap
from .photon_source import PairEventStream
from .seeding import NORMAL_BOUND, _add_normal, _uniform_below

MODULE_NAME = "channel_link"

MIN_AIRMASS_ELEVATION_DEG = 5.0
_QUAD_NODES, _QUAD_WEIGHTS = leggauss(64)

# Cephes i0.c: Chebyshev coefficients of exp(-x) I0(x) on [0, 8] in
# x/2 - 2, and of sqrt(x) exp(-x) I0(x) on (8, inf) in 32/x - 2.
_I0E_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17,
    -2.43127984654795469359E-16, 1.71539128555513303061E-15,
    -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12,
    -1.72682629144155570723E-11, 9.67580903537323691224E-11,
    -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8,
    -2.67079385394061173391E-7, 1.11738753912010371815E-6,
    -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4,
    -5.76375574538582365885E-4, 1.63947561694133579842E-3,
    -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2,
    -9.49010970480476444210E-2, 1.71620901522208775349E-1,
    -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0E_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18,
    4.46562142029675999901E-17, 3.46122286769746109310E-17,
    -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15,
    -9.55484669882830764870E-15, -4.15056934728722208663E-14,
    1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12,
    -1.32158118404477131188E-11, -3.14991652796324136454E-11,
    1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8,
    2.04891858946906374183E-7, 2.89137052083475648297E-6,
    6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)


def _chbevl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """Chebyshev series at x, in Cephes chbevl's order of operations."""
    b0, b1 = coefs[0], 0.0
    for c in coefs[1:]:
        b0, b1, b2 = x * b0 - b1 + c, b0, b1
    return 0.5 * (b0 - b2)


def _i0e(x: np.ndarray) -> np.ndarray:
    """exp(-|x|) I0(x), the exponentially scaled modified Bessel function.

    Cephes' i0e, operation for operation, so it returns the same bits as
    scipy.special.i0e without importing scipy.
    """
    x = np.abs(x)
    out = np.empty_like(x)
    near = x <= 8.0
    out[near] = _chbevl(x[near] / 2.0 - 2.0, _I0E_A)
    far = x[~near]
    out[~near] = _chbevl(32.0 / far - 2.0, _I0E_B) / np.sqrt(far)
    return out


@dataclass(frozen=True)
class LinkConfig:
    """Static channel parameters."""

    tx_divergence_rad: float = 20e-6       # full angle at 1/e^2
    rx_aperture_diameter_m: float = 0.6
    rx_obstruction_fraction: float = 0.0   # central obstruction area fraction
    zenith_atmospheric_loss_db: float = 1.0
    optics_efficiency: float = 0.5
    qfov_arcsec: float = 15.0
    spot_radius_arcsec: float | None = None  # default: qfov/2
    stop_radius_arcsec: float | None = None  # default: qfov/2
    sky_background_rate_zenith: float = 0.0  # counts/s into the stop at zenith

    def __post_init__(self):
        if self.tx_divergence_rad <= 0.0 or self.rx_aperture_diameter_m <= 0.0:
            raise OutOfRange("divergence and aperture must be positive")
        if not 0.0 <= self.rx_obstruction_fraction < 1.0:
            raise OutOfRange(
                f"obstruction fraction {self.rx_obstruction_fraction} outside [0, 1)"
            )
        if self.zenith_atmospheric_loss_db < 0.0:
            raise OutOfRange("zenith atmospheric loss must be nonnegative")
        if not 0.0 < self.optics_efficiency <= 1.0:
            raise OutOfRange(f"optics efficiency {self.optics_efficiency} outside (0, 1]")
        if self.qfov_arcsec <= 0.0:
            raise OutOfRange("qfov must be positive")
        for radius in (self.spot_radius_arcsec, self.stop_radius_arcsec):
            if radius is not None and not radius > 0.0:
                raise OutOfRange("spot and stop radii must be positive when set")
        if self.sky_background_rate_zenith < 0.0:
            raise OutOfRange("background rate must be nonnegative")

    @property
    def spot_radius(self) -> float:
        return self.spot_radius_arcsec if self.spot_radius_arcsec is not None \
            else self.qfov_arcsec / 2.0

    @property
    def stop_radius(self) -> float:
        return self.stop_radius_arcsec if self.stop_radius_arcsec is not None \
            else self.qfov_arcsec / 2.0


def _db(transmittance):
    return -10.0 * np.log10(transmittance)


def geometric_transmittance(range_km, config: LinkConfig):
    """Captured power fraction of the diffraction-spread beam, capped at 1."""
    rng_km = np.asarray(range_km, dtype=float)
    if np.any(rng_km <= 0.0):
        raise OutOfRange("range must be positive")
    beam_radius_m = rng_km * 1e3 * config.tx_divergence_rad / 2.0
    aperture_radius_m = config.rx_aperture_diameter_m / 2.0
    effective_area = (1.0 - config.rx_obstruction_fraction) * aperture_radius_m**2
    captured = np.minimum(1.0, effective_area / beam_radius_m**2)
    return captured if captured.ndim else float(captured)


def _airmass(elevation_deg) -> np.ndarray:
    """Flat-Earth airmass, held constant below the 5 deg validity floor."""
    el = np.asarray(elevation_deg, dtype=float)
    if np.any(el <= 0.0):
        raise NonpositiveElevation("elevation must be positive")
    if np.any(el < MIN_AIRMASS_ELEVATION_DEG):
        warnings.warn(
            f"elevation below {MIN_AIRMASS_ELEVATION_DEG} deg; airmass held at the "
            f"{MIN_AIRMASS_ELEVATION_DEG} deg value",
            LowElevation,
            stacklevel=3,
        )
    clamped = np.maximum(el, MIN_AIRMASS_ELEVATION_DEG)
    return 1.0 / np.sin(np.radians(clamped))


def atmospheric_loss(elevation_deg, config: LinkConfig):
    """Zenith extinction scaled by airmass, in dB."""
    loss = config.zenith_atmospheric_loss_db * _airmass(elevation_deg)
    return loss if loss.ndim else float(loss)


def pointing_transmittance(residual_arcsec, config: LinkConfig):
    """Fraction of a displaced Gaussian spot passing the field stop.

    The 2-D integral over the stop reduces to a radial quadrature
    using the exponentially scaled Bessel function exp(-x) I0(x)
    (_i0e), which stays finite for any displacement. Fixed 64-node
    Gauss-Legendre keeps the absolute error well below 1e-4 for any
    residual.
    """
    d = np.atleast_1d(np.asarray(residual_arcsec, dtype=float))
    if np.any(d < 0.0):
        raise OutOfRange("residual error must be nonnegative")
    w = config.spot_radius
    stop = config.stop_radius
    # r-grid on [0, stop], shared across all displacements
    r = 0.5 * stop * (_QUAD_NODES + 1.0)
    wts = 0.5 * stop * _QUAD_WEIGHTS
    rr = r[np.newaxis, :]
    dd = d[:, np.newaxis]
    integrand = (4.0 * rr / w**2) * np.exp(-2.0 * (rr - dd) ** 2 / w**2) \
        * _i0e(4.0 * rr * dd / w**2)
    result = np.clip(integrand @ wts, 0.0, 1.0)
    return result if np.ndim(residual_arcsec) else float(result[0])


def background_rate(elevation_deg, config: LinkConfig):
    """Sky background into the stop, scaled by the same airmass factor."""
    rate = config.sky_background_rate_zenith * _airmass(elevation_deg)
    return rate if rate.ndim else float(rate)


@dataclass(frozen=True)
class LinkProfile:
    """Time-indexed transmittance decomposition over a pass.

    Arrays share one index; values hold from each sample until the
    next (zero-order hold on lookup).
    """

    times_s: np.ndarray
    elevation_deg: np.ndarray
    range_km: np.ndarray
    geometric_loss_db: np.ndarray
    atmospheric_loss_db: np.ndarray
    pointing_loss_db: np.ndarray
    optics_loss_db: np.ndarray
    transmittance: np.ndarray
    background_rate: np.ndarray

    def __post_init__(self):
        if len(self.times_s) < 1:
            raise ProfileGap("empty link profile")

    def _check_start(self, t_min: float) -> None:
        lo = self.times_s[0]
        if t_min < lo - 1e-9:
            raise ProfileGap(f"time {t_min:.3f} s before profile start {lo:.3f} s")

    def _indices(self, t_s: np.ndarray) -> np.ndarray:
        t = np.asarray(t_s, dtype=float)
        if t.size:
            self._check_start(t.min())
        return np.clip(np.searchsorted(self.times_s, t, side="right") - 1, 0, None)

    def _hold_bounds(self, t_sorted: np.ndarray) -> np.ndarray:
        """Row bounds of each sample's hold over sorted times.

        Sample k holds over t_sorted[bounds[k]:bounds[k + 1]], the rows
        _indices maps to k: one search of the few sample times into the
        sorted times instead of one search per time.
        """
        if len(t_sorted):
            self._check_start(t_sorted[0])
        inner = np.searchsorted(t_sorted, self.times_s[1:], side="left")
        return np.concatenate(([0], inner, [len(t_sorted)]))

    def covers(self, duration_s: float) -> bool:
        return self.times_s[0] <= 0.0 and self.times_s[-1] >= duration_s - 1e-9

    def transmittance_at(self, t_s) -> np.ndarray:
        return self.transmittance[self._indices(t_s)]


def build_link_profile(
    times_s: np.ndarray,
    range_km: np.ndarray,
    elevation_deg: np.ndarray,
    residual_arcsec: np.ndarray,
    config: LinkConfig,
) -> LinkProfile:
    """Evaluate the full decomposition on arrays of pass geometry."""
    times = np.asarray(times_s, dtype=float)
    geo_t = np.asarray(geometric_transmittance(range_km, config))
    atm_db = np.asarray(atmospheric_loss(elevation_deg, config))
    pnt_t = np.asarray(pointing_transmittance(residual_arcsec, config))
    optics_db = _db(config.optics_efficiency)
    total = geo_t * 10.0 ** (-atm_db / 10.0) * pnt_t * config.optics_efficiency
    return LinkProfile(
        times_s=times,
        elevation_deg=np.asarray(elevation_deg, dtype=float),
        range_km=np.asarray(range_km, dtype=float),
        geometric_loss_db=_db(geo_t),
        atmospheric_loss_db=atm_db,
        pointing_loss_db=_db(pnt_t),
        optics_loss_db=np.full_like(geo_t, optics_db),
        transmittance=total,
        background_rate=np.asarray(background_rate(elevation_deg, config)),
    )


@dataclass(frozen=True)
class ChannelResult:
    """Signal photons surviving the channel, plus injected background."""

    survivor_indices: np.ndarray   # indices into the source stream
    background_times: np.ndarray   # sorted, arrival times on the window's timeline


# Background arrivals per block: bounds the ground arm's working set,
# whatever the sky rate and the span. The arrivals are drawn as
# registered, so each one is detected: a block costs about 32 B per
# arrival while it is detected (about 2 MB here) and each block a fixed
# 120-190 us in apply_detector (about 57 blocks on 1e6/s of sky at a
# detector efficiency of 0.5 over a 7.4 s gate).
_BLOCK_ARRIVALS = 1 << 16


@dataclass
class BackgroundCarry:
    """Where one span's background arrivals stand between blocks.

    span_s is the (start, end) the arrivals cover. efficiency and
    jitter_rms_s are the receiver's: the arrivals are drawn as its
    detector registers them, thinned and jittered (1 and 0 draw them as
    they reach it). A jittered draw needs edge_rng, the stream of the
    arrivals near the rate steps (_edge_arrivals). reached is the
    cumulated rate of the last arrival drawn (0 before the first), and
    done is set by the block that reaches the span's total. edge holds
    the arrivals near the rate steps that no block has returned yet,
    None before the first block.
    """

    span_s: tuple[float, float]
    efficiency: float = 1.0
    jitter_rms_s: float = 0.0
    edge_rng: np.random.Generator | None = None
    reached: float = 0.0
    done: bool = False
    edge: np.ndarray | None = None

    def __post_init__(self):
        if self.jitter_rms_s > 0.0 and self.edge_rng is None:
            raise ValueError("a jittered background needs edge_rng")


def _zones(edges: np.ndarray, half_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the closed intervals within half_width of an
    edge, the overlapping ones joined, in time order."""
    unique = np.unique(edges)
    starts, ends = unique - half_width, unique + half_width
    first = np.r_[True, starts[1:] > ends[:-1]]
    return starts[first], ends[np.r_[first[1:], True]]


def _edge_arrivals(rng: np.random.Generator, edges: np.ndarray, rates: np.ndarray,
                   jitter_rms_s: float) -> np.ndarray:
    """The jittered arrivals that land within NORMAL_BOUND * jitter_rms_s of
    an edge (_zones), sorted. rates[k] holds on [edges[k], edges[k + 1]].

    The jitter is clipped at NORMAL_BOUND standard deviations, so only
    arrivals from within that reach of a zone can land in it. Those
    are drawn for each zone, a Poisson count and uniform times on each
    hold its source overlaps, jittered like the detector's arrivals and
    kept if they land in that zone: the zones are independent of each
    other, and rng of the main draw.
    """
    reach = NORMAL_BOUND * jitter_rms_s
    starts, ends = _zones(edges, reach)
    src_lo = np.maximum(starts - reach, edges[0])
    src_hi = np.minimum(ends + reach, edges[-1])
    # each zone's source overlaps holds first to first + n - 1
    first = np.searchsorted(edges, src_lo, side="right") - 1
    n = np.searchsorted(edges, src_hi, side="left") - first
    zone = np.repeat(np.arange(len(starts)), n)
    hold = first[zone] + np.arange(len(zone)) - np.repeat(np.cumsum(n) - n, n)
    left = np.maximum(src_lo[zone], edges[hold])
    width = np.clip(np.minimum(src_hi[zone], edges[hold + 1]) - left, 0.0, None)
    counts = rng.poisson(rates[hold] * width)
    times = np.repeat(left, counts)
    times += np.repeat(width, counts) * rng.random(len(times))
    _add_normal(rng, times, jitter_rms_s)
    zone = np.repeat(zone, counts)
    return np.sort(times[(starts[zone] <= times) & (times <= ends[zone])])


def _background_block(rng: np.random.Generator, profile: LinkProfile,
                      carry: BackgroundCarry) -> np.ndarray:
    """The span's next background arrivals as the receiver registers them,
    a block of at most _BLOCK_ARRIVALS drawn.

    Kept at the detector efficiency and jittered, a Poisson process at
    the profile's background rate is a Poisson process at efficiency
    times the rate, smoothed by the jitter (the colouring and
    displacement theorems). The rate is constant between samples, so
    the smoothing shows only within the jitter's reach of a sample
    inside the span or of the span's ends. So the main arrivals are
    drawn unjittered at efficiency times the rate, and those in such a
    zone are dropped; the first block draws what lands in the zones
    from the carry's edge_rng (_edge_arrivals), and each block merges in
    those up to its last main time drawn.

    In the cumulated rate L(t), an integral of the stepwise-constant
    rate, the main arrivals are a unit-rate Poisson process: running
    sums of standard exponentials, carried across block edges, up to L's
    total over the span. Each maps back through L's piecewise-linear
    inverse, one segment at a time with that segment's scalars, clipped
    into its segment, so the times are sorted across segments and blocks.
    """
    lo, hi = carry.span_s
    edges = np.append(np.clip(profile.times_s, lo, hi), hi)
    widths = np.diff(edges)
    rates = carry.efficiency * profile.background_rate[: len(widths)]
    cum = np.concatenate([[0.0], np.cumsum(rates * widths)])
    total = cum[-1]
    if not total > 0.0:
        carry.done = True
        return np.empty(0)
    reach = NORMAL_BOUND * carry.jitter_rms_s
    if carry.edge is None:
        carry.edge = _edge_arrivals(carry.edge_rng, edges, rates, carry.jitter_rms_s) \
            if reach > 0.0 else np.empty(0)
    # draw about what is left of the span when that is under a block
    left = total - carry.reached
    u = rng.standard_exponential(
        min(_BLOCK_ARRIVALS, int(left + 6.0 * math.sqrt(left)) + 1))
    u[0] += carry.reached
    np.cumsum(u, out=u)
    inside = int(np.searchsorted(u, total, side="left"))
    carry.done = inside < len(u)
    u = u[:inside]
    if len(u):
        carry.reached = float(u[-1])
        bounds = np.concatenate(
            ([0], np.searchsorted(u, cum[1:-1], side="left"), [len(u)]))
        for k in np.flatnonzero(bounds[1:] > bounds[:-1]):
            seg = u[bounds[k]:bounds[k + 1]]
            seg -= cum[k]
            seg /= rates[k]
            seg += edges[k]
            np.clip(seg, edges[k], edges[k + 1], out=seg)
    if not reach > 0.0:
        return u
    # a kept arrival lies outside every closed zone and an edge arrival
    # inside one, so no two are equal and the merge does not depend on
    # where the blocks end
    upto = len(carry.edge) if carry.done else \
        int(np.searchsorted(carry.edge, u[-1], side="right"))
    edge, carry.edge = carry.edge[:upto], carry.edge[upto:]
    starts, ends = _zones(edges, reach)
    first = np.searchsorted(u, starts, side="left")
    stop = np.searchsorted(u, ends, side="right")
    hit = np.flatnonzero(stop > first)
    if len(hit):
        u = np.delete(u, np.concatenate([np.arange(first[k], stop[k]) for k in hit]))
    return np.insert(u, np.searchsorted(u, edge), edge) if len(edge) else u


def apply_channel(
    stream: PairEventStream, profile: LinkProfile, rng: np.random.Generator,
    background: BackgroundCarry | None = None,
) -> ChannelResult:
    """Thin the pair stream at the time-local transmittance.

    Each downlink photon survives independently with the profile's
    transmittance at its emission time, one uniform per pair from rng.
    With a BackgroundCarry, rng then draws the next block of background
    arrivals over its span, an inhomogeneous Poisson process at the
    profile's background rate, as the carry's receiver registers it
    (see _background_block), and carry.done is set by the call that
    returns the last. A window passes one generator to a call per block
    of pairs, and the background its own generator, to a call per
    block of background with an empty stream: every draw is sequential
    in its stream, so the survivors and the background do not depend on
    the block sizes.
    """
    if not profile.covers(stream.duration_s):
        raise ProfileGap(
            f"profile [{profile.times_s[0]:.3f}, {profile.times_s[-1]:.3f}] s does not "
            f"cover stream duration {stream.duration_s:.3f} s"
        )
    survivors = np.flatnonzero(_uniform_below(
        rng, profile.transmittance, profile._hold_bounds(stream.emission_times)))
    arrivals = np.empty(0) if background is None \
        else _background_block(rng, profile, background)
    return ChannelResult(survivor_indices=survivors, background_times=arrivals)
