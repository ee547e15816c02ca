"""Pass prediction and tracking kinematics over a ground site.

A pass is the interval during which the satellite's elevation stays at
or above the configured minimum. Crossings are bracketed on a coarse
grid and refined by bisection to 0.1 s; every search evaluates all of
its candidate instants in one array call, the coarse grid in blocks of
samples. The coarse grid is screened first: only every SCREEN_STRIDE-th
sample is propagated outright, and a bound on the satellite's
Earth-fixed speed proves most of the others below the minimum without
SGP4, so only the samples near a pass are propagated. The screen
changes which instants are propagated, not any value: the passes are
those of the search that propagates every coarse sample, bit for bit.
Instants are whole microseconds after a reference datetime,
converted to Julian dates as arrays (julian_dates_us): a datetime is
built only for each returned AOS, TCA and LOS. The rate table
(max_angular_rates) propagates the joined sample grids of all passes
in the same blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from ..errors import ProfileGap
from .frames import (GroundSite, _look_angles, _sez_vector, eci_to_topocentric,
                     site_elevation_deg)
from .sgp4 import Sgp4Propagator, julian_dates_us
from .tle import TwoLineElement

COARSE_STEP_S = 30.0
# The pass search propagates every SCREEN_STRIDE-th coarse sample (240 s
# apart) and bounds the samples between them.
SCREEN_STRIDE = 8
# Bound on a near-Earth satellite's speed in the Earth-fixed frame, where
# the site stands still, in km/s. By vis-viva a bound orbit moves slower
# than the escape speed sqrt(2 mu / r), at most 11.18 km/s above the
# surface. SGP4's near-Earth branch takes periods under 225 min, so the
# semi-major axis stays under about 12,260 km and the apogee under about
# 24,500 km; Earth rotation adds at most omega_E * r < 1.79 km/s there.
# The sum, 12.97 km/s, is rounded up.
MAX_EARTH_FIXED_SPEED_KMS = 14.0
BISECTION_TOL_S = 0.1
MAX_SEARCH_DAYS = 7.0


@dataclass(frozen=True)
class PassWindow:
    """One contiguous interval above the minimum elevation."""

    aos: datetime             # acquisition of signal
    los: datetime             # loss of signal
    tca: datetime             # closest approach (culmination)
    max_elevation_deg: float
    min_elevation_deg: float  # threshold the window was computed against

    def __post_init__(self):
        if self.aos >= self.los:
            raise ValueError("aos must precede los")

    @property
    def duration_s(self) -> float:
        return (self.los - self.aos).total_seconds()


@dataclass(frozen=True)
class PassProfile:
    """Uniformly sampled geometry for one pass (arrays share one index)."""

    jd: np.ndarray               # Julian date of each sample
    step_s: float
    times_s: np.ndarray          # seconds since AOS
    elevation_deg: np.ndarray
    range_km: np.ndarray
    angular_rate_dps: np.ndarray
    r_teme_km: np.ndarray        # (n, 3)
    v_teme_kms: np.ndarray       # (n, 3)
    site: GroundSite

    @property
    def duration_s(self) -> float:
        return float(self.times_s[-1])

    def _weights(self, t_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = np.atleast_1d(np.asarray(t_s, dtype=float))
        if t.size and (t.min() < self.times_s[0] - 1e-9 or t.max() > self.times_s[-1] + 1e-9):
            raise ProfileGap(
                f"time outside sampled pass [{self.times_s[0]:.1f}, {self.times_s[-1]:.1f}] s"
            )
        idx = np.clip(np.searchsorted(self.times_s, t, side="right") - 1, 0, len(self.times_s) - 2)
        frac = (t - self.times_s[idx]) / (self.times_s[idx + 1] - self.times_s[idx])
        return idx, np.clip(frac, 0.0, 1.0)

    def elevation_at(self, t_s: np.ndarray) -> np.ndarray:
        idx, frac = self._weights(t_s)
        e = self.elevation_deg
        return e[idx] * (1.0 - frac) + e[idx + 1] * frac


# Samples per propagation of the pass search's coarse grid and the rate
# table's joined grid: bounds their SGP4 temporaries, which over whole
# grids cost thousands of page faults per search as the heap grew and
# was trimmed again.
_GRID_BLOCK = 1 << 11


def _in_blocks(fn, offsets_us: np.ndarray) -> np.ndarray:
    """fn of the offsets, _GRID_BLOCK at a time; fn is elementwise, so
    the values are those of one call on every offset."""
    return np.concatenate([fn(offsets_us[k:k + _GRID_BLOCK])
                           for k in range(0, len(offsets_us), _GRID_BLOCK)])


_US_PER_S = 1_000_000
_TOL_US = int(BISECTION_TOL_S * _US_PER_S)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _seconds_to_us(seconds: np.ndarray) -> np.ndarray:
    """Whole microseconds of timedelta(seconds=s) for s >= 0, rounded as it rounds.

    timedelta takes the integer seconds exactly, adds the truncated
    microseconds of the fraction, and rounds what is left half to even.
    """
    whole = np.trunc(seconds)
    frac_us = (seconds - whole) * 1e6
    us = np.trunc(frac_us)
    left = frac_us - us
    total = whole.astype(np.int64) * _US_PER_S + us.astype(np.int64)
    return total + ((left > 0.5) | ((left == 0.5) & (total % 2 == 1)))


def _half_us(span_us: np.ndarray) -> np.ndarray:
    """timedelta(microseconds=span) / 2 in microseconds (round half to even)."""
    half = span_us // 2
    return half + ((span_us % 2 == 1) & (half % 2 == 1))


def _bisect_crossings(elevation_us, lo: np.ndarray, hi: np.ndarray,
                      min_elevation: float, rising: np.ndarray) -> np.ndarray:
    """Refine elevation-threshold crossings bracketed by [lo, hi], all in lockstep."""
    lo, hi = lo.copy(), hi.copy()
    while (active := np.flatnonzero(hi - lo > _TOL_US)).size:
        mid = lo[active] + _half_us(hi[active] - lo[active])
        to_hi = (elevation_us(mid) >= min_elevation) == rising[active]
        hi[active[to_hi]] = mid[to_hi]
        lo[active[~to_hi]] = mid[~to_hi]
    return lo + _half_us(hi - lo)


def _refine_peaks(elevation_us, lo: np.ndarray, hi: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maxima of elevation on each [lo, hi] to 0.1 s, in lockstep."""
    a, b = lo.copy(), hi.copy()
    while (active := np.flatnonzero(b - a > _TOL_US)).size:
        a_act = a[active]
        span = (b[active] - a_act) / 1e6
        c = a_act + _seconds_to_us(span * (1.0 - _INVPHI))
        d = a_act + _seconds_to_us(span * _INVPHI)
        el_c, el_d = np.split(elevation_us(np.concatenate([c, d])), 2)
        left = el_c >= el_d
        b[active[left]] = d[left]
        a[active[~left]] = c[~left]
    mid = a + _half_us(b - a)
    return mid, elevation_us(mid)


def _screened_above(look_us, grid: np.ndarray, min_elevation_deg: float) -> np.ndarray:
    """Which coarse samples sit at or above min_elevation_deg.

    look_us (elevation in deg and range in km, stacked per offset) runs
    on every SCREEN_STRIDE-th sample and the last: the sparse grid. From
    a sparse sample a the line of sight turns no faster than V/|rho| and
    |rho| shrinks no faster than V (MAX_EARTH_FIXED_SPEED_KMS), so
    e(t) <= e(a) - ln(1 - V |t - a| / |rho(a)|) in radians, unbounded once
    V |t - a| >= |rho(a)|. That bound reaches a threshold h above e(a)
    only from |t - a| >= |rho(a)| (1 - exp(e(a) - h)) / V on: a's reach.
    look_us runs again on the samples between two sparse neighbours that
    lie beyond the reach of both, with h a microdegree under the minimum;
    every other sample is below it.
    """
    n = grid.size
    sparse = np.append(np.arange(0, n - 1, SCREEN_STRIDE), n - 1)
    elevation, range_km = _in_blocks(look_us, grid[sparse]).T
    above = np.zeros(n, dtype=bool)
    above[sparse] = elevation >= min_elevation_deg
    shortfall = np.radians(np.maximum(min_elevation_deg - 1e-6 - elevation, 0.0))
    reach_us = np.ceil(range_km * -np.expm1(-shortfall)
                       * (_US_PER_S / MAX_EARTH_FIXED_SPEED_KMS)).astype(np.int64)
    # per gap between sparse neighbours, the run of samples [first, stop)
    # beyond both reaches
    first = np.maximum(np.searchsorted(grid, grid[sparse[:-1]] + reach_us[:-1]),
                       sparse[:-1] + 1)
    stop = np.minimum(np.searchsorted(grid, grid[sparse[1:]] - reach_us[1:], side="right"),
                      sparse[1:])
    counts = np.maximum(stop - first, 0)
    if counts.any():
        runs = np.repeat(first - np.cumsum(counts) + counts, counts)
        candidates = runs + np.arange(runs.size)
        above[candidates] = _in_blocks(look_us, grid[candidates])[:, 0] >= min_elevation_deg
    return above


def predict_passes(
    tle: TwoLineElement,
    site: GroundSite,
    start: datetime,
    end: datetime,
    min_elevation_deg: float = 10.0,
) -> list[PassWindow]:
    """All passes above min_elevation in [start, end], sorted by AOS.

    An empty list is a normal result. AOS/LOS are the threshold
    crossings, refined by bisection to 0.1 s; passes already in
    progress at the window edges are clamped to the edge. Times are
    held as whole microseconds after start, so every search step lands
    on the instant the equivalent datetime arithmetic would give.

    The coarse grid is screened (_screened_above): SGP4 runs on every
    SCREEN_STRIDE-th sample, and on the others only where a bound on the
    satellite's Earth-fixed speed lets it reach the minimum, about 7 % of
    a week's grid for a LEO satellite at a 10 deg mask. Every other
    sample is provably below it, so AOS, TCA, LOS and the peak elevation
    are those of propagating every sample.
    """
    if end <= start:
        raise ValueError("search window end must follow start")
    if (end - start).total_seconds() > MAX_SEARCH_DAYS * 86400.0:
        raise ValueError(f"search window longer than {MAX_SEARCH_DAYS:.0f} days")

    prop = Sgp4Propagator(tle)

    def stamps(offsets_us: np.ndarray) -> list[datetime]:
        return [start + timedelta(microseconds=int(k)) for k in offsets_us]

    def elevation_us(offsets_us: np.ndarray) -> np.ndarray:
        jd = julian_dates_us(start, offsets_us)
        r, _ = prop.propagate(jd)
        return site_elevation_deg(r, site, jd)

    def look_us(offsets_us: np.ndarray) -> np.ndarray:
        jd = julian_dates_us(start, offsets_us)
        r, _ = prop.propagate(jd)
        _, elevation, range_km = _look_angles(_sez_vector(r, site, jd))
        return np.stack([elevation, range_km], axis=-1)

    end_us = (end - start) // timedelta(microseconds=1)
    n_steps = int((end - start).total_seconds() / COARSE_STEP_S) + 1
    grid = _seconds_to_us(np.arange(n_steps) * COARSE_STEP_S)
    if grid[-1] < end_us:
        grid = np.append(grid, end_us)
    above = _screened_above(look_us, grid, min_elevation_deg)

    # runs of coarse samples above the threshold
    edges = np.diff(np.concatenate([[0], above.astype(np.int8), [0]]))
    first = np.flatnonzero(edges == 1)
    last = np.flatnonzero(edges == -1) - 1

    # every AOS and LOS bracket, refined together; edge runs clamp
    rise = first > 0
    fall = last < len(grid) - 1
    lo = np.concatenate([grid[first[rise] - 1], grid[last[fall]]])
    hi = np.concatenate([grid[first[rise]], grid[last[fall] + 1]])
    rising = np.arange(lo.size) < rise.sum()
    crossings = _bisect_crossings(elevation_us, lo, hi, min_elevation_deg, rising)
    aos = grid[first].copy()
    los = grid[last].copy()
    aos[rise] = crossings[rising]
    los[fall] = crossings[~rising]

    keep = los > aos
    aos, los = aos[keep], los[keep]
    tca, max_el = _refine_peaks(elevation_us, aos, los)
    return [
        PassWindow(
            aos=t_aos,
            los=t_los,
            tca=t_tca,
            max_elevation_deg=float(el),
            min_elevation_deg=min_elevation_deg,
        )
        for t_aos, t_los, t_tca, el in zip(stamps(aos), stamps(los), stamps(tca), max_el)
    ]


def _sample_offsets_us(window: PassWindow, step_s: float) -> tuple[np.ndarray, np.ndarray]:
    """The sample_pass grid: seconds since AOS and whole microseconds after AOS."""
    n = int(math.ceil(window.duration_s / step_s)) + 1
    times = np.minimum(np.arange(n) * step_s, window.duration_s)
    return times, _seconds_to_us(times)


def sample_pass(
    tle: TwoLineElement, site: GroundSite, window: PassWindow, step_s: float = 1.0
) -> PassProfile:
    """Sample pass geometry on a uniform grid from AOS to LOS."""
    times, offsets_us = _sample_offsets_us(window, step_s)
    jd = julian_dates_us(window.aos, offsets_us)
    r, v = Sgp4Propagator(tle).propagate(jd)
    state = eci_to_topocentric(r, v, site, jd)
    return PassProfile(
        jd=jd,
        step_s=step_s,
        times_s=times,
        elevation_deg=state.elevation_deg,
        range_km=state.range_km,
        angular_rate_dps=state.angular_rate_dps,
        r_teme_km=r,
        v_teme_kms=v,
        site=site,
    )


def max_angular_rates(
    windows: list[PassWindow], tle: TwoLineElement, site: GroundSite, step_s: float = 1.0
) -> np.ndarray:
    """Peak sky-plane angular rate of each pass, on its sample_pass grid.

    Every pass's grid joins one array of whole microseconds after the
    first AOS, propagated in blocks of samples that ignore the pass
    boundaries.
    """
    if not windows:
        return np.empty(0)
    first = windows[0].aos
    grids = [(w.aos - first) // timedelta(microseconds=1) + _sample_offsets_us(w, step_s)[1]
             for w in windows]
    starts = np.cumsum([0] + [g.size for g in grids[:-1]])
    prop = Sgp4Propagator(tle)

    def rates(offsets_us: np.ndarray) -> np.ndarray:
        jd = julian_dates_us(first, offsets_us)
        return eci_to_topocentric(*prop.propagate(jd), site, jd).angular_rate_dps

    return np.maximum.reduceat(_in_blocks(rates, np.concatenate(grids)), starts)


def max_angular_rate(
    window: PassWindow, tle: TwoLineElement, site: GroundSite, step_s: float = 1.0
) -> float:
    """Peak sky-plane angular rate over one pass (max_angular_rates of one window)."""
    return float(max_angular_rates([window], tle, site, step_s)[0])
