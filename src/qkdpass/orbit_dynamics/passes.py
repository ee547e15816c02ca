"""Pass prediction and tracking kinematics over a ground site.

A pass is the interval during which the satellite's elevation stays at
or above the configured minimum. Crossings are bracketed on a coarse
grid and refined by bisection to 0.1 s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from ..errors import ProfileGap
from .frames import GroundSite, eci_to_topocentric, site_elevation_deg
from .sgp4 import Sgp4Propagator
from .tle import TwoLineElement

COARSE_STEP_S = 30.0
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

    start: datetime
    step_s: float
    times_s: np.ndarray          # seconds since start
    azimuth_deg: np.ndarray
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


def _elevation_fn(prop: Sgp4Propagator, site: GroundSite):
    def elevation(t: datetime) -> float:
        r, _ = prop.propagate(t)
        return site_elevation_deg(r, site, t)

    return elevation


def _bisect_crossing(elevation, lo: datetime, hi: datetime, min_elevation: float,
                     rising: bool) -> datetime:
    """Refine an elevation-threshold crossing bracketed by [lo, hi]."""
    while (hi - lo).total_seconds() > BISECTION_TOL_S:
        mid = lo + (hi - lo) / 2
        above = elevation(mid) >= min_elevation
        if above == rising:
            hi = mid
        else:
            lo = mid
    return lo + (hi - lo) / 2


def _refine_peak(elevation, lo: datetime, hi: datetime) -> tuple[datetime, float]:
    """Golden-section maximum of elevation on [lo, hi] to 0.1 s."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    while (b - a).total_seconds() > BISECTION_TOL_S:
        span = (b - a).total_seconds()
        c = a + timedelta(seconds=span * (1.0 - invphi))
        d = a + timedelta(seconds=span * invphi)
        if elevation(c) >= elevation(d):
            b = d
        else:
            a = c
    mid = a + (b - a) / 2
    return mid, elevation(mid)


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
    progress at the window edges are clamped to the edge.
    """
    if end <= start:
        raise ValueError("search window end must follow start")
    if (end - start).total_seconds() > MAX_SEARCH_DAYS * 86400.0:
        raise ValueError(f"search window longer than {MAX_SEARCH_DAYS:.0f} days")

    prop = Sgp4Propagator(tle)
    elevation = _elevation_fn(prop, site)

    n_steps = int((end - start).total_seconds() / COARSE_STEP_S) + 1
    grid = [start + timedelta(seconds=i * COARSE_STEP_S) for i in range(n_steps)]
    if grid[-1] < end:
        grid.append(end)
    above = [elevation(t) >= min_elevation_deg for t in grid]

    windows: list[PassWindow] = []
    i = 0
    while i < len(grid):
        if not above[i]:
            i += 1
            continue
        # entry
        if i == 0:
            aos = grid[0]
        else:
            aos = _bisect_crossing(elevation, grid[i - 1], grid[i], min_elevation_deg, rising=True)
        # exit
        j = i
        while j + 1 < len(grid) and above[j + 1]:
            j += 1
        if j + 1 >= len(grid):
            los = grid[-1]
        else:
            los = _bisect_crossing(elevation, grid[j], grid[j + 1], min_elevation_deg, rising=False)
        if los > aos:
            lo_peak = max(aos, grid[max(i - 1, 0)])
            hi_peak = min(los, grid[min(j + 1, len(grid) - 1)])
            tca, max_el = _refine_peak(elevation, lo_peak, hi_peak)
            windows.append(PassWindow(
                aos=aos,
                los=los,
                tca=tca,
                max_elevation_deg=max_el,
                min_elevation_deg=min_elevation_deg,
            ))
        i = j + 1
    return windows


def max_angular_rate(
    window: PassWindow, tle: TwoLineElement, site: GroundSite, step_s: float = 1.0
) -> float:
    """Peak sky-plane angular rate over a pass, on the sample_pass grid."""
    return float(np.max(sample_pass(tle, site, window, step_s).angular_rate_dps))


def sample_pass(
    tle: TwoLineElement, site: GroundSite, window: PassWindow, step_s: float = 1.0
) -> PassProfile:
    """Sample pass geometry on a uniform grid from AOS to LOS."""
    prop = Sgp4Propagator(tle)
    n = int(math.ceil(window.duration_s / step_s)) + 1
    times = np.minimum(np.arange(n) * step_s, window.duration_s)
    az = np.empty(n)
    el = np.empty(n)
    rng = np.empty(n)
    rate = np.empty(n)
    r_all = np.empty((n, 3))
    v_all = np.empty((n, 3))
    for i, ts in enumerate(times):
        t = window.aos + timedelta(seconds=float(ts))
        r, v = prop.propagate(t)
        state = eci_to_topocentric(r, v, site, t)
        az[i] = state.azimuth_deg
        el[i] = state.elevation_deg
        rng[i] = state.range_km
        rate[i] = state.angular_rate_dps
        r_all[i] = r
        v_all[i] = v
    return PassProfile(
        start=window.aos,
        step_s=step_s,
        times_s=times,
        azimuth_deg=az,
        elevation_deg=el,
        range_km=rng,
        angular_rate_dps=rate,
        r_teme_km=r_all,
        v_teme_kms=v_all,
        site=site,
    )
