"""The pass search that propagates every coarse sample.

This is predict_passes as it stood before the coarse grid was screened:
SGP4 and the elevation run on every 30 s sample of the window. The
crossing bisection and the golden-section peak refinement are the
module's own, which the screen leaves alone. The tests hold the screened
search to this one: AOS, TCA, LOS and the peak elevation, bit for bit.
"""
from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from qkdpass.orbit_dynamics import GroundSite, Sgp4Propagator, TwoLineElement, site_elevation_deg
from qkdpass.orbit_dynamics.passes import (COARSE_STEP_S, PassWindow, _bisect_crossings,
                                           _in_blocks, _refine_peaks, _seconds_to_us)
from qkdpass.orbit_dynamics.sgp4 import julian_dates_us


def unscreened_passes(tle: TwoLineElement, site: GroundSite, start: datetime,
                      end: datetime, min_elevation_deg: float = 10.0) -> list[PassWindow]:
    """predict_passes with SGP4 on every coarse sample."""
    prop = Sgp4Propagator(tle)

    def elevation_us(offsets_us: np.ndarray) -> np.ndarray:
        jd = julian_dates_us(start, offsets_us)
        r, _ = prop.propagate(jd)
        return site_elevation_deg(r, site, jd)

    end_us = (end - start) // timedelta(microseconds=1)
    n_steps = int((end - start).total_seconds() / COARSE_STEP_S) + 1
    grid = _seconds_to_us(np.arange(n_steps) * COARSE_STEP_S)
    if grid[-1] < end_us:
        grid = np.append(grid, end_us)
    above = _in_blocks(elevation_us, grid) >= min_elevation_deg

    edges = np.diff(np.concatenate([[0], above.astype(np.int8), [0]]))
    first = np.flatnonzero(edges == 1)
    last = np.flatnonzero(edges == -1) - 1
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

    def stamp(offset_us) -> datetime:
        return start + timedelta(microseconds=int(offset_us))

    return [PassWindow(aos=stamp(a), los=stamp(b), tca=stamp(c), max_elevation_deg=float(el),
                       min_elevation_deg=min_elevation_deg)
            for a, b, c, el in zip(aos, los, tca, max_el)]
