"""Near-Earth SGP4 mean-element propagation.

Implements the standard near-Earth branch of SGP4 with WGS-72 gravity
constants, producing TEME position/velocity in km and km/s. Element
sets with periods of 225 minutes or more need the deep-space extension,
which is out of scope here; they are rejected at construction time.
"""
from __future__ import annotations

import math
import warnings
from datetime import datetime, timezone

import numpy as np

from ..errors import DecayedOrbit, SimulationError, StaleElements, UnsupportedDeepSpace
from .tle import TwoLineElement

_TWOPI = 2.0 * math.pi
_X2O3 = 2.0 / 3.0
_DEG2RAD = math.pi / 180.0

# WGS-72 gravity model
MU_KM3_S2 = 398600.8
EARTH_RADIUS_KM = 6378.135
XKE = 60.0 / math.sqrt(EARTH_RADIUS_KM ** 3 / MU_KM3_S2)
_J2 = 0.001082616
_J3 = -0.00000253881
_J4 = -0.00000165597
_J3OJ2 = _J3 / _J2

STALE_AFTER_DAYS = 30.0

_ERROR_TEXT = {
    1: "mean eccentricity out of range",
    2: "mean motion is non-positive",
    4: "semi-latus rectum is negative",
}


def julian_date(t):
    """Julian date of a UTC datetime (fractional days included).

    A sequence of datetimes gives an array, each element computed alike.
    A Julian date already converted (a float or an array) comes back
    unchanged, so callers can convert once and pass the result on.
    """
    if isinstance(t, (float, np.ndarray)):
        return t
    if not isinstance(t, datetime):
        return np.array([julian_date(x) for x in t], dtype=float)
    if t.tzinfo is not None:
        t = t.astimezone(timezone.utc)
    year, month = t.year, t.month
    if month <= 2:
        year -= 1
        month += 12
    a = year // 100
    b = 2 - a + a // 4
    day_frac = (
        t.day
        + (t.hour + (t.minute + (t.second + t.microsecond * 1e-6) / 60.0) / 60.0)
        / 24.0
    )
    return (
        math.floor(365.25 * (year + 4716))
        + math.floor(30.6001 * (month + 1))
        + day_frac
        + b
        - 1524.5
    )


def julian_dates_us(start: datetime, offsets_us) -> np.ndarray:
    """Julian dates of start + timedelta(microseconds=k) for int64 offsets k.

    Bit for bit what julian_date gives for each of those datetimes
    (start naive, taken as UTC, or aware with a fixed offset), without
    building them: the calendar fields come from datetime64[us] and go
    through julian_date's float operations in the same order.
    """
    if start.tzinfo is not None:
        start = start.astimezone(timezone.utc).replace(tzinfo=None)
    t = np.datetime64(start, "us") + np.asarray(offsets_us, dtype=np.int64).astype("m8[us]")
    days = t.astype("M8[D]")
    months = t.astype("M8[M]")
    year = t.astype("M8[Y]").astype(np.int64) + 1970
    month = months.astype(np.int64) % 12 + 1
    day = (days - months.astype("M8[D]")).astype(np.int64) + 1
    us_of_day = (t - days).astype(np.int64)
    hour = us_of_day // 3_600_000_000
    minute = us_of_day // 60_000_000 % 60
    second = us_of_day // 1_000_000 % 60
    microsecond = us_of_day % 1_000_000
    winter = month <= 2
    year = year - winter
    month = month + 12 * winter
    a = year // 100
    b = 2 - a + a // 4
    day_frac = day + (hour + (minute + (second + microsecond * 1e-6) / 60.0) / 60.0) / 24.0
    return (
        np.floor(365.25 * (year + 4716))
        + np.floor(30.6001 * (month + 1))
        + day_frac
        + b
        - 1524.5
    )


def gmst_radians(jd_ut1):
    """Greenwich mean sidereal time from a UT1 Julian date (float or array)."""
    t = (jd_ut1 - 2451545.0) / 36525.0
    seconds = (
        67310.54841
        + (876600.0 * 3600.0 + 8640184.812866) * t
        + 0.093104 * t * t
        - 6.2e-6 * t * t * t
    )
    return np.radians(seconds / 240.0) % _TWOPI


class Sgp4Propagator:
    """Analytic propagator for one near-Earth element set."""

    def __init__(self, tle: TwoLineElement):
        self.tle = tle
        self.epoch_jd = julian_date(tle.epoch)

        ecco = tle.eccentricity
        inclo = tle.inclination * _DEG2RAD
        nodeo = tle.raan * _DEG2RAD
        argpo = tle.arg_perigee * _DEG2RAD
        mo = tle.mean_anomaly * _DEG2RAD
        no_kozai = tle.mean_motion * _TWOPI / 1440.0
        bstar = tle.bstar

        # recover the original (un-Kozai) mean motion
        eccsq = ecco * ecco
        omeosq = 1.0 - eccsq
        rteosq = math.sqrt(omeosq)
        cosio = math.cos(inclo)
        cosio2 = cosio * cosio
        sinio = math.sin(inclo)

        ak = (XKE / no_kozai) ** _X2O3
        d1 = 0.75 * _J2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq)
        delta = d1 / (ak * ak)
        adel = ak * (1.0 - delta * delta - delta * (1.0 / 3.0 + 134.0 * delta * delta / 81.0))
        delta = d1 / (adel * adel)
        no_unkozai = no_kozai / (1.0 + delta)

        if _TWOPI / no_unkozai >= 225.0:
            raise UnsupportedDeepSpace(
                f"satellite {tle.satellite_number}: period "
                f"{_TWOPI / no_unkozai:.1f} min needs the deep-space model"
            )

        ao = (XKE / no_unkozai) ** _X2O3
        po = ao * omeosq
        con42 = 1.0 - 5.0 * cosio2
        con41 = -con42 - cosio2 - cosio2
        posq = po * po
        rp = ao * (1.0 - ecco)

        self.ecco = ecco
        self.inclo = inclo
        self.nodeo = nodeo
        self.argpo = argpo
        self.mo = mo
        self.bstar = bstar
        self.no_unkozai = no_unkozai
        self.con41 = con41

        self.isimp = rp < 220.0 / EARTH_RADIUS_KM + 1.0

        ss = 78.0 / EARTH_RADIUS_KM + 1.0
        qzms2t = ((120.0 - 78.0) / EARTH_RADIUS_KM) ** 4
        sfour = ss
        qzms24 = qzms2t
        perige = (rp - 1.0) * EARTH_RADIUS_KM
        if perige < 156.0:
            sfour = perige - 78.0
            if perige < 98.0:
                sfour = 20.0
            qzms24 = ((120.0 - sfour) / EARTH_RADIUS_KM) ** 4
            sfour = sfour / EARTH_RADIUS_KM + 1.0

        pinvsq = 1.0 / posq
        tsi = 1.0 / (ao - sfour)
        self.eta = ao * ecco * tsi
        etasq = self.eta * self.eta
        eeta = ecco * self.eta
        psisq = abs(1.0 - etasq)
        coef = qzms24 * tsi ** 4
        coef1 = coef / psisq ** 3.5
        cc2 = coef1 * no_unkozai * (
            ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
            + 0.375 * _J2 * tsi / psisq * con41 * (8.0 + 3.0 * etasq * (8.0 + etasq))
        )
        self.cc1 = bstar * cc2
        cc3 = 0.0
        if ecco > 1.0e-4:
            cc3 = -2.0 * coef * tsi * _J3OJ2 * no_unkozai * sinio / ecco
        self.x1mth2 = 1.0 - cosio2
        self.cc4 = 2.0 * no_unkozai * coef1 * ao * omeosq * (
            self.eta * (2.0 + 0.5 * etasq)
            + ecco * (0.5 + 2.0 * etasq)
            - _J2 * tsi / (ao * psisq) * (
                -3.0 * con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
                + 0.75 * self.x1mth2 * (2.0 * etasq - eeta * (1.0 + etasq))
                * math.cos(2.0 * argpo)
            )
        )
        self.cc5 = 2.0 * coef1 * ao * omeosq * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq)

        cosio4 = cosio2 * cosio2
        temp1 = 1.5 * _J2 * pinvsq * no_unkozai
        temp2 = 0.5 * temp1 * _J2 * pinvsq
        temp3 = -0.46875 * _J4 * pinvsq * pinvsq * no_unkozai
        self.mdot = (
            no_unkozai
            + 0.5 * temp1 * rteosq * con41
            + 0.0625 * temp2 * rteosq * (13.0 - 78.0 * cosio2 + 137.0 * cosio4)
        )
        self.argpdot = (
            -0.5 * temp1 * con42
            + 0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4)
            + temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4)
        )
        xhdot1 = -temp1 * cosio
        self.nodedot = xhdot1 + (
            0.5 * temp2 * (4.0 - 19.0 * cosio2)
            + 2.0 * temp3 * (3.0 - 7.0 * cosio2)
        ) * cosio
        self.omgcof = bstar * cc3 * math.cos(argpo)
        self.xmcof = 0.0
        if ecco > 1.0e-4:
            self.xmcof = -_X2O3 * coef * bstar / eeta
        self.nodecf = 3.5 * omeosq * xhdot1 * self.cc1
        self.t2cof = 1.5 * self.cc1
        # guard the retrograde-equatorial singularity at i = 180 deg
        if abs(cosio + 1.0) > 1.5e-12:
            self.xlcof = -0.25 * _J3OJ2 * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio)
        else:
            self.xlcof = -0.25 * _J3OJ2 * sinio * (3.0 + 5.0 * cosio) / 1.5e-12
        self.aycof = -0.5 * _J3OJ2 * sinio
        delmotemp = 1.0 + self.eta * math.cos(mo)
        self.delmo = delmotemp ** 3
        self.sinmao = math.sin(mo)
        self.x7thm1 = 7.0 * cosio2 - 1.0

        self.d2 = self.d3 = self.d4 = 0.0
        self.t3cof = self.t4cof = self.t5cof = 0.0
        if not self.isimp:
            cc1sq = self.cc1 * self.cc1
            self.d2 = 4.0 * ao * tsi * cc1sq
            temp = self.d2 * tsi * self.cc1 / 3.0
            self.d3 = (17.0 * ao + sfour) * temp
            self.d4 = 0.5 * temp * ao * tsi * (221.0 * ao + 31.0 * sfour) * self.cc1
            self.t3cof = self.d2 + 2.0 * cc1sq
            self.t4cof = 0.25 * (3.0 * self.d3 + self.cc1 * (12.0 * self.d2 + 10.0 * cc1sq))
            self.t5cof = 0.2 * (
                3.0 * self.d4
                + 12.0 * self.cc1 * self.d3
                + 6.0 * self.d2 * self.d2
                + 15.0 * cc1sq * (2.0 * self.d2 + cc1sq)
            )

        self.propagate_minutes(0.0)

    @np.errstate(invalid="ignore", divide="ignore")  # failed elements are reported by _check
    def propagate_minutes(self, tsince) -> tuple[np.ndarray, np.ndarray]:
        """TEME position (km) and velocity (km/s) at epoch + tsince minutes.

        tsince is a float, giving (3,) vectors, or a 1-D array, giving
        (n, 3) stacks; every element runs the same equations.
        """
        t = np.asarray(tsince, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        worst = float(np.max(np.abs(t))) if t.size else 0.0
        if worst > STALE_AFTER_DAYS * 1440.0:
            warnings.warn(
                f"propagating {worst / 1440.0:.1f} days from epoch; "
                "mean elements degrade beyond 30 days",
                StaleElements,
                stacklevel=2,
            )
        if self.no_unkozai <= 0.0:
            raise SimulationError("orbit", _ERROR_TEXT[2])

        # secular gravity and atmospheric drag
        xmdf = self.mo + self.mdot * t
        argpdf = self.argpo + self.argpdot * t
        nodedf = self.nodeo + self.nodedot * t
        argpm = argpdf
        mm = xmdf
        t2 = t * t
        nodem = nodedf + self.nodecf * t2
        tempa = 1.0 - self.cc1 * t
        tempe = self.bstar * self.cc4 * t
        templ = self.t2cof * t2

        if not self.isimp:
            delomg = self.omgcof * t
            delmtemp = 1.0 + self.eta * np.cos(xmdf)
            delm = self.xmcof * (delmtemp ** 3 - self.delmo)
            temp = delomg + delm
            mm = xmdf + temp
            argpm = argpdf - temp
            t3 = t2 * t
            t4 = t3 * t
            tempa = tempa - self.d2 * t2 - self.d3 * t3 - self.d4 * t4
            tempe = tempe + self.bstar * self.cc5 * (np.sin(mm) - self.sinmao)
            templ = templ + self.t3cof * t3 + t4 * (self.t4cof + t * self.t5cof)

        am = (XKE / self.no_unkozai) ** _X2O3 * tempa * tempa
        nm = XKE / am ** 1.5
        em_raw = self.ecco - tempe
        em = np.maximum(em_raw, 1.0e-6)
        mm = mm + self.no_unkozai * templ
        xlm = mm + argpm + nodem

        nodem = np.where(nodem >= 0.0, nodem % _TWOPI, -(-nodem % _TWOPI))
        argpm = argpm % _TWOPI
        xlm = xlm % _TWOPI
        mm = (xlm - argpm - nodem) % _TWOPI

        # no lunar-solar periodics in the near-Earth branch
        ep, xincp, argpp, nodep, mp = em, self.inclo, argpm, nodem, mm
        sinip, cosip = math.sin(xincp), math.cos(xincp)

        # long-period periodics
        axnl = ep * np.cos(argpp)
        temp = 1.0 / (am * (1.0 - ep * ep))
        aynl = ep * np.sin(argpp) + temp * self.aycof
        xl = mp + argpp + nodep + temp * self.xlcof * axnl

        # Kepler's equation; each element stops by the scalar rule
        u = (xl - nodep) % _TWOPI
        eo1 = u
        sineo1 = coseo1 = np.zeros_like(u)
        active = np.ones(u.shape, dtype=bool)
        for _ in range(10):
            sin_e, cos_e = np.sin(eo1), np.cos(eo1)
            tem5 = 1.0 - cos_e * axnl - sin_e * aynl
            tem5 = np.clip((u - aynl * cos_e + axnl * sin_e - eo1) / tem5, -0.95, 0.95)
            sineo1 = np.where(active, sin_e, sineo1)
            coseo1 = np.where(active, cos_e, coseo1)
            eo1 = np.where(active, eo1 + tem5, eo1)
            active &= np.abs(tem5) >= 1.0e-12
            if not active.any():
                break

        # short-period preliminaries
        ecose = axnl * coseo1 + aynl * sineo1
        esine = axnl * sineo1 - aynl * coseo1
        el2 = axnl * axnl + aynl * aynl
        pl = am * (1.0 - el2)

        rl = am * (1.0 - ecose)
        rdotl = np.sqrt(am) * esine / rl
        rvdotl = np.sqrt(pl) / rl
        betal = np.sqrt(1.0 - el2)
        temp = esine / (1.0 + betal)
        sinu = am / rl * (sineo1 - aynl - axnl * temp)
        cosu = am / rl * (coseo1 - axnl + aynl * temp)
        su = np.arctan2(sinu, cosu)
        sin2u = (cosu + cosu) * sinu
        cos2u = 1.0 - 2.0 * sinu * sinu
        temp = 1.0 / pl
        temp1 = 0.5 * _J2 * temp
        temp2 = temp1 * temp

        mrt = rl * (1.0 - 1.5 * temp2 * betal * self.con41) \
            + 0.5 * temp1 * self.x1mth2 * cos2u
        self._check(t, em_raw, pl, mrt)
        su = su - 0.25 * temp2 * self.x7thm1 * sin2u
        xnode = nodep + 1.5 * temp2 * cosip * sin2u
        xinc = xincp + 1.5 * temp2 * cosip * sinip * cos2u
        mvt = rdotl - nm * temp1 * self.x1mth2 * sin2u / XKE
        rvdot = rvdotl + nm * temp1 * (self.x1mth2 * cos2u + 1.5 * self.con41) / XKE

        # orientation vectors
        sinsu = np.sin(su)
        cossu = np.cos(su)
        snod = np.sin(xnode)
        cnod = np.cos(xnode)
        sini = np.sin(xinc)
        cosi = np.cos(xinc)
        xmx = -snod * cosi
        xmy = cnod * cosi
        ux = xmx * sinsu + cnod * cossu
        uy = xmy * sinsu + snod * cossu
        uz = sini * sinsu
        vx = xmx * cossu - cnod * sinsu
        vy = xmy * cossu - snod * sinsu
        vz = sini * cossu

        mr = mrt * EARTH_RADIUS_KM
        vkmpersec = EARTH_RADIUS_KM * XKE / 60.0
        r = np.stack([mr * ux, mr * uy, mr * uz], axis=-1)
        v = np.stack([
            (mvt * ux + rvdot * vx) * vkmpersec,
            (mvt * uy + rvdot * vy) * vkmpersec,
            (mvt * uz + rvdot * vz) * vkmpersec,
        ], axis=-1)
        return (r[0], v[0]) if scalar else (r, v)

    def _check(self, t, em, pl, mrt) -> None:
        """Raise for the first time that fails, in the order the equations test."""
        bad_em = (em >= 1.0) | (em < -0.001)
        bad_pl = pl < 0.0
        failed = bad_em | bad_pl | (mrt < 1.0)
        if not failed.any():
            return
        i = int(np.argmax(failed))
        if bad_em[i]:
            raise SimulationError(
                "orbit", _ERROR_TEXT[1] + f" (em={em[i]:.6f} at t={t[i]:.1f} min)")
        if bad_pl[i]:
            raise SimulationError("orbit", _ERROR_TEXT[4] + f" (t={t[i]:.1f} min)")
        raise DecayedOrbit(
            f"satellite {self.tle.satellite_number} has decayed "
            f"(radius {mrt[i] * EARTH_RADIUS_KM:.1f} km at t={t[i]:.1f} min)"
        )

    def propagate(self, t) -> tuple[np.ndarray, np.ndarray]:
        """TEME position/velocity at a UTC datetime or Julian date; (n, 3) stacks for many."""
        return self.propagate_minutes((julian_date(t) - self.epoch_jd) * 1440.0)
