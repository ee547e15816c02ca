"""NORAD two-line element parsing, validation, and formatting.

Fields are decoded from the standard fixed-column layout, including the
implied-decimal eccentricity and the mantissa-exponent B* field. Both
lines carry a modulo-10 checksum (digits count at face value, ``-``
counts as 1) which is enforced on parse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from ..errors import ChecksumMismatch, MalformedField, WrongLineLength

TLE_LINE_LENGTH = 69


def line_checksum(line: str) -> int:
    """Modulo-10 checksum of a TLE line, excluding its final digit."""
    total = 0
    for ch in line[:68]:
        if ch.isdigit():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


@dataclass(frozen=True)
class TwoLineElement:
    """Parsed TLE mean element set (angles in degrees, epoch in UTC)."""

    satellite_number: int
    classification: str
    intl_designator: str
    epoch: datetime
    ndot: float          # rev/day^2 (already doubled from the half-value field)
    nddot: float         # rev/day^3
    bstar: float         # 1/earth-radii
    element_set_number: int
    inclination: float   # deg
    raan: float          # deg
    eccentricity: float
    arg_perigee: float   # deg
    mean_anomaly: float  # deg
    mean_motion: float   # rev/day
    rev_number: int
    line_checksums: tuple[int, int]
    name: str = ""
    raw_lines: tuple[str, str] = field(default="", repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if not 0.0 <= self.eccentricity < 1.0:
            raise MalformedField("eccentricity", (27, 33), f"{self.eccentricity}")
        if self.mean_motion <= 0.0:
            raise MalformedField("mean_motion", (53, 63), f"{self.mean_motion}")


def _int_field(line: str, lo: int, hi: int, name: str, line_no: int) -> int:
    raw = line[lo - 1:hi]
    try:
        return int(raw)
    except ValueError:
        raise MalformedField(name, (lo, hi), raw) from None


def _float_field(line: str, lo: int, hi: int, name: str) -> float:
    raw = line[lo - 1:hi]
    try:
        return float(raw)
    except ValueError:
        raise MalformedField(name, (lo, hi), raw) from None


def _implied_decimal_exp(raw: str, name: str, cols: tuple[int, int]) -> float:
    """Decode a +NNNNN±E style field (e.g. `` 28098-4`` -> 0.28098e-4)."""
    text = raw.strip()
    if not text:
        return 0.0
    sign = 1.0
    if text[0] in "+-":
        if text[0] == "-":
            sign = -1.0
        text = text[1:]
    # exponent is the trailing signed single digit
    if len(text) >= 2 and text[-2] in "+-":
        mantissa_txt, exp_txt = text[:-2], text[-2:]
    else:
        mantissa_txt, exp_txt = text, "+0"
    try:
        mantissa = int(mantissa_txt) if mantissa_txt else 0
        exponent = int(exp_txt)
    except ValueError:
        raise MalformedField(name, cols, raw) from None
    return sign * mantissa * 10.0 ** (exponent - len(mantissa_txt))


def _epoch_to_datetime(two_digit_year: int, day_of_year: float) -> datetime:
    year = 2000 + two_digit_year if two_digit_year < 57 else 1900 + two_digit_year
    start = datetime(year, 1, 1, tzinfo=timezone.utc)
    return start + timedelta(days=day_of_year - 1.0)


def parse_tle(text: str) -> TwoLineElement:
    """Parse a 2-line (or name + 2-line) element set.

    Leading/trailing whitespace is tolerated per line; the two element
    lines must be exactly 69 characters after stripping the newline.
    """
    lines = [ln.rstrip("\r\n") for ln in text.strip("\n").splitlines() if ln.strip()]
    if len(lines) == 3:
        name, l1, l2 = lines[0].strip(), lines[1], lines[2]
    elif len(lines) == 2:
        name, (l1, l2) = "", lines
    else:
        raise WrongLineLength(f"expected 2 or 3 lines, got {len(lines)}")

    for idx, ln in ((1, l1), (2, l2)):
        if len(ln) != TLE_LINE_LENGTH:
            raise WrongLineLength(f"line {idx} has {len(ln)} characters, expected 69")
        if not ln[68].isdigit():
            raise MalformedField("checksum", (69, 69), ln[68])
        expected = line_checksum(ln)
        found = int(ln[68])
        if expected != found:
            raise ChecksumMismatch(idx, expected, found)
    if l1[0] != "1" or l2[0] != "2":
        raise MalformedField("line_number", (1, 1), l1[0] + l2[0])

    satnum = _int_field(l1, 3, 7, "satellite_number", 1)
    if _int_field(l2, 3, 7, "satellite_number", 2) != satnum:
        raise MalformedField("satellite_number", (3, 7), l2[2:7])

    epoch = _epoch_to_datetime(
        _int_field(l1, 19, 20, "epoch_year", 1),
        _float_field(l1, 21, 32, "epoch_day"),
    )
    ndot_half = _float_field(l1, 34, 43, "ndot")
    nddot = _implied_decimal_exp(l1[44:52], "nddot", (45, 52)) * 6.0
    bstar = _implied_decimal_exp(l1[53:61], "bstar", (54, 61))

    ecc_raw = l2[26:33]
    if not ecc_raw.strip().isdigit():
        raise MalformedField("eccentricity", (27, 33), ecc_raw)
    eccentricity = int(ecc_raw) * 1e-7

    return TwoLineElement(
        satellite_number=satnum,
        classification=l1[7],
        intl_designator=l1[9:17].strip(),
        epoch=epoch,
        ndot=ndot_half * 2.0,
        nddot=nddot,
        bstar=bstar,
        element_set_number=int(l1[64:68]),
        inclination=_float_field(l2, 9, 16, "inclination"),
        raan=_float_field(l2, 18, 25, "raan"),
        eccentricity=eccentricity,
        arg_perigee=_float_field(l2, 35, 42, "arg_perigee"),
        mean_anomaly=_float_field(l2, 44, 51, "mean_anomaly"),
        mean_motion=_float_field(l2, 53, 63, "mean_motion"),
        rev_number=_int_field(l2, 64, 68, "rev_number", 2),
        line_checksums=(int(l1[68]), int(l2[68])),
        name=name,
        raw_lines=(l1, l2),
    )


def parse_tle_file(text: str) -> list[TwoLineElement]:
    """Parse every element set in a file (2-line or name + 2-line blocks)."""
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    sets: list[TwoLineElement] = []
    pending_name = ""
    i = 0
    while i < len(lines):
        ln = lines[i]
        if ln.startswith("1 ") and i + 1 < len(lines) and lines[i + 1].startswith("2 "):
            block = (pending_name + "\n" if pending_name else "") + ln + "\n" + lines[i + 1]
            sets.append(parse_tle(block))
            pending_name = ""
            i += 2
        else:
            pending_name = ln.strip()
            i += 1
    return sets


def _format_exp_field(value: float) -> str:
    """8-char mantissa-exponent field (`` 28098-4`` style)."""
    if value == 0.0:
        return " 00000+0"
    sign = "-" if value < 0 else " "
    exponent = int(math.floor(math.log10(abs(value)))) + 1
    mantissa = abs(value) / 10.0 ** exponent
    digits = f"{round(mantissa * 1e5):05d}"
    if len(digits) > 5:  # rounding carried into a new decade
        exponent += 1
        digits = f"{round(abs(value) / 10.0 ** exponent * 1e5):05d}"
    exp_sign = "+" if exponent >= 0 else "-"
    return f"{sign}{digits}{exp_sign}{abs(exponent)}"


def format_tle(tle: TwoLineElement) -> tuple[str, str]:
    """Render canonical 69-character lines (checksums recomputed)."""
    year = tle.epoch.year % 100
    day_start = datetime(tle.epoch.year, 1, 1, tzinfo=timezone.utc)
    day_of_year = (tle.epoch - day_start).total_seconds() / 86400.0 + 1.0

    ndot_half = tle.ndot / 2.0
    ndot_txt = f"{ndot_half:+.8f}"
    ndot_txt = ndot_txt.replace("+0.", " .").replace("-0.", "-.")

    l1 = (
        f"1 {tle.satellite_number:05d}{tle.classification}"
        f" {tle.intl_designator:<8.8s}"
        f" {year:02d}{day_of_year:012.8f}"
        f" {ndot_txt}"
        f" {_format_exp_field(tle.nddot / 6.0)}"
        f" {_format_exp_field(tle.bstar)}"
        f" 0 {tle.element_set_number:4d}"
    )
    l2 = (
        f"2 {tle.satellite_number:05d}"
        f" {tle.inclination:8.4f}"
        f" {tle.raan:8.4f}"
        f" {round(tle.eccentricity * 1e7):07d}"
        f" {tle.arg_perigee:8.4f}"
        f" {tle.mean_anomaly:8.4f}"
        f" {tle.mean_motion:11.8f}"
        f"{tle.rev_number:5d}"
    )
    l1 += str(line_checksum(l1 + "0"))
    l2 += str(line_checksum(l2 + "0"))
    return l1, l2


def make_tle(
    *,
    satellite_number: int = 99999,
    epoch: datetime,
    inclination: float,
    raan: float = 0.0,
    eccentricity: float = 0.0001,
    arg_perigee: float = 0.0,
    mean_anomaly: float = 0.0,
    mean_motion: float,
    bstar: float = 0.0,
    ndot: float = 0.0,
    nddot: float = 0.0,
    name: str = "",
    intl_designator: str = "24001A",
) -> TwoLineElement:
    """Build a synthetic element set with valid checksums (test/demo helper)."""
    draft = TwoLineElement(
        satellite_number=satellite_number,
        classification="U",
        intl_designator=intl_designator,
        epoch=epoch if epoch.tzinfo else epoch.replace(tzinfo=timezone.utc),
        ndot=ndot,
        nddot=nddot,
        bstar=bstar,
        element_set_number=999,
        inclination=inclination,
        raan=raan,
        eccentricity=eccentricity,
        arg_perigee=arg_perigee,
        mean_anomaly=mean_anomaly,
        mean_motion=mean_motion,
        rev_number=1,
        line_checksums=(0, 0),
        name=name,
        raw_lines=("", ""),
    )
    l1, l2 = format_tle(draft)
    block = (name + "\n" if name else "") + l1 + "\n" + l2
    return parse_tle(block)
