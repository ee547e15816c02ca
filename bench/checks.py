"""Output checks for benchmark operations.

Each check returns a list of failure messages; an empty list means the
operation's outputs are correct. Any failure counts the operation as
failed.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# The report of one seed is one draw of the disclosed-bit estimate, so the
# limit sets the false-alarm rate on correct output: 3 sigma fails about
# one seed in 370, 5 sigma about one in 1.7 million.
QBER_PULL_LIMIT = 5.0


def expected_qber(visibility: float, accidental_fraction: float) -> float:
    """Source errors on true coincidences plus coin-flip accidentals."""
    a = accidental_fraction
    return (1.0 - visibility) / 2.0 * (1.0 - a) + a / 2.0


def check_report(report: dict, visibility: float,
                 sample_fraction: float) -> list[str]:
    """Invariants of one simulate report.json."""
    failures = []
    try:
        coinc = int(report["coincidences_total"])
        sifted = int(report["sifted_bits"])
        secret = int(report["secret_bits"])
        qber = float(report["qber_estimate"])
        accidental = float(report["accidental_fraction"])
        offset = report["sync_offset_s"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report.json lacks a field: {exc!r}"]
    if not 0 <= secret <= sifted <= coinc:
        failures.append(f"need 0 <= secret {secret} <= sifted {sifted} "
                        f"<= coincidences {coinc}")
    if not 0.0 <= qber <= 0.5:
        failures.append(f"qber_estimate {qber} outside [0, 0.5]")
    if offset is None:
        failures.append("sync_offset_s is null: clock sync failed")
    if sifted > 0:
        expect = expected_qber(visibility, accidental)
        disclosed = max(1, round(sample_fraction * sifted))
        sigma = math.sqrt(expect * (1.0 - expect) / disclosed)
        pull = (qber - expect) / sigma if sigma > 0.0 else math.inf
        if abs(pull) > QBER_PULL_LIMIT:
            failures.append(f"qber_estimate {qber:.5f} is {pull:+.2f} sigma "
                            f"from expected {expect:.5f}")
    else:
        failures.append("no sifted bits")
    return failures


def read_report(out_dir: Path) -> tuple[dict | None, list[str]]:
    try:
        return json.loads((out_dir / "report.json").read_text()), []
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"report.json unreadable: {exc}"]


def csv_rows(path: Path) -> int:
    """Data rows of a CSV file with one header line."""
    with open(path, newline="") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def check_predict(stdout: str, out_dir: Path) -> list[str]:
    """At least one pass, and passes.csv holds one row per printed pass."""
    printed = len(stdout.splitlines()) - 1
    try:
        rows = csv_rows(out_dir / "passes.csv")
    except OSError as exc:
        return [f"passes.csv unreadable: {exc}"]
    failures = []
    if printed < 1:
        failures.append("predict found no pass")
    if rows != printed:
        failures.append(f"passes.csv has {rows} rows, stdout {printed}")
    return failures


def check_link_budget(stdout: str, out_dir: Path) -> list[str]:
    """link.csv holds one row per sample the command printed."""
    fields = dict(item.partition("=")[::2] for item in stdout.split())
    try:
        printed = int(fields["samples"])
        rows = csv_rows(out_dir / "link.csv")
    except (KeyError, ValueError, OSError) as exc:
        return [f"link-budget output unreadable: {exc!r}"]
    if printed < 2 or rows != printed:
        return [f"link.csv has {rows} rows, stdout says samples={printed}"]
    return []
