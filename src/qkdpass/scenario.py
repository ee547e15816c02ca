"""Scenario configuration shared by the pipeline and the CLI.

A scenario bundles every module's configuration plus the seed and
output directory. All fields default, so a minimal scenario is a TLE
path and a ground site. Scenarios load from a sectioned key=value
text file (INI/TOML-style) or an equivalent JSON document; each value
in the text form is a JSON fragment (numbers, lists, quoted strings,
true/false), with bare words read as strings. Writing the resolved
scenario and reading it back reproduces it exactly.

One walk over the config dataclasses lays out the sections both ways:
[scenario] holds the scenario's own keys, and every config object gets
a section named by its field ([site], [pat]), dotted below the top
level ([pat.nfov]); the detector models are [detectors.ground] and
[detectors.onboard]. A subsection is not a key of its parent. A section
needs only its non-default keys; an unknown key or section is an error.
"""
from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, fields, is_dataclass, replace
from numbers import Integral
from pathlib import Path
from typing import Any, Callable

from .channel_link import LinkConfig
from .errors import OutOfRange, QkdPassError, TleParseError
from .orbit_dynamics import GroundSite, TwoLineElement, parse_tle, parse_tle_file
from .orbit_dynamics.passes import MAX_SEARCH_DAYS
from .pat_controller import PatControllerConfig
from .photon_source import SourceConfig
from .polarization_correction import PcsConfig
from .quantum_receiver import ClockModel, DetectorModel, SyncConfig


# beacon_clock_sync folds the beacon period into period / bin_s histogram
# bins; 2**24 of them take 256 MB of counts and edges
MAX_FOLD_BINS = 2 ** 24


class ScenarioError(QkdPassError):
    """Scenario file missing, unreadable, or failing validation."""


@dataclass(frozen=True)
class PredictionConfig:
    """Pass-search settings."""

    min_elevation_deg: float = 10.0
    search_hours: float = 24.0
    profile_step_s: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.min_elevation_deg < 90.0:
            raise OutOfRange(f"min_elevation_deg {self.min_elevation_deg} "
                             "outside (0, 90)")
        if not 0.0 < self.search_hours <= MAX_SEARCH_DAYS * 24.0:
            raise OutOfRange(f"search_hours {self.search_hours} outside "
                             f"(0, {MAX_SEARCH_DAYS * 24.0:g}]")
        if not self.profile_step_s > 0.0:
            raise OutOfRange("profile_step_s must be positive")


@dataclass(frozen=True)
class ProtocolConfig:
    """Coincidence and key post-processing settings."""

    coincidence_window_s: float = 1e-9
    sample_fraction: float = 0.1
    max_source_events: int = 2_000_000
    ad_anticorrelated: bool = True

    def __post_init__(self):
        if not self.coincidence_window_s >= 0.0:
            raise OutOfRange("coincidence_window_s must be nonnegative")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise OutOfRange(f"sample_fraction {self.sample_fraction} outside (0, 1]")
        if not self.max_source_events >= 1:
            raise OutOfRange(f"max_source_events {self.max_source_events} below 1")


@dataclass(frozen=True)
class Scenario:
    """Complete, validated simulation input."""

    tle_path: str | None = None
    tle_lines: tuple[str, ...] | None = None
    site: GroundSite = GroundSite(latitude_deg=47.0, longitude_deg=8.0,
                                  altitude_m=540.0)
    source: SourceConfig = SourceConfig()
    link: LinkConfig = LinkConfig()
    pat: PatControllerConfig = PatControllerConfig()
    pat_dt_s: float = 0.01
    pcs: PcsConfig = PcsConfig()
    ground_detector: DetectorModel = DetectorModel()
    onboard_detector: DetectorModel = DetectorModel()
    clock: ClockModel = ClockModel(offset_s=1.2345e-3, drift=1e-6)
    sync: SyncConfig = SyncConfig()
    prediction: PredictionConfig = PredictionConfig()
    protocol: ProtocolConfig = ProtocolConfig()
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        if not self.pat_dt_s > 0.0:
            raise OutOfRange("pat_dt_s must be positive")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise TypeError(f"seed {self.seed!r} is not an integer")
        if not isinstance(self.tle_path, (str, type(None))):
            raise TypeError(f"tle_path {self.tle_path!r} is not a string")
        if self.tle_lines is not None and not (
                isinstance(self.tle_lines, tuple)
                and all(isinstance(line, str) for line in self.tle_lines)):
            raise TypeError(f"tle_lines {self.tle_lines!r} is not a list of strings")
        if not isinstance(self.output_dir, str):
            raise TypeError(f"output_dir {self.output_dir!r} is not a string")
        beacon_hz = self.source.beacon_frequency_hz
        if beacon_hz and 1.0 / beacon_hz / self.sync.bin_s > MAX_FOLD_BINS:
            raise OutOfRange(f"[sync] bin_s {self.sync.bin_s} splits one beacon period "
                             f"into more than {MAX_FOLD_BINS} fold bins")

    def load_tle(self) -> TwoLineElement:
        if self.tle_lines:
            return parse_tle("\n".join(self.tle_lines))
        if self.tle_path:
            elements = parse_tle_file(Path(self.tle_path).read_text())
            if not elements:
                raise TleParseError(f"no TLE found in {self.tle_path}")
            return elements[0]
        raise ScenarioError("scenario provides neither tle_path nor tle_lines")


# The two detector sections keep their grouped names.
_SECTION_NAMES = {"ground_detector": "detectors.ground",
                  "onboard_detector": "detectors.onboard"}


def _walk(config: Any, section: str, visit: Callable) -> Any:
    """Visit a config's section, then its subsections; return the updated config.

    A field holding a config object is a subsection, [field] at the top
    level (or as _SECTION_NAMES says) and [section.field] below it; every
    other field is a key. visit(section, config, key_fields) returns new
    key values, applied over the config's own ones.
    """
    keys, subsections = [], []
    for f in fields(config):
        (subsections if is_dataclass(getattr(config, f.name)) else keys).append(f)
    updates = visit(section, config, keys)
    for f in subsections:
        value = getattr(config, f.name)
        name = (_SECTION_NAMES.get(f.name, f.name) if section == "scenario"
                else f"{section}.{f.name}")
        new = _walk(value, name, visit)
        if new is not value:
            updates[f.name] = new
    try:
        return replace(config, **updates) if updates else config
    except (TypeError, ValueError, QkdPassError) as exc:
        raise ScenarioError(f"invalid [{section}] configuration: {exc}") from exc


def _type_problem(annotation: str, value: Any) -> str | None:
    """Why a key of this annotation cannot hold value (as read), or None."""
    if annotation.startswith("tuple") and not isinstance(value, (tuple, type(None))):
        return "must be a list"
    if annotation == "int" and (isinstance(value, bool) or not isinstance(value, Integral)):
        return "must be an integer"
    if annotation == "bool" and not isinstance(value, bool):
        return "must be true or false"
    return None


def scenario_from_nested(data: dict[str, Any]) -> Scenario:
    """Build a scenario from {section: {key: value}}; [scenario] holds its own keys."""
    seen: set[str] = set()

    def read(section: str, config: Any, keys: list) -> dict[str, Any]:
        seen.add(section)
        payload = data.get(section, {})
        if not isinstance(payload, dict):
            raise ScenarioError(f"invalid [{section}] configuration: "
                                "not an object of keys")
        known = {f.name: f for f in keys}
        updates = {}
        for key, value in payload.items():
            if key not in known:
                raise ScenarioError(f"unknown key {key!r} in [{section}]")
            if isinstance(value, list):
                value = tuple(value)
            problem = _type_problem(str(known[key].type), value)
            if problem:
                raise ScenarioError(f"invalid [{section}] configuration: {key} {problem}")
            updates[key] = value
        return updates

    scenario = _walk(Scenario(), "scenario", read)
    for section in data:
        if section not in seen:
            raise ScenarioError(f"unknown section [{section}]")
    return scenario


def scenario_to_nested(scenario: Scenario) -> dict[str, Any]:
    """Inverse of scenario_from_nested on resolved scenarios."""
    data: dict[str, Any] = {}

    def write(section: str, config: Any, keys: list) -> dict[str, Any]:
        values = {f.name: getattr(config, f.name) for f in keys}
        data[section] = {key: list(value) if isinstance(value, tuple) else value
                         for key, value in values.items()}
        return {}

    _walk(scenario, "scenario", write)
    return data


def _parse_value(raw: str) -> Any:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare word: treat as string


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario from a sectioned text file or a JSON document."""
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    text = path.read_text()
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON scenario: {exc}") from exc
        if not isinstance(data, dict):
            raise ScenarioError("JSON scenario must be an object of sections")
        return scenario_from_nested(data)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"invalid scenario file: {exc}") from exc
    data = {
        section: {key: _parse_value(raw) for key, raw in parser[section].items()}
        for section in parser.sections()
    }
    return scenario_from_nested(data)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write the resolved scenario; load_scenario reads it back identically."""
    path = Path(path)
    data = scenario_to_nested(scenario)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return
    lines: list[str] = []
    for section, payload in data.items():
        lines.append(f"[{section}]")
        for key, value in payload.items():
            lines.append(f"{key} = {json.dumps(value)}")
        lines.append("")
    path.write_text("\n".join(lines))


def write_example(path: str | Path) -> None:
    """Emit a fully resolved default scenario as a starting point."""
    demo = replace(Scenario(), tle_path="satellite.tle")
    save_scenario(demo, path)
