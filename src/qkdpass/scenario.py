"""Scenario configuration shared by the pipeline and the CLI.

A scenario bundles every module's configuration plus the seed and
output directory. All fields default, so a minimal scenario is a TLE
path and a ground site. Scenarios load from a sectioned key=value
text file (INI/TOML-style) or an equivalent JSON document; each value
in the text form is a JSON fragment (numbers, lists, quoted strings,
true/false), with bare words read as strings. Writing the resolved
scenario and reading it back reproduces it exactly.
"""
from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

from .channel_link import LinkConfig
from .errors import OutOfRange, QkdPassError, TleParseError
from .orbit_dynamics import GroundSite, TwoLineElement, parse_tle, parse_tle_file
from .orbit_dynamics.passes import MAX_SEARCH_DAYS
from .pat_controller import CameraModel, FsmModel, MountModel, PatControllerConfig
from .photon_source import SourceConfig
from .polarization_correction import PolarimeterConfig
from .quantum_receiver import ClockModel, DetectorModel


class ScenarioError(QkdPassError):
    """Scenario file missing, unreadable, or failing validation."""


@dataclass(frozen=True)
class PredictionConfig:
    """Pass-search settings."""

    min_elevation_deg: float = 10.0
    search_hours: float = 24.0
    profile_step_s: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.search_hours <= MAX_SEARCH_DAYS * 24.0:
            raise OutOfRange(f"search_hours {self.search_hours} outside "
                             f"(0, {MAX_SEARCH_DAYS * 24.0:g}]")
        if not self.profile_step_s > 0.0:
            raise OutOfRange("profile_step_s must be positive")


@dataclass(frozen=True)
class PcsConfig:
    """Polarization-correction settings beyond the polarimeter itself.

    The frame rotation follows scripted_constant_deg or scripted_ramp_deg
    when one is set, and the pass geometry (with body_yaw_deg) otherwise.
    """

    polarimeter: PolarimeterConfig = PolarimeterConfig()
    body_yaw_deg: float = 0.0
    scripted_constant_deg: float | None = None
    scripted_ramp_deg: tuple[float, float] | None = None
    update_interval_s: float = 1.0
    uncompensated_offset_deg: float = 0.0

    def __post_init__(self):
        scripted = (self.scripted_constant_deg is not None,
                    self.scripted_ramp_deg is not None)
        if all(scripted):
            raise OutOfRange("set scripted_constant_deg or scripted_ramp_deg, "
                             "not both")
        if scripted[1] and len(self.scripted_ramp_deg) != 2:
            raise OutOfRange("scripted_ramp_deg must be a [start, end] pair")
        if any(scripted) and self.body_yaw_deg != 0.0:
            raise OutOfRange("body_yaw_deg applies only to the geometric "
                             "profile, not to a scripted one")
        if not self.update_interval_s > 0.0:
            raise OutOfRange("update_interval_s must be positive")


@dataclass(frozen=True)
class SyncConfig:
    """Beacon timing and clock-recovery settings."""

    beacon_jitter_rms_s: float = 1e-9
    bin_s: float = 100e-9
    max_offset_s: float = 10e-3
    min_matched: int = 100

    def __post_init__(self):
        if not (self.bin_s > 0.0 and self.max_offset_s > 0.0):
            raise OutOfRange("bin_s and max_offset_s must be positive")
        if not self.beacon_jitter_rms_s >= 0.0:
            raise OutOfRange("beacon_jitter_rms_s must be nonnegative")
        if not self.min_matched >= 2:
            raise OutOfRange(f"min_matched {self.min_matched} below 2")


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

    def load_tle(self) -> TwoLineElement:
        if self.tle_lines:
            return parse_tle("\n".join(self.tle_lines))
        if self.tle_path:
            elements = parse_tle_file(Path(self.tle_path).read_text())
            if not elements:
                raise TleParseError(f"no TLE found in {self.tle_path}")
            return elements[0]
        raise ScenarioError("scenario provides neither tle_path nor tle_lines")


# section name -> (scenario attribute path, constructor)
_SECTIONS: dict[str, tuple[str, type]] = {
    "site": ("site", GroundSite),
    "source": ("source", SourceConfig),
    "link": ("link", LinkConfig),
    "pat": ("pat", PatControllerConfig),
    "pat.mount": ("pat.mount", MountModel),
    "pat.wfov": ("pat.wfov", CameraModel),
    "pat.nfov": ("pat.nfov", CameraModel),
    "pat.fsm": ("pat.fsm", FsmModel),
    "pcs": ("pcs", PcsConfig),
    "pcs.polarimeter": ("pcs.polarimeter", PolarimeterConfig),
    "detectors.ground": ("ground_detector", DetectorModel),
    "detectors.onboard": ("onboard_detector", DetectorModel),
    "clock": ("clock", ClockModel),
    "sync": ("sync", SyncConfig),
    "prediction": ("prediction", PredictionConfig),
    "protocol": ("protocol", ProtocolConfig),
}

_SCENARIO_KEYS = ("tle_path", "tle_lines", "pat_dt_s", "seed", "output_dir")

_TUPLE_FIELDS = {"systematic_bias_arcsec", "hwp_settings_deg", "scripted_ramp_deg",
                 "tle_lines"}


def _coerce(name: str, value: Any) -> Any:
    if isinstance(value, list):
        value = tuple(value)
    if name in _TUPLE_FIELDS and value is not None and not isinstance(value, tuple):
        raise ScenarioError(f"{name} must be a list")
    return value


def _build(cls: type, items: dict[str, Any], where: str):
    allowed = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in items.items():
        if key not in allowed:
            raise ScenarioError(f"unknown key {key!r} in [{where}]")
        kwargs[key] = _coerce(key, value)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, QkdPassError) as exc:
        raise ScenarioError(f"invalid [{where}] configuration: {exc}") from exc


def scenario_from_nested(data: dict[str, Any]) -> Scenario:
    """Build a scenario from {section: {key: value}} plus top-level keys."""
    updates: dict[str, Any] = {}
    sub_updates: dict[str, dict[str, Any]] = {}
    for section, payload in data.items():
        if section == "scenario":
            for key, value in payload.items():
                if key not in _SCENARIO_KEYS:
                    raise ScenarioError(f"unknown key {key!r} in [scenario]")
                updates[key] = _coerce(key, value)
            continue
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown section [{section}]")
        target, cls = _SECTIONS[section]
        if "." in target:
            head, _, rest = target.partition(".")
            sub_updates.setdefault(head, {})[rest] = (cls, payload)
        else:
            sub_updates.setdefault(target, {})["."] = (cls, payload)

    base = Scenario()
    for target, parts in sub_updates.items():
        own = dict(parts.get(".", (None, {}))[1])
        cls = parts.get(".", (type(getattr(base, target)), None))[0]
        # nested sections ([pat.mount] inside [pat]) become constructor args
        for rest, (sub_cls, payload) in parts.items():
            if rest == ".":
                continue
            own[rest] = _build(sub_cls, payload, f"{target}.{rest}")
        updates[target] = _build(cls, own, target)
    try:
        return replace(base, **updates)
    except (TypeError, ValueError, QkdPassError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def scenario_to_nested(scenario: Scenario) -> dict[str, Any]:
    """Inverse of scenario_from_nested on resolved scenarios."""
    def plain(value: Any) -> Any:
        if isinstance(value, tuple):
            return list(value)
        return value

    def section(obj, skip=()) -> dict[str, Any]:
        return {f.name: plain(getattr(obj, f.name))
                for f in fields(obj) if f.name not in skip}

    data: dict[str, Any] = {
        "scenario": {key: plain(getattr(scenario, key)) for key in _SCENARIO_KEYS},
        "site": section(scenario.site),
        "source": section(scenario.source),
        "link": section(scenario.link),
        "pat": section(scenario.pat, skip=("mount", "wfov", "nfov", "fsm")),
        "pat.mount": section(scenario.pat.mount),
        "pat.wfov": section(scenario.pat.wfov),
        "pat.nfov": section(scenario.pat.nfov),
        "pat.fsm": section(scenario.pat.fsm),
        "pcs": section(scenario.pcs, skip=("polarimeter",)),
        "pcs.polarimeter": section(scenario.pcs.polarimeter),
        "detectors.ground": section(scenario.ground_detector),
        "detectors.onboard": section(scenario.onboard_detector),
        "clock": section(scenario.clock),
        "sync": section(scenario.sync),
        "prediction": section(scenario.prediction),
        "protocol": section(scenario.protocol),
    }
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
