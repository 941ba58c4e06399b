"""Config file reading: one INI-style file with a section per component.

Keys match the model field names (lower_snake_case). Scenario overrides
live in [scenario:NAME] sections; the built-ins S1-S4 need no definition.
NAME, stripped, names the scenario's output directory, so it must be a
plain directory name other than the base run's and the top-level output
files'.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ConfigFileError
from .model import (BatterySpec, DieselSpec, EconomicsConfig, EmissionFactors,
                    EmsConfig, GridSpec, MicrogridConfig, POLLUTANTS, PvSpec,
                    WindSpec)
from .profiles import PRICE_CENTS, PRICE_CURRENCY
from .scenarios import BASE_KEY, OutageSpec, Scenario

SCENARIO_PREFIX = "scenario:"

# the files the CLI writes beside the scenarios' output directories
OUTPUT_FILE_NAMES = ("matrix.csv", "manifest.json", "trace.csv", "report.json")

DEFAULT_SHEAR_EXPONENT = 1.0 / 7.0

# the sections of the model's parameters, in the order they are read
_SECTIONS = ("pv", "wind", "diesel", "battery", "grid", "ems", "economics",
             "emissions", "simulation")


@dataclass(frozen=True)
class LoadedConfig:
    config: MicrogridConfig
    price_unit: str
    scenarios: dict[str, Scenario]


class _Section:
    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.values = dict(parser.items(name)) if parser.has_section(name) else {}
        self.seen: set[str] = set()

    def _fetch(self, key: str, default):
        """The key's raw text, or None where ``default`` is returned instead;
        MISSING as ``default`` makes the key required."""
        self.seen.add(key)
        raw = self.values.get(key)
        if raw is None and default is MISSING:
            raise ConfigFileError(f"[{self.name}] missing required key {key!r}")
        return raw

    def number(self, key: str, default=MISSING) -> float | None:
        raw = self._fetch(key, default)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigFileError(
                f"[{self.name}] {key}: not a number: {raw!r}") from None

    def integer(self, key: str, default=MISSING) -> int | None:
        value = self.number(key, default)
        if value is None:
            return None
        if not math.isfinite(value) or value != int(value):
            raise ConfigFileError(
                f"[{self.name}] {key}: must be an integer, got {value}")
        return int(value)

    def text(self, key: str, default=MISSING) -> str | None:
        raw = self._fetch(key, default)
        return default if raw is None else raw.strip()

    def flag(self, key: str, default: bool) -> bool:
        raw = self._fetch(key, default)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigFileError(f"[{self.name}] {key}: not a boolean: {raw!r}")

    def reject_unknown(self) -> None:
        unknown = set(self.values) - self.seen
        if unknown:
            raise ConfigFileError(
                f"[{self.name}] unknown key(s): {', '.join(sorted(unknown))}")


def _read_parser(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigFileError(f"config file {path} is not UTF-8: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigFileError(f"config file {path}: {exc}") from exc
    return parser


def _load_spec(section: _Section, spec: type, **defaults):
    """``spec`` with each field read from the section's key of its name: a
    str field as text, an int field as an integer, any other as a number.
    A key is required unless ``defaults`` or the field gives a default."""
    # model.py postpones its annotations, so a field's type is its text
    read = {"str": section.text, "int": section.integer}
    return spec(**{field.name: read.get(field.type, section.number)(
        field.name, defaults.get(field.name, field.default))
        for field in fields(spec)})


def _load_emissions(section: _Section) -> EmissionFactors:
    factors: dict[str, dict[str, float]] = {"dg": {}, "grid": {}}
    for pollutant in POLLUTANTS:
        for side, side_factors in factors.items():
            value = section.number(f"{side}_{pollutant}", None)
            if value is not None:
                side_factors[pollutant] = value
    return EmissionFactors(
        **factors,
        export_offset_enabled=section.flag("export_offset_enabled", False))


def _scenario_name(section: str, taken: dict[str, Scenario]) -> str:
    """The scenario id of a [scenario:NAME] section; ConfigFileError if it
    cannot name its own directory under the output directory."""
    name = section[len(SCENARIO_PREFIX):].strip()
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        problem = "is not a plain directory name"
    elif name == BASE_KEY:
        problem = "is reserved for the base run"
    elif name in OUTPUT_FILE_NAMES:
        problem = "is the name of an output file"
    elif name in taken:
        problem = "is defined twice"
    else:
        return name
    raise ConfigFileError(f"[{section}] scenario name {name!r} {problem}")


def _load_scenario(parser: configparser.ConfigParser, section_name: str,
                   name: str) -> Scenario:
    section = _Section(parser, section_name)
    outage_start = section.integer("outage_start", None)
    outage_steps = section.integer("outage_steps", None)
    outage_hours = section.number("outage_hours", None)
    outage = None
    if outage_steps is not None or outage_hours is not None or outage_start is not None:
        if outage_steps is None and outage_hours is None:
            raise ConfigFileError(
                f"[{section.name}] outage_start needs outage_steps or outage_hours")
        outage = OutageSpec(start_step=outage_start,
                            duration_steps=outage_steps,
                            duration_hours=outage_hours)
    scenario = Scenario(
        id=name,
        demand_multiplier=section.number("demand_multiplier", 1.0),
        pv_multiplier=section.number("pv_multiplier", 1.0),
        wind_multiplier=section.number("wind_multiplier", 1.0),
        fuel_price_multiplier=section.number("fuel_price_multiplier", 1.0),
        outage=outage,
    )
    section.reject_unknown()
    return scenario


def load_config(path: str | Path) -> LoadedConfig:
    """Read and assemble a config file (structure only; validate separately)."""
    path = Path(path)
    parser = _read_parser(path)
    sections = {name: _Section(parser, name) for name in _SECTIONS}
    wind, simulation = sections["wind"], sections["simulation"]
    config = MicrogridConfig(
        pv=_load_spec(sections["pv"], PvSpec),
        # the hub height, read first, is the anemometer's default height
        wind=_load_spec(wind, WindSpec,
                        anemometer_height_m=wind.number("hub_height_m"),
                        shear_exponent=DEFAULT_SHEAR_EXPONENT),
        diesel=_load_spec(sections["diesel"], DieselSpec),
        battery=_load_spec(sections["battery"], BatterySpec),
        grid=_load_spec(sections["grid"], GridSpec),
        ems=_load_spec(sections["ems"], EmsConfig),
        economics=_load_spec(sections["economics"], EconomicsConfig),
        emissions=_load_emissions(sections["emissions"]),
        step_hours=simulation.number("step_hours", 1.0))
    price_unit = simulation.text("price_unit", PRICE_CURRENCY)
    if price_unit not in (PRICE_CURRENCY, PRICE_CENTS):
        raise ConfigFileError(
            f"[simulation] price_unit: expected {PRICE_CURRENCY} or "
            f"{PRICE_CENTS}, got {price_unit!r}")

    for section in sections.values():
        section.reject_unknown()
    scenarios = {}
    for name in parser.sections():
        if name in sections:
            continue
        if name.startswith(SCENARIO_PREFIX):
            scenario_name = _scenario_name(name, scenarios)
            scenarios[scenario_name] = _load_scenario(parser, name,
                                                      scenario_name)
        else:
            raise ConfigFileError(f"unknown section [{name}]")

    return LoadedConfig(config=config, price_unit=price_unit,
                        scenarios=scenarios)
