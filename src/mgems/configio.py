"""Config file reading: one INI-style file with a section per component.

Keys match the model field names (lower_snake_case). Scenario overrides
live in [scenario:NAME] sections; the built-ins S1-S4 need no definition.
NAME, stripped, names the scenario's output directory, so it must be a
plain directory name other than the base run's.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigFileError
from .model import (BatterySpec, DieselSpec, EconomicsConfig, EmissionFactors,
                    EmsConfig, GridSpec, MicrogridConfig, POLLUTANTS, PvSpec,
                    WindSpec)
from .profiles import PRICE_CENTS, PRICE_CURRENCY
from .scenarios import BASE_KEY, OutageSpec, Scenario

SCENARIO_PREFIX = "scenario:"

DEFAULT_SHEAR_EXPONENT = 1.0 / 7.0


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

    def _fetch(self, key: str):
        self.seen.add(key)
        return self.values.get(key)

    def number(self, key: str, default: float | None = None) -> float:
        raw = self._fetch(key)
        if raw is None:
            if default is None:
                raise ConfigFileError(f"[{self.name}] missing required key {key!r}")
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigFileError(
                f"[{self.name}] {key}: not a number: {raw!r}") from None

    def opt_number(self, key: str) -> float | None:
        raw = self._fetch(key)
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            raise ConfigFileError(
                f"[{self.name}] {key}: not a number: {raw!r}") from None

    def _whole(self, key: str, value: float) -> int:
        if not math.isfinite(value) or value != int(value):
            raise ConfigFileError(
                f"[{self.name}] {key}: must be an integer, got {value}")
        return int(value)

    def integer(self, key: str, default: int | None = None) -> int:
        return self._whole(key, self.number(key, default))

    def opt_integer(self, key: str) -> int | None:
        value = self.opt_number(key)
        return None if value is None else self._whole(key, value)

    def text(self, key: str, default: str | None = None) -> str:
        raw = self._fetch(key)
        if raw is None:
            if default is None:
                raise ConfigFileError(f"[{self.name}] missing required key {key!r}")
            return default
        return raw.strip()

    def flag(self, key: str, default: bool) -> bool:
        raw = self._fetch(key)
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
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigFileError(f"config file {path}: {exc}") from exc
    return parser


def _load_ems(section: _Section) -> EmsConfig:
    return EmsConfig(
        threshold_mode=section.text("threshold_mode"),
        fixed_threshold=section.opt_number("fixed_threshold"),
        percentile=section.opt_number("percentile"),
        load_threshold_kw=section.opt_number("load_threshold_kw"),
    )


def _load_emissions(section: _Section) -> EmissionFactors:
    dg = {}
    grid = {}
    for pollutant in POLLUTANTS:
        value = section.opt_number(f"dg_{pollutant}")
        if value is not None:
            dg[pollutant] = value
        value = section.opt_number(f"grid_{pollutant}")
        if value is not None:
            grid[pollutant] = value
    return EmissionFactors(
        dg=dg, grid=grid,
        export_offset_enabled=section.flag("export_offset_enabled", False))


def _scenario_name(section: str, taken: dict[str, Scenario]) -> str:
    """The scenario id of a [scenario:NAME] section; ConfigFileError if it
    cannot name its own directory under the output directory."""
    name = section[len(SCENARIO_PREFIX):].strip()
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        problem = "is not a plain directory name"
    elif name == BASE_KEY:
        problem = "is reserved for the base run"
    elif name in taken:
        problem = "is defined twice"
    else:
        return name
    raise ConfigFileError(f"[{section}] scenario name {name!r} {problem}")


def _load_scenario(parser: configparser.ConfigParser, section_name: str,
                   name: str) -> Scenario:
    section = _Section(parser, section_name)
    outage_start = section.opt_integer("outage_start")
    outage_steps = section.opt_integer("outage_steps")
    outage_hours = section.opt_number("outage_hours")
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

    pv = _Section(parser, "pv")
    pv_spec = PvSpec(
        capacity_kw=pv.number("capacity_kw"),
        derating_factor=pv.number("derating_factor"),
        capital_cost=pv.number("capital_cost"),
        replacement_cost=pv.number("replacement_cost"),
        om_cost=pv.number("om_cost"),
        lifetime_years=pv.number("lifetime_years"),
    )

    wind = _Section(parser, "wind")
    hub_height = wind.number("hub_height_m")
    wind_spec = WindSpec(
        capacity_kw=wind.number("capacity_kw"),
        unit_rated_kw=wind.number("unit_rated_kw"),
        cut_in_ms=wind.number("cut_in_ms"),
        cut_out_ms=wind.number("cut_out_ms"),
        rated_speed_ms=wind.number("rated_speed_ms"),
        hub_height_m=hub_height,
        anemometer_height_m=wind.number("anemometer_height_m", hub_height),
        shear_exponent=wind.number("shear_exponent", DEFAULT_SHEAR_EXPONENT),
        capital_cost=wind.number("capital_cost"),
        om_cost=wind.number("om_cost"),
        lifetime_years=wind.number("lifetime_years"),
    )

    diesel = _Section(parser, "diesel")
    diesel_spec = DieselSpec(
        capacity_kw=diesel.number("capacity_kw"),
        capital_cost=diesel.number("capital_cost"),
        om_cost=diesel.number("om_cost"),
        fuel_cost_per_kwh=diesel.number("fuel_cost_per_kwh"),
        min_loading_fraction=diesel.number("min_loading_fraction", 0.0),
    )

    battery = _Section(parser, "battery")
    battery_spec = BatterySpec(
        capacity_kwh=battery.number("capacity_kwh"),
        roundtrip_efficiency=battery.number("roundtrip_efficiency"),
        depth_of_discharge=battery.number("depth_of_discharge"),
        soc_min=battery.number("soc_min"),
        soc_max=battery.number("soc_max"),
        max_charge_kw=battery.number("max_charge_kw"),
        max_discharge_kw=battery.number("max_discharge_kw"),
        capital_cost=battery.number("capital_cost"),
        om_cost=battery.number("om_cost"),
        lifetime_years=battery.number("lifetime_years"),
    )

    grid = _Section(parser, "grid")
    grid_spec = GridSpec(
        import_limit_kw=grid.number("import_limit_kw"),
        export_limit_kw=grid.number("export_limit_kw"),
        sell_price_ratio=grid.number("sell_price_ratio", 1.0),
    )

    ems = _Section(parser, "ems")
    ems_config = _load_ems(ems)

    economics = _Section(parser, "economics")
    econ_config = EconomicsConfig(
        discount_rate=economics.number("discount_rate"),
        project_lifetime_years=economics.integer("project_lifetime_years"),
        converter_efficiency=economics.number("converter_efficiency"),
        converter_capital_cost=economics.number("converter_capital_cost"),
    )

    emissions = _Section(parser, "emissions")
    emission_factors = _load_emissions(emissions)

    simulation = _Section(parser, "simulation")
    step_hours = simulation.number("step_hours", 1.0)
    price_unit = simulation.text("price_unit", PRICE_CURRENCY)
    if price_unit not in (PRICE_CURRENCY, PRICE_CENTS):
        raise ConfigFileError(
            f"[simulation] price_unit: expected {PRICE_CURRENCY} or "
            f"{PRICE_CENTS}, got {price_unit!r}")

    for section in (pv, wind, diesel, battery, grid, ems, economics,
                    emissions, simulation):
        section.reject_unknown()
    known = {"pv", "wind", "diesel", "battery", "grid", "ems", "economics",
             "emissions", "simulation"}
    scenarios = {}
    for name in parser.sections():
        if name in known:
            continue
        if name.startswith(SCENARIO_PREFIX):
            scenario_name = _scenario_name(name, scenarios)
            scenarios[scenario_name] = _load_scenario(parser, name,
                                                      scenario_name)
        else:
            raise ConfigFileError(f"unknown section [{name}]")

    config = MicrogridConfig(
        pv=pv_spec, wind=wind_spec, diesel=diesel_spec, battery=battery_spec,
        grid=grid_spec, ems=ems_config, economics=econ_config,
        emissions=emission_factors, step_hours=step_hours)
    return LoadedConfig(config=config, price_unit=price_unit,
                        scenarios=scenarios)
