"""Typed microgrid model: component specs, EMS settings, and validation.

All types are frozen dataclasses, immutable after construction and safe to
share across threads. Validation never raises on bad parameter values; it
returns a report listing every violated invariant so callers can surface all
problems at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

POLLUTANTS = ("co2", "co", "uh", "pm", "so2", "no2")

THRESHOLD_FIXED = "fixed-price"
THRESHOLD_PERCENTILE = "price-percentile"
THRESHOLD_LOAD = "load-threshold"
THRESHOLD_MODES = (THRESHOLD_FIXED, THRESHOLD_PERCENTILE, THRESHOLD_LOAD)

# bounds on the cash-flow loops of the economic metrics: a year's discount
# factor (1 + rate) ** year stays far from overflow, and each component is
# replaced at most _MAX_REPLACEMENTS times over the project
_MAX_DISCOUNT_RATE = 1.0
_MAX_PROJECT_YEARS = 100
_MAX_REPLACEMENTS = 100

# step length from one second to one year: beyond either end the kernel's
# charge headroom, (e_max - energy) / (sqrt_eta * step), can lose its
# precision to subnormal numbers or divide by zero
_MIN_STEP_HOURS = 1.0 / 3600.0
_MAX_STEP_HOURS = 8760.0


@dataclass(frozen=True)
class PvSpec:
    """Photovoltaic array rating and economics."""

    capacity_kw: float
    derating_factor: float
    capital_cost: float          # currency/kW
    replacement_cost: float      # currency/kW
    om_cost: float               # currency/kW/yr
    lifetime_years: float


@dataclass(frozen=True)
class WindSpec:
    """Wind fleet rating, power-curve parameters, and economics.

    capacity_kw is the fleet total and must be a whole multiple of the
    per-turbine rating. Measured wind speeds are corrected from anemometer
    height to hub height with a power-law shear profile.
    """

    capacity_kw: float
    unit_rated_kw: float
    cut_in_ms: float
    cut_out_ms: float
    rated_speed_ms: float
    hub_height_m: float
    anemometer_height_m: float
    shear_exponent: float
    capital_cost: float          # currency/kW
    om_cost: float               # currency/kW/yr
    lifetime_years: float


@dataclass(frozen=True)
class DieselSpec:
    """Backup diesel generator rating and cost model."""

    capacity_kw: float
    capital_cost: float          # currency/kW
    om_cost: float               # currency/h/kW while running
    fuel_cost_per_kwh: float     # currency per kWh of electrical output
    min_loading_fraction: float = 0.0


@dataclass(frozen=True)
class BatterySpec:
    """Battery energy storage rating, SOC band, and economics.

    The roundtrip efficiency is split symmetrically: each direction applies
    sqrt(roundtrip_efficiency) at the terminals.
    """

    capacity_kwh: float
    roundtrip_efficiency: float
    depth_of_discharge: float
    soc_min: float
    soc_max: float
    max_charge_kw: float
    max_discharge_kw: float
    capital_cost: float          # currency/kWh
    om_cost: float               # currency/kWh/yr
    lifetime_years: float


@dataclass(frozen=True)
class GridSpec:
    """Point-of-connection limits and export pricing."""

    import_limit_kw: float
    export_limit_kw: float
    sell_price_ratio: float = 1.0


@dataclass(frozen=True)
class EmsConfig:
    """Charge/discharge threshold rule.

    Exactly one of the mode parameters may be set, matching threshold_mode:
    a fixed price, a percentile of the horizon's price series, or a load
    level compared against demand instead of price.
    """

    threshold_mode: str
    fixed_threshold: float | None = None      # currency/kWh
    percentile: float | None = None           # fraction in (0, 1)
    load_threshold_kw: float | None = None


@dataclass(frozen=True)
class EconomicsConfig:
    """Project-level financial parameters.

    The discount rate and project lifetime are artifact inputs with no
    published source values; they must be chosen by the user.
    """

    discount_rate: float
    project_lifetime_years: int
    converter_efficiency: float
    converter_capital_cost: float     # currency/kW


@dataclass(frozen=True)
class EmissionFactors:
    """Per-pollutant emission factors in kg per kWh.

    dg applies to diesel electrical output, grid to imported energy. With
    export_offset_enabled, exported energy offsets grid-factor emissions
    (net values may then be negative).
    """

    dg: dict[str, float] = field(default_factory=dict)
    grid: dict[str, float] = field(default_factory=dict)
    export_offset_enabled: bool = False


@dataclass(frozen=True)
class MicrogridConfig:
    """The simulation's complete immutable parameter set."""

    pv: PvSpec
    wind: WindSpec
    diesel: DieselSpec
    battery: BatterySpec
    grid: GridSpec
    ems: EmsConfig
    economics: EconomicsConfig
    emissions: EmissionFactors
    step_hours: float = 1.0


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class _Checker:
    def __init__(self) -> None:
        self.violations: list[Violation] = []

    def check(self, condition: bool, path: str, message: str) -> None:
        if not condition:
            self.violations.append(Violation(path, message))

    def finite(self, value: float, path: str) -> bool:
        if not _finite(value):
            self.violations.append(Violation(path, f"must be a finite number, got {value!r}"))
            return False
        return True

    def nonneg(self, value: float, path: str) -> None:
        if self.finite(value, path):
            self.check(value >= 0, path, f"must be >= 0, got {value}")

    def positive(self, value: float, path: str) -> None:
        if self.finite(value, path):
            self.check(value > 0, path, f"must be > 0, got {value}")


def _check_pv(c: _Checker, pv: PvSpec) -> None:
    c.nonneg(pv.capacity_kw, "pv.capacity_kw")
    if c.finite(pv.derating_factor, "pv.derating_factor"):
        c.check(0 < pv.derating_factor <= 1, "pv.derating_factor",
                f"must be in (0, 1], got {pv.derating_factor}")
    c.nonneg(pv.capital_cost, "pv.capital_cost")
    c.nonneg(pv.replacement_cost, "pv.replacement_cost")
    c.nonneg(pv.om_cost, "pv.om_cost")
    c.positive(pv.lifetime_years, "pv.lifetime_years")


def _check_wind(c: _Checker, w: WindSpec) -> None:
    ok = True
    for name in ("cut_in_ms", "rated_speed_ms", "cut_out_ms"):
        ok = c.finite(getattr(w, name), f"wind.{name}") and ok
    if ok:
        c.check(0 < w.cut_in_ms < w.rated_speed_ms < w.cut_out_ms, "wind.speeds",
                "must satisfy 0 < cut_in < rated_speed < cut_out, got "
                f"({w.cut_in_ms}, {w.rated_speed_ms}, {w.cut_out_ms})")
    c.nonneg(w.capacity_kw, "wind.capacity_kw")
    c.positive(w.unit_rated_kw, "wind.unit_rated_kw")
    if w.unit_rated_kw > 0 and math.isfinite(w.capacity_kw) and w.capacity_kw >= 0:
        units = w.capacity_kw / w.unit_rated_kw
        # an overflowing quotient counts no whole number of units
        c.check(math.isfinite(units) and abs(units - round(units)) < 1e-9,
                "wind.capacity_kw",
                f"must be a whole multiple of unit_rated_kw ({w.unit_rated_kw}), "
                f"got {w.capacity_kw}")
    c.positive(w.hub_height_m, "wind.hub_height_m")
    # the shear correction needs a usable anemometer height
    c.positive(w.anemometer_height_m, "wind.anemometer_height_m")
    c.nonneg(w.shear_exponent, "wind.shear_exponent")
    c.nonneg(w.capital_cost, "wind.capital_cost")
    c.nonneg(w.om_cost, "wind.om_cost")
    c.positive(w.lifetime_years, "wind.lifetime_years")


def _check_diesel(c: _Checker, d: DieselSpec) -> None:
    c.nonneg(d.capacity_kw, "diesel.capacity_kw")
    c.nonneg(d.capital_cost, "diesel.capital_cost")
    c.nonneg(d.om_cost, "diesel.om_cost")
    c.nonneg(d.fuel_cost_per_kwh, "diesel.fuel_cost_per_kwh")
    if c.finite(d.min_loading_fraction, "diesel.min_loading_fraction"):
        c.check(0 <= d.min_loading_fraction <= 1, "diesel.min_loading_fraction",
                f"must be in [0, 1], got {d.min_loading_fraction}")


def _check_battery(c: _Checker, b: BatterySpec) -> None:
    c.nonneg(b.capacity_kwh, "battery.capacity_kwh")
    if c.finite(b.roundtrip_efficiency, "battery.roundtrip_efficiency"):
        c.check(0 < b.roundtrip_efficiency <= 1, "battery.roundtrip_efficiency",
                f"must be in (0, 1], got {b.roundtrip_efficiency}")
    if c.finite(b.depth_of_discharge, "battery.depth_of_discharge"):
        c.check(0 < b.depth_of_discharge <= 1, "battery.depth_of_discharge",
                f"must be in (0, 1], got {b.depth_of_discharge}")
    band_ok = c.finite(b.soc_min, "battery.soc_min") and c.finite(b.soc_max, "battery.soc_max")
    if band_ok:
        c.check(0 <= b.soc_min < b.soc_max <= 1, "battery.soc_band",
                f"must satisfy 0 <= soc_min < soc_max <= 1, got [{b.soc_min}, {b.soc_max}]")
        if math.isfinite(b.depth_of_discharge):
            c.check(b.soc_max - b.soc_min <= b.depth_of_discharge + 1e-12, "battery.soc_band",
                    f"band width {b.soc_max - b.soc_min} exceeds depth_of_discharge "
                    f"{b.depth_of_discharge}")
    c.nonneg(b.max_charge_kw, "battery.max_charge_kw")
    c.nonneg(b.max_discharge_kw, "battery.max_discharge_kw")
    c.nonneg(b.capital_cost, "battery.capital_cost")
    c.nonneg(b.om_cost, "battery.om_cost")
    c.positive(b.lifetime_years, "battery.lifetime_years")


def _check_grid(c: _Checker, g: GridSpec) -> None:
    c.nonneg(g.import_limit_kw, "grid.import_limit_kw")
    c.nonneg(g.export_limit_kw, "grid.export_limit_kw")
    c.nonneg(g.sell_price_ratio, "grid.sell_price_ratio")


def _check_ems(c: _Checker, e: EmsConfig) -> None:
    if e.threshold_mode not in THRESHOLD_MODES:
        c.violations.append(Violation(
            "ems.threshold_mode",
            f"must be one of {', '.join(THRESHOLD_MODES)}, got {e.threshold_mode!r}"))
        return
    params = {
        THRESHOLD_FIXED: "fixed_threshold",
        THRESHOLD_PERCENTILE: "percentile",
        THRESHOLD_LOAD: "load_threshold_kw",
    }
    active = params[e.threshold_mode]
    for mode, name in params.items():
        value = getattr(e, name)
        if name == active:
            if value is None:
                c.violations.append(Violation(
                    f"ems.{name}", f"required in {mode} mode"))
        elif value is not None:
            c.violations.append(Violation(
                f"ems.{name}", f"must be unset in {e.threshold_mode} mode"))
    value = getattr(e, active)
    if value is not None and c.finite(value, f"ems.{active}"):
        if active == "percentile":
            c.check(0 < value < 1, "ems.percentile", f"must be in (0, 1), got {value}")
        else:
            c.check(value >= 0, f"ems.{active}", f"must be >= 0, got {value}")


def _check_economics(c: _Checker, e: EconomicsConfig) -> None:
    c.nonneg(e.discount_rate, "economics.discount_rate")
    if _finite(e.discount_rate):
        c.check(e.discount_rate <= _MAX_DISCOUNT_RATE, "economics.discount_rate",
                f"must be <= {_MAX_DISCOUNT_RATE}, got {e.discount_rate}")
    if c.finite(e.project_lifetime_years, "economics.project_lifetime_years"):
        c.check(e.project_lifetime_years >= 1, "economics.project_lifetime_years",
                f"must be >= 1, got {e.project_lifetime_years}")
        c.check(e.project_lifetime_years <= _MAX_PROJECT_YEARS,
                "economics.project_lifetime_years",
                f"must be <= {_MAX_PROJECT_YEARS}, got {e.project_lifetime_years}")
    if c.finite(e.converter_efficiency, "economics.converter_efficiency"):
        c.check(0 < e.converter_efficiency <= 1, "economics.converter_efficiency",
                f"must be in (0, 1], got {e.converter_efficiency}")
    c.nonneg(e.converter_capital_cost, "economics.converter_capital_cost")


def _check_replacements(c: _Checker, config: MicrogridConfig) -> None:
    """Each replaced component lasts at least 1/_MAX_REPLACEMENTS of a
    valid project lifetime."""
    years = config.economics.project_lifetime_years
    if not (_finite(years) and 1 <= years <= _MAX_PROJECT_YEARS):
        return
    for name in ("pv", "wind", "battery"):
        lifetime = getattr(config, name).lifetime_years
        if _finite(lifetime) and lifetime > 0:
            c.check(lifetime * _MAX_REPLACEMENTS >= years, f"{name}.lifetime_years",
                    f"must be >= project_lifetime_years / {_MAX_REPLACEMENTS} "
                    f"({years / _MAX_REPLACEMENTS}), got {lifetime}")


def _check_emissions(c: _Checker, e: EmissionFactors) -> None:
    for side, factors in (("dg", e.dg), ("grid", e.grid)):
        for pollutant, value in factors.items():
            if pollutant not in POLLUTANTS:
                c.violations.append(Violation(
                    f"emissions.{side}.{pollutant}",
                    f"unknown pollutant (expected one of {', '.join(POLLUTANTS)})"))
            else:
                c.nonneg(value, f"emissions.{side}.{pollutant}")


def validate_config(config: MicrogridConfig) -> ValidationReport:
    """Check every model invariant, returning all violations found.

    A config with an empty report is safe for every dispatch and metrics
    operation in this package. Pure: equal configs yield equal reports.
    """
    c = _Checker()
    _check_pv(c, config.pv)
    _check_wind(c, config.wind)
    _check_diesel(c, config.diesel)
    _check_battery(c, config.battery)
    _check_grid(c, config.grid)
    _check_ems(c, config.ems)
    _check_economics(c, config.economics)
    _check_replacements(c, config)
    _check_emissions(c, config.emissions)
    if c.finite(config.step_hours, "step_hours"):
        c.check(_MIN_STEP_HOURS <= config.step_hours <= _MAX_STEP_HOURS,
                "step_hours", f"must be in [1/3600, {_MAX_STEP_HOURS}] "
                f"(one second to one year), got {config.step_hours}")
    return ValidationReport(tuple(c.violations))
