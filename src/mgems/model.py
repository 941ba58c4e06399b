"""Typed microgrid model: component specs, EMS settings, and validation.

All types are frozen dataclasses, immutable after construction and safe to
share across threads. validate_config never raises on bad parameter values;
it returns a report listing every violated invariant so callers can surface
all problems at once. validate_scenario raises ValueError on a scenario's
first bad value instead, since apply_scenario and the CLI need an exception.

Each numeric field declares its range on itself, with _ranged; the emission
factors and the EMS threshold parameters, whose checks depend on which values
are set, are checked by _check_emissions and _check_ems. Violations are listed
section by section in MicrogridConfig's field order: within a section, its
field ranges in field order, then its checks that compare fields (the wind
speed order, whole units and a finite shear factor, the battery SOC band,
the EMS mode, and, after [economics], the component lifetimes against the
project's); step_hours comes last.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

POLLUTANTS = ("co2", "co", "uh", "pm", "so2", "no2")

THRESHOLD_FIXED = "fixed-price"
THRESHOLD_PERCENTILE = "price-percentile"
THRESHOLD_LOAD = "load-threshold"
THRESHOLD_MODES = (THRESHOLD_FIXED, THRESHOLD_PERCENTILE, THRESHOLD_LOAD)

PRICE_CURRENCY = "currency_per_kwh"
PRICE_CENTS = "cents_per_kwh"

BASE_KEY = "base"

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


def _ranged(*bounds, default=MISSING):
    """A numeric field whose value must be a number by _number, an integer
    where annotated int, finite, and pass each (test, wording) bound."""
    return field(default=default, metadata={"bounds": bounds})


_NONNEG = (lambda v: v >= 0, ">= 0")
_POSITIVE = (lambda v: v > 0, "> 0")
_FRACTION = (lambda v: 0 < v <= 1, "in (0, 1]")


@dataclass(frozen=True)
class PvSpec:
    """Photovoltaic array rating and economics."""

    capacity_kw: float = _ranged(_NONNEG)
    derating_factor: float = _ranged(_FRACTION)
    capital_cost: float = _ranged(_NONNEG)          # currency/kW
    replacement_cost: float = _ranged(_NONNEG)      # currency/kW
    om_cost: float = _ranged(_NONNEG)               # currency/kW/yr
    lifetime_years: float = _ranged(_POSITIVE)


@dataclass(frozen=True)
class WindSpec:
    """Wind fleet rating, power-curve parameters, and economics.

    capacity_kw is the fleet total and must be a whole multiple of the
    per-turbine rating. Measured wind speeds are corrected from anemometer
    height to hub height with a power-law shear profile.
    """

    capacity_kw: float = _ranged(_NONNEG)
    unit_rated_kw: float = _ranged(_POSITIVE)
    cut_in_ms: float = _ranged()                # ordered by _check_wind
    cut_out_ms: float = _ranged()
    rated_speed_ms: float = _ranged()
    hub_height_m: float = _ranged(_POSITIVE)
    # the shear correction needs a usable anemometer height
    anemometer_height_m: float = _ranged(_POSITIVE)
    shear_exponent: float = _ranged(_NONNEG)
    capital_cost: float = _ranged(_NONNEG)          # currency/kW
    om_cost: float = _ranged(_NONNEG)               # currency/kW/yr
    lifetime_years: float = _ranged(_POSITIVE)


@dataclass(frozen=True)
class DieselSpec:
    """Backup diesel generator rating and cost model."""

    capacity_kw: float = _ranged(_NONNEG)
    capital_cost: float = _ranged(_NONNEG)          # currency/kW
    om_cost: float = _ranged(_NONNEG)               # currency/h/kW while running
    fuel_cost_per_kwh: float = _ranged(_NONNEG)     # currency per kWh of electrical output
    min_loading_fraction: float = _ranged((lambda v: 0 <= v <= 1, "in [0, 1]"),
                                          default=0.0)


@dataclass(frozen=True)
class BatterySpec:
    """Battery energy storage rating, SOC band, and economics.

    The roundtrip efficiency is split symmetrically: each direction applies
    sqrt(roundtrip_efficiency) at the terminals.
    """

    capacity_kwh: float = _ranged(_NONNEG)
    roundtrip_efficiency: float = _ranged(_FRACTION)
    depth_of_discharge: float = _ranged(_FRACTION)
    soc_min: float = _ranged()                  # a band, checked by _check_battery
    soc_max: float = _ranged()
    max_charge_kw: float = _ranged(_NONNEG)
    max_discharge_kw: float = _ranged(_NONNEG)
    capital_cost: float = _ranged(_NONNEG)          # currency/kWh
    om_cost: float = _ranged(_NONNEG)               # currency/kWh/yr
    lifetime_years: float = _ranged(_POSITIVE)


@dataclass(frozen=True)
class GridSpec:
    """Point-of-connection limits and export pricing."""

    import_limit_kw: float = _ranged(_NONNEG)
    export_limit_kw: float = _ranged(_NONNEG)
    sell_price_ratio: float = _ranged(_NONNEG, default=1.0)


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

    discount_rate: float = _ranged(
        _NONNEG, (lambda v: v <= _MAX_DISCOUNT_RATE, f"<= {_MAX_DISCOUNT_RATE}"))
    project_lifetime_years: int = _ranged(
        (lambda v: v >= 1, ">= 1"),
        (lambda v: v <= _MAX_PROJECT_YEARS, f"<= {_MAX_PROJECT_YEARS}"))
    converter_efficiency: float = _ranged(_FRACTION)
    converter_capital_cost: float = _ranged(_NONNEG)     # currency/kW


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
    step_hours: float = _ranged(
        (lambda v: _MIN_STEP_HOURS <= v <= _MAX_STEP_HOURS,
         f"in [1/3600, {_MAX_STEP_HOURS}] (one second to one year)"),
        default=1.0)


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


def _number(value, integer: bool = False) -> bool:
    """The one rule for a number, in every numeric field of a config and a
    scenario: an int or a float (np.float64 is one) in a real field, what
    operator.index takes (numpy's ints too) in an integer field; no bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        return False
    return hasattr(type(value), "__index__") if integer else isinstance(value, (int, float))


def _finite(value, integer: bool = False) -> bool:
    try:
        return _number(value, integer) and math.isfinite(value)
    except OverflowError:  # an int beyond any float
        return False


def shown(value, text=str) -> str:
    """``text(value)`` for a message, bounded: an int beyond str()'s digit
    limit (see sys.set_int_max_str_digits) by its size, and a value other
    than an int or a float by its type and at most 40 characters of its text."""
    try:
        out = text(value)
    except ValueError:  # a Fraction beyond the digit limit, say
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
        return f"a {type(value).__name__} beyond str()'s digit limit"
    if _number(value):
        return out
    return f"{out[:40]}{'...' * (len(out) > 40)} of type {type(value).__name__}"


class _Checker:
    def __init__(self) -> None:
        self.violations: list[Violation] = []

    def check(self, condition: bool, path: str, message: str) -> None:
        if not condition:
            self.violations.append(Violation(path, message))

    def within(self, value: float, path: str, bounds, integer: bool = False) -> None:
        """Check that ``value`` is a finite number, an integer if
        ``integer``, and passes each (test, wording) bound."""
        if not _finite(value, integer):
            wanted = ("a finite number" if _number(value, integer)
                      else "an integer" if integer else "an int or a float")
            self.violations.append(Violation(path, f"must be {wanted}, got {shown(value, repr)}"))
        else:
            for test, wording in bounds:
                self.check(test(value), path, f"must be {wording}, got {value}")


def _check_wind(c: _Checker, config: MicrogridConfig) -> None:
    w = config.wind
    if all(_finite(v) for v in (w.cut_in_ms, w.rated_speed_ms, w.cut_out_ms)):
        c.check(0 < w.cut_in_ms < w.rated_speed_ms < w.cut_out_ms, "wind.speeds",
                "must satisfy 0 < cut_in < rated_speed < cut_out, got "
                f"({w.cut_in_ms}, {w.rated_speed_ms}, {w.cut_out_ms})")
    if _finite(w.unit_rated_kw) and w.unit_rated_kw > 0 and _finite(w.capacity_kw) \
            and w.capacity_kw >= 0:
        # Python's float /, which overflows to inf where numpy's warns;
        # an overflowing quotient counts no whole number of units
        units = float(w.capacity_kw) / float(w.unit_rated_kw)
        c.check(math.isfinite(units) and abs(units - round(units)) < 1e-9,
                "wind.capacity_kw",
                f"must be a whole multiple of unit_rated_kw ({w.unit_rated_kw}), "
                f"got {w.capacity_kw}")
    heights = (w.hub_height_m, w.anemometer_height_m)
    if all(_finite(h) and h > 0 for h in heights) \
            and _finite(w.shear_exponent) and w.shear_exponent >= 0:
        # Python's float ** (numpy's warns where it overflows), as the
        # resource conversion computes it for a config read from a file
        ratio = float(w.hub_height_m) / float(w.anemometer_height_m)
        try:
            factor = ratio ** float(w.shear_exponent)
        except OverflowError:
            factor = math.inf
        c.check(math.isfinite(factor), "wind.shear_exponent",
                "must keep the shear factor (hub_height_m / anemometer_height_m)"
                f" ** shear_exponent finite, got {ratio} ** {w.shear_exponent}")


def _check_battery(c: _Checker, config: MicrogridConfig) -> None:
    b = config.battery
    if _finite(b.soc_min) and _finite(b.soc_max):
        c.check(0 <= b.soc_min < b.soc_max <= 1, "battery.soc_band",
                f"must satisfy 0 <= soc_min < soc_max <= 1, got [{b.soc_min}, {b.soc_max}]")
        if _finite(b.depth_of_discharge):
            c.check(b.soc_max - b.soc_min <= b.depth_of_discharge + 1e-12, "battery.soc_band",
                    f"band width {b.soc_max - b.soc_min} exceeds depth_of_discharge "
                    f"{b.depth_of_discharge}")


def _check_ems(c: _Checker, config: MicrogridConfig) -> None:
    e = config.ems
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
        if name == active:
            c.check(getattr(e, name) is not None, f"ems.{name}", f"required in {mode} mode")
        else:
            c.check(getattr(e, name) is None, f"ems.{name}",
                    f"must be unset in {e.threshold_mode} mode")
    value = getattr(e, active)
    if value is not None:
        c.within(value, f"ems.{active}", [(lambda v: 0 < v < 1, "in (0, 1)")]
                 if active == "percentile" else [_NONNEG])


def _check_replacements(c: _Checker, config: MicrogridConfig) -> None:
    """Each replaced component lasts at least 1/_MAX_REPLACEMENTS of a
    valid project lifetime."""
    years = config.economics.project_lifetime_years
    if not (_finite(years, integer=True) and 1 <= years <= _MAX_PROJECT_YEARS):
        return
    for name in ("pv", "wind", "battery"):
        lifetime = getattr(config, name).lifetime_years
        if _finite(lifetime) and lifetime > 0:
            c.check(lifetime * _MAX_REPLACEMENTS >= years, f"{name}.lifetime_years",
                    f"must be >= project_lifetime_years / {_MAX_REPLACEMENTS} "
                    f"({years / _MAX_REPLACEMENTS}), got {lifetime}")


def _check_emissions(c: _Checker, config: MicrogridConfig) -> None:
    e = config.emissions
    for side, factors in (("dg", e.dg), ("grid", e.grid)):
        for pollutant, value in factors.items():
            if pollutant not in POLLUTANTS:
                c.violations.append(Violation(
                    f"emissions.{side}.{pollutant}",
                    f"unknown pollutant (expected one of {', '.join(POLLUTANTS)})"))
            else:
                c.within(value, f"emissions.{side}.{pollutant}", [_NONNEG])


def _check_ranges(c: _Checker, spec, prefix: str) -> None:
    """Check each field of ``spec`` declared with _ranged, at the path
    ``prefix`` + its name."""
    for f in fields(spec):
        bounds = f.metadata.get("bounds")
        if bounds is not None:
            c.within(getattr(spec, f.name), prefix + f.name, bounds, integer=f.type == "int")


# the checks that compare fields, each run after its section's field ranges
_SECTION_CHECKS = {"wind": _check_wind, "battery": _check_battery, "ems": _check_ems,
                   "economics": _check_replacements, "emissions": _check_emissions}


def validate_config(config: MicrogridConfig) -> ValidationReport:
    """Check every model invariant, returning all violations found.

    A config with an empty report is safe for every dispatch and metrics
    operation in this package. Pure: equal configs yield equal reports.
    """
    c = _Checker()
    for section in fields(config):
        spec = getattr(config, section.name)
        if is_dataclass(spec):
            _check_ranges(c, spec, f"{section.name}.")
        if section.name in _SECTION_CHECKS:
            _SECTION_CHECKS[section.name](c, config)
    _check_ranges(c, config, "")
    return ValidationReport(tuple(c.violations))


@dataclass(frozen=True)
class OutageSpec:
    """A forced grid-unavailable window.

    start_step None defers to the default rule: the first step whose
    threshold-comparison value exceeds the resolved threshold. Both come
    from the base profile, as the matrix's threshold does: in load-threshold
    mode the base demand, not the scaled one. Duration is given in steps or
    in hours (converted with the configured step length).
    """

    start_step: int | None = None
    duration_steps: int | None = None
    duration_hours: float | None = None


@dataclass(frozen=True)
class Scenario:
    id: str
    demand_multiplier: float = _ranged(_POSITIVE, default=1.0)
    pv_multiplier: float = _ranged(_POSITIVE, default=1.0)
    wind_multiplier: float = _ranged(_POSITIVE, default=1.0)
    fuel_price_multiplier: float = _ranged(_POSITIVE, default=1.0)
    outage: OutageSpec | None = None


MULTIPLIERS = tuple(f.name for f in fields(Scenario) if "bounds" in f.metadata)


def _integer(name: str, value) -> int:
    if not _number(value, integer=True):
        raise ValueError(f"{name} must be an integer, got {shown(value, repr)}")
    return operator.index(value)


def outage_steps(outage: OutageSpec, step_hours: float) -> int:
    if outage.duration_steps is not None:
        steps = _integer("outage duration_steps", outage.duration_steps)
    elif outage.duration_hours is not None:
        hours = outage.duration_hours
        steps = hours / step_hours if _finite(hours) else math.inf
        if not math.isfinite(steps):
            raise ValueError(f"outage duration_hours {shown(hours, repr)} "
                             "is not a finite number of steps")
        steps = round(steps)
    else:
        raise ValueError("outage needs duration_steps or duration_hours")
    if steps < 1:
        raise ValueError(f"outage duration must cover at least one step, got {steps}")
    return steps


def validate_scenario(scenario: Scenario, step_hours: float) -> None:
    """Raise ValueError, naming the field, for a value no profile can make valid.

    Each multiplier is checked as a config field is, and an outage must
    last at least one whole step of ``step_hours``, in integer steps or
    real hours, from an integer start >= 0 if one is given. The outage
    window's fit to the horizon, and its default start, depend on the
    profile and are checked when the scenario is applied.
    """
    c = _Checker()
    _check_ranges(c, scenario, "")
    if c.violations:
        first = c.violations[0]
        raise ValueError(f"{first.path} {first.message}")
    if scenario.outage is not None:
        steps = outage_steps(scenario.outage, step_hours)
        start = scenario.outage.start_step
        if start is not None and (start := _integer("outage start_step", start)) < 0:
            raise ValueError(f"outage window [{shown(start)}, {shown(start + steps)}) "
                             "does not fit any horizon: start_step must be >= 0")
