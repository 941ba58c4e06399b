"""Trace aggregation and reported quantities.

Energy totals and reliability statistics come straight from a dispatch
trace. Economic metrics use textbook definitions: net present cost as
discounted cash flows over the project lifetime (capital, operating,
replacements, salvage) and LCOE as annualized NPC over annual served
energy. Sub-year traces are annualized by scaling to 8,760 hours; a
single-day fixture therefore counts 365 times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernel import (CHARGE, CURTAILED, DG, DISCHARGE, EXPORT, IMPORT,
                      UNSERVED)
from .dispatch import HorizonArrays
from .model import POLLUTANTS, EmissionFactors, MicrogridConfig
from .profiles import Profile

HOURS_PER_YEAR = 8760.0


@dataclass(frozen=True)
class EnergyTotals:
    """Horizon energy sums in kWh. pv/wind count available generation."""

    imported_kwh: float
    exported_kwh: float
    dg_kwh: float
    pv_kwh: float
    wind_kwh: float
    battery_charge_kwh: float
    battery_discharge_kwh: float
    served_kwh: float
    unserved_kwh: float
    curtailed_kwh: float


@dataclass(frozen=True)
class ReliabilityStats:
    outage_count: int
    outage_hours: float
    uptime_fraction: float


@dataclass(frozen=True)
class EconomicSummary:
    operating_cost: float        # currency/yr
    capex: float                 # currency
    npc: float                   # currency
    lcoe: float | None           # currency/kWh; None when nothing is served
    renewable_fraction: float | None


@dataclass(frozen=True)
class EmissionSummary:
    """Net annual mass per pollutant, kg/yr (signed when offsets apply)."""

    net_kg: dict[str, float]


@dataclass(frozen=True)
class SimulationReport:
    steps: int
    step_hours: float
    threshold: float
    annualization_factor: float
    energy: EnergyTotals
    reliability: ReliabilityStats
    economics: EconomicSummary
    emissions: EmissionSummary

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "horizon": {
                "steps": self.steps,
                "step_hours": self.step_hours,
                "threshold": self.threshold,
                "annualization_factor": self.annualization_factor,
            },
            "energy": vars(self.energy).copy(),
            "reliability": vars(self.reliability).copy(),
            "economics": vars(self.economics).copy(),
            "emissions": dict(self.emissions.net_kg),
        }


def _outage_runs(grid_available: np.ndarray) -> tuple[int, int]:
    """Count maximal unavailable runs and total unavailable steps."""
    down = grid_available == 0
    steps = int(np.count_nonzero(down))
    if steps == 0:
        return 0, 0
    starts = int(np.count_nonzero(down & ~np.concatenate(([False], down[:-1]))))
    return starts, steps


def accumulate(trace: HorizonArrays, inputs: Profile,
               dt_h: float) -> tuple[EnergyTotals, ReliabilityStats]:
    """Sum a dispatch trace into energy totals and reliability statistics."""
    if len(trace) != len(inputs):
        raise ValueError(
            f"trace length {len(trace)} != inputs length {len(inputs)}")
    columns = trace.columns
    demand, pv, wind = inputs.demand_kw, inputs.pv_kw, inputs.wind_kw
    unserved = columns[:, UNSERVED]
    totals = EnergyTotals(
        imported_kwh=float(np.sum(columns[:, IMPORT]) * dt_h),
        exported_kwh=float(np.sum(columns[:, EXPORT]) * dt_h),
        dg_kwh=float(np.sum(columns[:, DG]) * dt_h),
        pv_kwh=float(np.sum(pv) * dt_h),
        wind_kwh=float(np.sum(wind) * dt_h),
        battery_charge_kwh=float(np.sum(columns[:, CHARGE]) * dt_h),
        battery_discharge_kwh=float(np.sum(columns[:, DISCHARGE]) * dt_h),
        served_kwh=float(np.sum(demand - unserved) * dt_h),
        unserved_kwh=float(np.sum(unserved) * dt_h),
        curtailed_kwh=float(np.sum(columns[:, CURTAILED]) * dt_h),
    )
    count, down_steps = _outage_runs(inputs.grid_available)
    reliability = ReliabilityStats(
        outage_count=count,
        outage_hours=down_steps * dt_h,
        uptime_fraction=float(np.count_nonzero(unserved == 0.0)) / len(inputs),
    )
    return totals, reliability


def _variable_cost_terms(columns: np.ndarray, inputs: Profile,
                         config: MicrogridConfig) -> float:
    """Trace-period variable costs: grid exchange, fuel, DG running O&M."""
    dt = config.step_hours
    prices = inputs.price
    import_cost = float(np.sum(columns[:, IMPORT] * prices) * dt)
    export_revenue = float(np.sum(columns[:, EXPORT] * prices) * dt
                           * config.grid.sell_price_ratio)
    dg_kwh = float(np.sum(columns[:, DG]) * dt)
    dg_hours = float(np.count_nonzero(columns[:, DG] > 0.0) * dt)
    fuel = dg_kwh * config.diesel.fuel_cost_per_kwh
    dg_om = dg_hours * config.diesel.capacity_kw * config.diesel.om_cost
    return import_cost - export_revenue + fuel + dg_om


def fixed_annual_om(config: MicrogridConfig) -> float:
    """PV, wind, and battery O&M per year at the configured rates."""
    return (config.pv.capacity_kw * config.pv.om_cost
            + config.wind.capacity_kw * config.wind.om_cost
            + config.battery.capacity_kwh * config.battery.om_cost)


def npc(annual_cost: float, capex: float, discount_rate: float,
        lifetime_years: int) -> float:
    """Present cost of an upfront outlay plus a constant annual cost."""
    if lifetime_years < 1:
        raise ValueError(f"lifetime_years must be >= 1, got {lifetime_years}")
    total = capex
    for year in range(1, lifetime_years + 1):
        total += annual_cost / (1.0 + discount_rate) ** year
    return total


def capital_recovery_factor(discount_rate: float, lifetime_years: int) -> float:
    """Annuity factor converting a present cost into equal annual payments."""
    growth = (1.0 + discount_rate) ** lifetime_years
    if growth == 1.0:   # a zero rate, or one too small to move 1.0
        return 1.0 / lifetime_years
    return discount_rate * growth / (growth - 1.0)


def lcoe(npc_value: float, discount_rate: float, lifetime_years: int,
         annual_served_kwh: float) -> float:
    """Levelized cost of energy: annualized NPC per served kWh."""
    if annual_served_kwh <= 0:
        raise ValueError("LCOE is undefined with zero served energy")
    crf = capital_recovery_factor(discount_rate, lifetime_years)
    return npc_value * crf / annual_served_kwh


def renewable_fraction(totals: EnergyTotals) -> float:
    """Share of served energy met by delivered (uncurtailed) renewables."""
    if totals.served_kwh <= 0:
        raise ValueError("renewable fraction is undefined with zero served energy")
    fraction = (totals.pv_kwh + totals.wind_kwh - totals.curtailed_kwh) \
        / totals.served_kwh
    return min(1.0, max(0.0, fraction))


def percent_change(base: float, new: float) -> float:
    """Relative change from base to new, in percent of |base|."""
    if base == 0:
        raise ValueError("percent change is undefined for a zero base")
    return (new - base) / abs(base) * 100.0


def emissions(totals: EnergyTotals, factors: EmissionFactors) -> EmissionSummary:
    """Net emitted mass per pollutant for the totals' period.

    Diesel output and grid imports emit at their configured factors; with
    offsets enabled, exports credit the grid factor (allowing net-negative
    results).
    """
    net = {}
    for pollutant in POLLUTANTS:
        grid_factor = factors.grid.get(pollutant, 0.0)
        mass = (totals.dg_kwh * factors.dg.get(pollutant, 0.0)
                + totals.imported_kwh * grid_factor)
        if factors.export_offset_enabled:
            mass -= totals.exported_kwh * grid_factor
        net[pollutant] = mass
    return EmissionSummary(net_kg=net)


def converter_rating_kw(config: MicrogridConfig) -> float:
    """Converter sizing convention: the battery interface power rating."""
    return max(config.battery.max_charge_kw, config.battery.max_discharge_kw)


def capital_cost(config: MicrogridConfig) -> float:
    """Installed cost of all components from sizes and unit costs."""
    return (config.pv.capacity_kw * config.pv.capital_cost
            + config.wind.capacity_kw * config.wind.capital_cost
            + config.diesel.capacity_kw * config.diesel.capital_cost
            + config.battery.capacity_kwh * config.battery.capital_cost
            + converter_rating_kw(config) * config.economics.converter_capital_cost)


def _replacement_and_salvage(install_cost: float, lifetime_years: float,
                             discount_rate: float,
                             project_years: int) -> tuple[float, float]:
    """Present value of replacement outlays and end-of-project salvage.

    Replacements fall at whole multiples of the component lifetime inside
    the project horizon; salvage prorates the last unit's remaining life
    (HOMER-style convention).
    """
    if install_cost == 0 or lifetime_years <= 0:
        return 0.0, 0.0
    replacement_pv = 0.0
    year = lifetime_years
    last_install = 0.0
    while year < project_years - 1e-9:
        replacement_pv += install_cost / (1.0 + discount_rate) ** year
        last_install = year
        year += lifetime_years
    remaining = lifetime_years - (project_years - last_install)
    if remaining < 0:
        remaining = 0.0
    salvage_pv = (install_cost * remaining / lifetime_years
                  / (1.0 + discount_rate) ** project_years)
    return replacement_pv, salvage_pv


def project_npc(annual_operating_cost: float, config: MicrogridConfig) -> float:
    """NPC over the project lifetime: capex, operating, replacements, salvage."""
    econ = config.economics
    base = npc(annual_operating_cost, capital_cost(config),
               econ.discount_rate, econ.project_lifetime_years)
    components = (
        (config.pv.capacity_kw * config.pv.replacement_cost,
         config.pv.lifetime_years),
        # wind and battery replace at their capital cost (no separate rate)
        (config.wind.capacity_kw * config.wind.capital_cost,
         config.wind.lifetime_years),
        (config.battery.capacity_kwh * config.battery.capital_cost,
         config.battery.lifetime_years),
    )
    for install_cost, lifetime in components:
        replacement_pv, salvage_pv = _replacement_and_salvage(
            install_cost, lifetime, econ.discount_rate,
            econ.project_lifetime_years)
        base += replacement_pv - salvage_pv
    return base


# an overflow is named by the finiteness check at the end, not warned about
@np.errstate(over="ignore", invalid="ignore")
def build_report(trace: HorizonArrays, inputs: Profile,
                 config: MicrogridConfig) -> SimulationReport:
    """Aggregate a dispatch trace into the full simulation report.

    Economic and emission figures are per year: the trace's variable costs
    and energy flows scale by 8760 / horizon-hours before the annual fixed
    O&M and lifetime cash flows are applied. Raises ValueError naming the
    first field that is not finite (lcoe and renewable_fraction may be
    None), since report.json holds only finite numbers.
    """
    totals, reliability = accumulate(trace, inputs, config.step_hours)
    factor = HOURS_PER_YEAR / (len(inputs) * config.step_hours)
    annual_cost = (_variable_cost_terms(trace.columns, inputs, config) * factor
                   + fixed_annual_om(config))
    econ = config.economics
    npc_value = project_npc(annual_cost, config)
    annual_served = totals.served_kwh * factor
    summary = EconomicSummary(
        operating_cost=annual_cost,
        capex=capital_cost(config),
        npc=npc_value,
        lcoe=(lcoe(npc_value, econ.discount_rate, econ.project_lifetime_years,
                   annual_served) if annual_served > 0 else None),
        renewable_fraction=(renewable_fraction(totals)
                            if totals.served_kwh > 0 else None),
    )
    annual_totals = EnergyTotals(
        **{name: value * factor for name, value in vars(totals).items()})
    report = SimulationReport(
        steps=len(inputs),
        step_hours=config.step_hours,
        threshold=trace.threshold,
        annualization_factor=factor,
        energy=totals,
        reliability=reliability,
        economics=summary,
        emissions=emissions(annual_totals, config.emissions),
    )
    for section, values in report.to_dict().items():
        for name, value in (values.items() if isinstance(values, dict) else ()):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"report field {section}.{name} is not "
                                 f"finite: {value}")
    return report
