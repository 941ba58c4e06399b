"""Deterministic community-microgrid EMS simulator.

Simulates price-threshold peak shaving and grid-interaction dispatch over
demand/price/renewable time series, with battery storage and a backup
diesel unit, and aggregates the result into energy, reliability, economic,
and emission metrics.
"""

__version__ = "0.1.0"

from .dispatch import (BACKEND, BatteryState, DispatchDecision, dispatch_step,
                       initial_state, price_threshold, run_arrays)
from .metrics import (EconomicSummary, EmissionSummary, EnergyTotals,
                      ReliabilityStats, SimulationReport, accumulate,
                      build_report, emissions, lcoe, npc, percent_change,
                      renewable_fraction)
from .model import (BatterySpec, DieselSpec, EconomicsConfig, EmissionFactors,
                    EmsConfig, GridSpec, MicrogridConfig, PvSpec,
                    ValidationReport, WindSpec, validate_config)
from .profiles import (Profile, ResourceProfile, load_profile, parse_profile,
                       resource_to_inputs)
from .scenarios import (Scenario, ScenarioOutcome, apply_scenario,
                        builtin_scenario, run_matrix, validate_scenario)

__all__ = [
    "BACKEND", "BatterySpec", "BatteryState", "DieselSpec", "DispatchDecision",
    "EconomicSummary", "EconomicsConfig", "EmissionFactors", "EmissionSummary",
    "EmsConfig", "EnergyTotals", "GridSpec", "MicrogridConfig", "Profile",
    "PvSpec", "ReliabilityStats", "ResourceProfile", "Scenario",
    "ScenarioOutcome", "SimulationReport", "ValidationReport",
    "WindSpec", "accumulate", "apply_scenario", "build_report",
    "builtin_scenario", "dispatch_step", "emissions", "initial_state", "lcoe",
    "load_profile", "npc", "parse_profile",
    "percent_change", "price_threshold", "renewable_fraction",
    "resource_to_inputs", "run_arrays", "run_matrix", "validate_config",
    "validate_scenario",
]
