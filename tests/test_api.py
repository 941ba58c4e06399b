"""The package's public API: every exported name exists, and no other."""

import mgems

PUBLIC_NAMES = {
    "BACKEND", "BatterySpec", "BatteryState", "DieselSpec", "DispatchDecision",
    "EconomicSummary", "EconomicsConfig", "EmissionFactors", "EmissionSummary",
    "EmsConfig", "EnergyTotals", "GridSpec", "MicrogridConfig", "Profile",
    "PvSpec", "ReliabilityStats", "ResourceProfile", "Scenario",
    "ScenarioOutcome", "SimulationReport", "ValidationReport",
    "WindSpec", "accumulate", "apply_scenario", "build_report",
    "builtin_scenario", "dispatch_step", "emissions", "initial_state", "lcoe",
    "load_profile", "npc", "operating_cost", "parse_profile",
    "percent_change", "price_threshold", "renewable_fraction",
    "resource_to_inputs", "run_arrays", "run_matrix", "validate_config",
    "validate_scenario",
}


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from mgems import *", namespace)
    assert mgems.__all__
    for name in mgems.__all__:
        assert namespace[name] is getattr(mgems, name)


def test_exported_names_are_exactly_the_public_api():
    # adding or removing a public name is a decision: change both lists
    assert len(mgems.__all__) == len(PUBLIC_NAMES)
    assert set(mgems.__all__) == PUBLIC_NAMES
