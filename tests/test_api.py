"""The package's public API: every exported name exists, and no other."""

import dataclasses

import numpy as np

import mgems

from conftest import horizon, make_config

PUBLIC_NAMES = {
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


def test_traces_and_outcomes_compare_by_identity():
    inputs = horizon(demand=np.linspace(50.0, 250.0, 6), price=0.2, pv=40.0)
    outcome = mgems.run_matrix(inputs, make_config(), [])["base"]
    trace = outcome.trace
    twin = dataclasses.replace(trace)
    assert np.array_equal(twin.columns, trace.columns)
    # neither raises "truth value of an array is ambiguous" nor compares
    # their arrays: only the same object is equal, and both are hashable
    assert trace == trace and trace != twin
    assert outcome == outcome and outcome != dataclasses.replace(outcome)
    assert len({trace, twin, outcome}) == 3
