"""The package's public API: every exported name exists, and no other;
the trace's column layout; the README's library example."""

import dataclasses
import re
from pathlib import Path

import numpy as np

import mgems
from mgems._kernel import (CHARGE, CURTAILED, DG, DISCHARGE, EXPORT, IMPORT,
                           PV_USED, SOC, UNSERVED, WIND_USED)
from mgems.cli import TRACE_HEADER
from mgems.dispatch import HorizonArrays

from conftest import horizon, make_config

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = {
    "BACKEND", "BatterySpec", "DieselSpec",
    "EconomicSummary", "EconomicsConfig", "EmissionFactors", "EmissionSummary",
    "EmsConfig", "EnergyTotals", "GridSpec", "MicrogridConfig", "Profile",
    "PvSpec", "ReliabilityStats", "ResourceProfile", "Scenario",
    "ScenarioOutcome", "SimulationReport", "ValidationReport",
    "WindSpec", "accumulate", "apply_scenario", "build_report",
    "builtin_scenario", "emissions", "initial_state", "lcoe",
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


def test_a_trace_holds_only_what_the_kernel_made():
    assert [f.name for f in dataclasses.fields(HorizonArrays)] == [
        "columns", "threshold", "initial_energy_kwh"]


def test_the_trace_layout_is_the_kernel_column_order():
    # the trace writer writes kernel columns PV_USED..SOC under these names
    kernel_column = dict(
        pv_used_kw=PV_USED, wind_used_kw=WIND_USED, curtailed_kw=CURTAILED,
        battery_charge_kw=CHARGE, battery_discharge_kw=DISCHARGE, dg_kw=DG,
        grid_import_kw=IMPORT, grid_export_kw=EXPORT, unserved_kw=UNSERVED,
        soc=SOC)
    first = TRACE_HEADER.index("pv_used_kw")
    names = TRACE_HEADER[first:first + len(kernel_column)]
    assert [kernel_column[name] for name in names] == \
        list(range(PV_USED, SOC + 1))


def test_the_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    lcoe_and_uptime, deltas = capsys.readouterr().out.splitlines()
    assert lcoe_and_uptime.endswith(" 1.0")
    assert deltas.startswith("{'base': 0.0, 'S1': ")
