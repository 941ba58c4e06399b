"""The package's public API: every exported name exists, and no other;
the modules a config is read with; the trace's column layout; the README's
library example."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np

import mgems
from mgems import cli, configio, model, profiles, scenarios
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


def syntax_tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text())


def package_imports(module) -> set:
    """The modules ``module`` imports relative to its package, as the
    package writes every import of its own modules."""
    return {node.module for node in ast.walk(syntax_tree(module))
            if isinstance(node, ast.ImportFrom) and node.level}


def top_level_definitions(module) -> set:
    names = set()
    for node in syntax_tree(module).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
    return names


# the config schema's names that model.py alone defines
SCHEMA_NAMES = {"OutageSpec", "Scenario", "MULTIPLIERS", "BASE_KEY",
                "validate_scenario", "outage_steps", "_integer", "_number",
                "PRICE_CURRENCY", "PRICE_CENTS"}


def test_a_config_is_read_with_the_model_and_its_errors_alone():
    assert package_imports(configio) == {"errors", "model"}
    assert package_imports(model) == set()


def test_the_config_schema_is_defined_in_model_alone():
    assert SCHEMA_NAMES <= top_level_definitions(model)
    for module in (cli, configio, profiles, scenarios):
        assert not SCHEMA_NAMES & top_level_definitions(module), module.__name__
    # the modules that use them still bind them, as the benchmark reads
    # mgems.scenarios.BASE_KEY
    for name in ("BASE_KEY", "OutageSpec", "Scenario", "validate_scenario"):
        assert getattr(scenarios, name) is getattr(model, name)
    assert profiles.PRICE_CENTS is model.PRICE_CENTS


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
