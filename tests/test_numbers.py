"""One rule for a number: every numeric field of a config and of a scenario
takes a value of each kind, or names it.

A real field takes an int or a float (np.float64 is one), an integer field
what operator.index takes; no field takes a bool. A value a field takes
runs, and its report reaches report.json; any other value is a violation at
its path, or a ValueError naming its field."""

import dataclasses
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgems import model
from mgems.cli import report_json_bytes
from mgems.dispatch import check_balance, initial_state, run_arrays
from mgems.metrics import build_report
from mgems.model import (EmissionFactors, EmsConfig, MicrogridConfig,
                         OutageSpec, Scenario, validate_config,
                         validate_scenario)
from mgems.scenarios import apply_scenario

from conftest import make_config

HUGE = 10**5000   # beyond str()'s default digit limit

# one value of each kind: bool, int, huge int, float, NaN, numpy scalars (a
# tiny np.float64 overflows a quotient it divides), Fraction, Decimal, str
# and None
KINDS = [True, False, 2, -3, 10**400, HUGE, 0.5, 2.0, math.nan, math.inf,
         np.float64(1.5), np.float64(1e-308), np.float32(2.0), np.int64(2), np.uint8(3),
         np.bool_(True),
         Fraction(3, 2), Fraction(HUGE), Decimal("2"), Decimal(HUGE), "2", "x" * 10**4,
         None]

values = st.one_of(
    st.booleans(),
    st.integers(-1000, 1000),
    st.sampled_from([10**400, -10**400, HUGE, -HUGE]),
    st.floats(-1000.0, 1000.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(-1000.0, 1000.0).map(np.float64),
    st.floats(-1000.0, 1000.0, width=32).map(np.float32),
    st.integers(-1000, 1000).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 7)),
    st.just(Fraction(HUGE)),
    st.integers(-1000, 1000).map(Decimal),
    st.text(max_size=3),
    st.none())


def takes(value, integer: bool) -> bool:
    """The rule, written out by type."""
    if isinstance(value, (bool, np.bool_)):
        return False
    if integer:
        return isinstance(value, (int, np.integer))
    return isinstance(value, (int, float))


def config_paths():
    """The path of each numeric field of the config, its emission factors
    and its EMS threshold parameters included, and whether it is an int."""
    for section in dataclasses.fields(MicrogridConfig):
        if section.type in ("float", "int"):
            yield section.name, section.type == "int"
        elif section.type == "EmissionFactors":
            yield from (("emissions.dg.co2", False), ("emissions.grid.co2", False))
        else:
            yield from ((f"{section.name}.{f.name}", f.type == "int")
                        for f in dataclasses.fields(getattr(model, section.type))
                        if f.type in ("float", "int", "float | None"))


CONFIG_PATHS = dict(config_paths())
EMS_MODES = {"fixed_threshold": "fixed-price", "percentile": "price-percentile",
             "load_threshold_kw": "load-threshold"}


def with_value(path: str, value) -> MicrogridConfig:
    """The reference config with ``value`` at ``path``; an EMS threshold
    parameter is set in its own mode, the others unset."""
    config = make_config()
    if "." not in path:
        return dataclasses.replace(config, **{path: value})
    section, name, *pollutant = path.split(".")
    if section == "emissions":
        return dataclasses.replace(config, emissions=EmissionFactors(
            **{name: {pollutant[0]: value}}))
    if section == "ems":
        return dataclasses.replace(config, ems=EmsConfig(
            threshold_mode=EMS_MODES[name], **{name: value}))
    spec = dataclasses.replace(getattr(config, section), **{name: value})
    return dataclasses.replace(config, **{section: spec})


def writes_report(inputs, config) -> None:
    """Run ``config`` on ``inputs`` and write its report.json bytes; a run
    may raise only a ValueError, for a report field that is not finite."""
    trace = run_arrays(inputs, initial_state(config.battery), config)
    check_balance(trace, inputs, config)
    try:
        report = build_report(trace, inputs, config)
    except ValueError as exc:
        assert "is not finite" in str(exc)
        return
    assert json.loads(report_json_bytes(report))["horizon"]["steps"] == len(inputs)


def check_config_value(inputs, path: str, value) -> None:
    report = validate_config(with_value(path, value))
    if not takes(value, CONFIG_PATHS[path]):
        assert path in [v.path for v in report.violations]
    if report.ok:
        writes_report(inputs, with_value(path, value))
    for violation in report.violations:
        assert len(violation.message) < 1000


SCENARIO_FIELDS = {name: False for name in model.MULTIPLIERS}
SCENARIO_FIELDS.update(start_step=True, duration_steps=True, duration_hours=False)


def with_field(name: str, value) -> Scenario:
    """A scenario that sets field ``name`` of itself or of its outage."""
    if name in model.MULTIPLIERS:
        return Scenario(id="x", **{name: value})
    outage = {"start_step": OutageSpec(start_step=value, duration_steps=2),
              "duration_steps": OutageSpec(start_step=0, duration_steps=value),
              "duration_hours": OutageSpec(duration_hours=value)}[name]
    return Scenario(id="x", outage=outage)


def check_scenario_value(inputs, name: str, value) -> None:
    scenario = with_field(name, value)
    config = make_config()
    try:
        validate_scenario(scenario, config.step_hours)
        scaled, scaled_config = apply_scenario(inputs, config, scenario)
    except ValueError as exc:
        message = str(exc)
        assert len(message) < 1000
        if not (takes(value, SCENARIO_FIELDS[name]) or value is None):
            assert name in message
        return
    assert takes(value, SCENARIO_FIELDS[name]) or value is None
    writes_report(scaled, scaled_config)


@pytest.mark.parametrize("path", CONFIG_PATHS)
def test_each_config_field_takes_or_names_a_value_of_each_kind(example_inputs, path):
    for value in KINDS:
        check_config_value(example_inputs, path, value)


@pytest.mark.parametrize("name", SCENARIO_FIELDS)
def test_each_scenario_field_takes_or_names_a_value_of_each_kind(example_inputs, name):
    for value in KINDS:
        check_scenario_value(example_inputs, name, value)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CONFIG_PATHS)), values)
def test_a_drawn_config_value_runs_or_is_named(example_inputs, path, value):
    check_config_value(example_inputs, path, value)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCENARIO_FIELDS)), values)
def test_a_drawn_scenario_value_runs_or_is_named(example_inputs, name, value):
    check_scenario_value(example_inputs, name, value)


@pytest.mark.parametrize("path", CONFIG_PATHS)
def test_a_bool_is_not_a_number(path):
    assert [str(v) for v in validate_config(with_value(path, True)).violations] == [
        f"{path}: must be {'an integer' if CONFIG_PATHS[path] else 'an int or a float'}, "
        "got True of type bool"]


@pytest.mark.parametrize("path", ["pv.capacity_kw", "ems.percentile",
                                  "emissions.grid.co2", "step_hours",
                                  "economics.project_lifetime_years"])
def test_a_fraction_beyond_the_digit_limit_is_a_violation(path):
    wanted = "an integer" if CONFIG_PATHS[path] else "an int or a float"
    assert [str(v) for v in validate_config(with_value(path, Fraction(HUGE))).violations] == [
        f"{path}: must be {wanted}, got a Fraction beyond str()'s digit limit"]


@pytest.mark.parametrize("value,shown", [
    (True, "True of type bool"),
    (Fraction(HUGE), "a Fraction beyond str()'s digit limit")], ids=["bool", "huge-fraction"])
@pytest.mark.parametrize("name", SCENARIO_FIELDS)
def test_a_scenario_names_a_bool_or_a_huge_fraction(name, value, shown):
    with pytest.raises(ValueError) as exc:
        validate_scenario(with_field(name, value), 1.0)
    assert str(exc.value) == {
        "start_step": f"outage start_step must be an integer, got {shown}",
        "duration_steps": f"outage duration_steps must be an integer, got {shown}",
        "duration_hours": f"outage duration_hours {shown} is not a finite number of steps",
    }.get(name, f"{name} must be an int or a float, got {shown}")


def test_a_long_text_is_cut_in_a_message():
    report = validate_config(with_value("grid.import_limit_kw", "x" * 10**4))
    assert [str(v) for v in report.violations] == [
        "grid.import_limit_kw: must be an int or a float, got '" + "x" * 39
        + "... of type str"]


@pytest.mark.parametrize("start", [np.int64(5), np.int64(2**63 - 1), np.uint64(2**64 - 1)],
                         ids=["5", "int64-max", "uint64-max"])
@pytest.mark.parametrize("steps", [2, HUGE], ids=["2", "huge"])
def test_a_numpy_outage_start_adds_its_steps_exactly(example_inputs, start, steps):
    # as numpy ints, start + steps would wrap around, or fail for a huge int
    scenario = Scenario(id="x", outage=OutageSpec(start_step=start, duration_steps=steps))
    if int(start) + steps <= len(example_inputs):
        scaled, _ = apply_scenario(example_inputs, make_config(), scenario)
        assert scaled.grid_available[5:7].tolist() == [0, 0]
    else:
        with pytest.raises(ValueError, match="does not fit the 24-step horizon"):
            apply_scenario(example_inputs, make_config(), scenario)
