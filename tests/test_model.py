"""Config validation tests."""

import dataclasses
import math

import pytest

from mgems import model
from mgems.model import (EmissionFactors, EmsConfig, MicrogridConfig,
                         ValidationReport, validate_config)

from conftest import make_config


def replace_spec(config, section, **changes):
    return dataclasses.replace(
        config, **{section: dataclasses.replace(getattr(config, section), **changes)})


def test_reference_config_is_clean():
    report = validate_config(make_config())
    assert report.ok
    assert report.violations == ()


def test_shipped_config_file_is_clean(example_config):
    assert validate_config(example_config.config).ok


def test_zero_derating_factor_is_flagged_at_its_path():
    config = replace_spec(make_config(), "pv", derating_factor=0.0)
    report = validate_config(config)
    assert [v.path for v in report.violations] == ["pv.derating_factor"]


def test_inverted_soc_band_is_flagged():
    config = replace_spec(make_config(), "battery", soc_min=0.5, soc_max=0.4)
    report = validate_config(config)
    assert [v.path for v in report.violations] == ["battery.soc_band"]


def test_band_wider_than_depth_of_discharge_is_flagged():
    config = replace_spec(make_config(), "battery", soc_min=0.05, soc_max=0.95)
    report = validate_config(config)
    assert [v.path for v in report.violations] == ["battery.soc_band"]


@pytest.mark.parametrize("section,changes,path", [
    ("pv", {"capacity_kw": -1.0}, "pv.capacity_kw"),
    ("pv", {"derating_factor": 1.5}, "pv.derating_factor"),
    ("pv", {"lifetime_years": 0.0}, "pv.lifetime_years"),
    ("wind", {"cut_in_ms": 30.0}, "wind.speeds"),
    ("wind", {"rated_speed_ms": 25.0}, "wind.speeds"),
    ("wind", {"capacity_kw": 100.0}, "wind.capacity_kw"),  # not a multiple of 3
    ("wind", {"hub_height_m": 0.0}, "wind.hub_height_m"),
    ("wind", {"anemometer_height_m": -2.0}, "wind.anemometer_height_m"),
    ("diesel", {"min_loading_fraction": 1.2}, "diesel.min_loading_fraction"),
    ("diesel", {"fuel_cost_per_kwh": -0.5}, "diesel.fuel_cost_per_kwh"),
    ("battery", {"roundtrip_efficiency": 0.0}, "battery.roundtrip_efficiency"),
    ("battery", {"max_charge_kw": -10.0}, "battery.max_charge_kw"),
    ("grid", {"import_limit_kw": -1.0}, "grid.import_limit_kw"),
    ("grid", {"sell_price_ratio": -0.1}, "grid.sell_price_ratio"),
    ("economics", {"discount_rate": -0.01}, "economics.discount_rate"),
    ("economics", {"project_lifetime_years": 0}, "economics.project_lifetime_years"),
    ("economics", {"converter_efficiency": 1.01}, "economics.converter_efficiency"),
])
def test_single_field_violations(section, changes, path):
    report = validate_config(replace_spec(make_config(), section, **changes))
    assert path in [v.path for v in report.violations]


def test_multiple_violations_are_all_reported():
    config = replace_spec(make_config(), "pv", derating_factor=0.0,
                          capital_cost=-5.0)
    report = validate_config(config)
    assert {v.path for v in report.violations} == {"pv.derating_factor",
                                                   "pv.capital_cost"}


@pytest.mark.parametrize("ems,expected_paths", [
    (EmsConfig(threshold_mode="fixed-price", fixed_threshold=0.25), []),
    (EmsConfig(threshold_mode="fixed-price"), ["ems.fixed_threshold"]),
    (EmsConfig(threshold_mode="fixed-price", fixed_threshold=0.25,
               percentile=0.5), ["ems.percentile"]),
    (EmsConfig(threshold_mode="price-percentile", percentile=1.0),
     ["ems.percentile"]),
    (EmsConfig(threshold_mode="load-threshold", load_threshold_kw=-5.0),
     ["ems.load_threshold_kw"]),
    (EmsConfig(threshold_mode="bogus"), ["ems.threshold_mode"]),
])
def test_exactly_one_threshold_mode_is_active(ems, expected_paths):
    report = validate_config(make_config(ems=ems))
    assert [v.path for v in report.violations] == expected_paths


def test_negative_emission_factor_is_flagged():
    config = make_config()
    config = dataclasses.replace(
        config, emissions=dataclasses.replace(config.emissions,
                                              grid={"co2": -0.1}))
    report = validate_config(config)
    assert [v.path for v in report.violations] == ["emissions.grid.co2"]


def test_validation_is_pure_and_idempotent():
    config = replace_spec(make_config(), "battery", soc_min=0.9, soc_max=0.4)
    assert validate_config(config) == validate_config(config)
    clean = make_config()
    assert validate_config(clean) == validate_config(clean)


@pytest.mark.parametrize("section,changes,message", [
    ("economics", {"discount_rate": 1.5},
     "economics.discount_rate: must be <= 1.0, got 1.5"),
    ("economics", {"project_lifetime_years": 101},
     "economics.project_lifetime_years: must be <= 100, got 101"),
    ("pv", {"lifetime_years": 0.2}, "pv.lifetime_years: must be >= "
     "project_lifetime_years / 100 (0.25), got 0.2"),
    ("wind", {"lifetime_years": 1e-9}, "wind.lifetime_years: must be >= "
     "project_lifetime_years / 100 (0.25), got 1e-09"),
    ("battery", {"lifetime_years": 0.2}, "battery.lifetime_years: must be >= "
     "project_lifetime_years / 100 (0.25), got 0.2"),
], ids=["rate", "project", "pv", "wind", "battery"])
def test_the_cash_flow_loops_are_bounded(section, changes, message):
    report = validate_config(replace_spec(make_config(), section, **changes))
    assert [str(v) for v in report.violations] == [message]


def test_the_cash_flow_bounds_are_inclusive():
    config = make_config()
    for name in ("pv", "wind", "battery"):
        config = replace_spec(config, name, lifetime_years=0.25)
    assert validate_config(config).ok
    config = replace_spec(config, "economics", discount_rate=1.0,
                          project_lifetime_years=100)
    for name in ("pv", "wind", "battery"):
        config = replace_spec(config, name, lifetime_years=1.0)
    assert validate_config(config).ok


def numeric_paths():
    """The path of each numeric field of the config and its component specs;
    the emission factors are dict values, not fields."""
    for section in dataclasses.fields(MicrogridConfig):
        if section.type in ("float", "int"):
            yield section.name
        elif section.type != "EmissionFactors":
            yield from (f"{section.name}.{f.name}"
                        for f in dataclasses.fields(getattr(model, section.type))
                        if f.type in ("float", "int", "float | None"))


def with_value(config, path, value):
    if "." not in path:
        return dataclasses.replace(config, **{path: value})
    section, name = path.split(".")
    return replace_spec(config, section, **{name: value})


# None leaves an inactive threshold parameter unset, which is valid; the
# reference config's active parameter is the percentile
NON_NUMBER_CASES = [
    (path, value) for path in numeric_paths()
    for value in (None, "x", math.nan, math.inf, -math.inf)
    if not (value is None and path in ("ems.fixed_threshold", "ems.load_threshold_kw"))]


@pytest.mark.parametrize("path,value", NON_NUMBER_CASES,
                         ids=[f"{p}={v!r}" for p, v in NON_NUMBER_CASES])
def test_a_non_number_in_a_numeric_field_is_a_violation_at_its_path(path, value):
    report = validate_config(with_value(make_config(), path, value))
    assert path in [v.path for v in report.violations]


@pytest.mark.parametrize("years", [25.5, 25.0])
def test_a_float_project_lifetime_is_not_an_integer(years):
    config = replace_spec(make_config(), "economics", project_lifetime_years=years)
    assert [str(v) for v in validate_config(config).violations] == [
        f"economics.project_lifetime_years: must be an integer, got {years}"]


def test_a_non_finite_soc_min_does_not_hide_a_non_finite_soc_max():
    config = replace_spec(make_config(), "battery", soc_min=math.nan, soc_max=math.inf)
    assert [str(v) for v in validate_config(config).violations] == [
        "battery.soc_min: must be a finite number, got nan",
        "battery.soc_max: must be a finite number, got inf"]


# checked by _check_ems and _check_emissions, which know which values are set
RANGE_EXEMPT = ("EmsConfig", "EmissionFactors")


def test_every_numeric_field_declares_its_range():
    ranged = []
    for section in dataclasses.fields(MicrogridConfig):
        if section.type in ("float", "int"):
            ranged.append(section)
        elif section.type not in RANGE_EXEMPT:
            ranged += [f for f in dataclasses.fields(getattr(model, section.type))
                       if f.type in ("float", "int")]
    assert len(ranged) == 40
    assert [f.name for f in ranged if "bounds" not in f.metadata] == []


def test_violations_are_listed_by_section_then_field_then_cross_field_check():
    config = make_config(ems=EmsConfig(threshold_mode="price-percentile", percentile=1.0),
                         emissions=EmissionFactors(grid={"co2": -0.1}), step_hours=0.0)
    for section, changes in [
            ("pv", {"capital_cost": -1.0, "lifetime_years": 0.2}),
            ("wind", {"cut_in_ms": 30.0, "capacity_kw": 100.0, "om_cost": -1.0}),
            ("diesel", {"min_loading_fraction": 1.2}),
            ("battery", {"soc_min": 0.5, "soc_max": 0.4, "max_charge_kw": -10.0}),
            ("grid", {"export_limit_kw": math.nan}),
            ("economics", {"discount_rate": 1.5})]:
        config = replace_spec(config, section, **changes)
    assert [str(v) for v in validate_config(config).violations] == [
        "pv.capital_cost: must be >= 0, got -1.0",
        "wind.om_cost: must be >= 0, got -1.0",
        "wind.speeds: must satisfy 0 < cut_in < rated_speed < cut_out, "
        "got (30.0, 12.0, 24.0)",
        "wind.capacity_kw: must be a whole multiple of unit_rated_kw (3.0), got 100.0",
        "diesel.min_loading_fraction: must be in [0, 1], got 1.2",
        "battery.max_charge_kw: must be >= 0, got -10.0",
        "battery.soc_band: must satisfy 0 <= soc_min < soc_max <= 1, got [0.5, 0.4]",
        "grid.export_limit_kw: must be a finite number, got nan",
        "ems.percentile: must be in (0, 1), got 1.0",
        "economics.discount_rate: must be <= 1.0, got 1.5",
        "pv.lifetime_years: must be >= project_lifetime_years / 100 (0.25), got 0.2",
        "emissions.grid.co2: must be >= 0, got -0.1",
        "step_hours: must be in [1/3600, 8760.0] (one second to one year), got 0.0"]


@pytest.mark.parametrize("section,name", [
    ("pv", "capacity_kw"), ("economics", "project_lifetime_years")])
def test_an_int_beyond_any_float_is_not_a_finite_number(section, name):
    huge = 10**400
    config = replace_spec(make_config(), section, **{name: huge})
    assert [str(v) for v in validate_config(config).violations] == [
        f"{section}.{name}: must be a finite number, got {huge!r}"]


def test_an_unknown_pollutant_is_a_violation_named_by_its_path():
    report = validate_config(make_config(
        emissions=EmissionFactors(dg={"xx": 1.0})))
    assert [str(v) for v in report.violations] == [
        "emissions.dg.xx: unknown pollutant "
        "(expected one of co2, co, uh, pm, so2, no2)"]


def test_an_empty_report_reads_ok():
    assert ValidationReport().ok
    assert str(ValidationReport()) == "ok"
