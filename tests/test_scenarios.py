"""Scenario construction, application, and matrix orchestration tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgems.dispatch import initial_state, run_arrays
from mgems.metrics import accumulate, renewable_fraction
from mgems.model import EmsConfig
from mgems.profiles import Profile, StepInput
from mgems.scenarios import (BASE_KEY, BUILTIN_IDS, IDENTITY_SCENARIO,
                             OutageSpec, Scenario, apply_scenario,
                             builtin_scenario, run_matrix, validate_scenario)

from conftest import make_config


def day(n=24, demand=100.0, price=0.2, pv=50.0, wind=10.0):
    return [StepInput(index=i, demand_kw=demand, price=price,
                      grid_available=True, pv_kw=pv, wind_kw=wind)
            for i in range(n)]


def test_builtin_condition_changes_are_exact():
    s1 = builtin_scenario("S1")
    assert s1.demand_multiplier == 1.05
    assert (s1.pv_multiplier, s1.wind_multiplier,
            s1.fuel_price_multiplier) == (1.0, 1.0, 1.0)
    assert s1.outage is None

    s2 = builtin_scenario("S2")
    assert s2.pv_multiplier == 0.80
    assert s2.wind_multiplier == 0.60
    assert s2.demand_multiplier == 1.0

    s3 = builtin_scenario("S3")
    assert s3.outage == OutageSpec(duration_hours=6.0)
    assert s3.demand_multiplier == 1.0

    s4 = builtin_scenario("S4")
    assert s4.fuel_price_multiplier == 2.0
    assert s4.outage is None

    with pytest.raises(ValueError):
        builtin_scenario("S9")


def test_identity_scenario_is_bit_exact_identity():
    config = make_config()
    inputs = day()
    new_inputs, new_config = apply_scenario(inputs, config, IDENTITY_SCENARIO)
    assert new_inputs == inputs
    assert new_config == config


def test_s1_scales_demand_pointwise():
    config = make_config()
    inputs = [StepInput(index=0, demand_kw=235.2, price=0.2808,
                        grid_available=True, pv_kw=0.0, wind_kw=0.0)]
    scaled, _ = apply_scenario(inputs, config, builtin_scenario("S1"))
    assert scaled[0].demand_kw == pytest.approx(246.96, rel=1e-12)
    assert scaled[0].demand_kw == 235.2 * 1.05
    assert scaled[0].pv_kw == 0.0
    assert scaled[0].price == 0.2808


def test_s2_scales_renewables_only():
    config = make_config()
    scaled, _ = apply_scenario(day(n=1, pv=100.0, wind=50.0), config,
                               builtin_scenario("S2"))
    assert scaled[0].pv_kw == pytest.approx(80.0)
    assert scaled[0].wind_kw == pytest.approx(30.0)
    assert scaled[0].demand_kw == 100.0


def test_s4_scales_fuel_price_only():
    config = make_config()
    inputs, new_config = apply_scenario(day(), config, builtin_scenario("S4"))
    assert new_config.diesel.fuel_cost_per_kwh == 2.0
    assert new_config.diesel.capacity_kw == config.diesel.capacity_kw
    assert inputs == day()


def test_outage_window_forces_grid_unavailable_exactly_there():
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    scenario = Scenario(id="x", outage=OutageSpec(start_step=16,
                                                  duration_steps=6))
    scaled, _ = apply_scenario(day(), config, scenario)
    available = [s.grid_available for s in scaled]
    assert available == [True] * 16 + [False] * 6 + [True] * 2


def test_outage_duration_hours_converts_with_step_length():
    config = make_config(step_hours=0.5,
                         ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    scenario = Scenario(id="x", outage=OutageSpec(start_step=0,
                                                  duration_hours=6.0))
    scaled, _ = apply_scenario(day(48), config, scenario)
    assert sum(1 for s in scaled if not s.grid_available) == 12


def test_default_outage_start_is_first_step_above_threshold():
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    inputs = day()
    inputs[5] = dataclasses.replace(inputs[5], price=0.30)
    inputs[9] = dataclasses.replace(inputs[9], price=0.40)
    scaled, _ = apply_scenario(inputs, config,
                               Scenario(id="x", outage=OutageSpec(
                                   duration_steps=3)))
    available = [s.grid_available for s in scaled]
    assert available == [True] * 5 + [False] * 3 + [True] * 16


def test_outage_window_must_fit_horizon():
    config = make_config()
    with pytest.raises(ValueError, match="does not fit"):
        apply_scenario(day(), config,
                       Scenario(id="x", outage=OutageSpec(start_step=20,
                                                          duration_steps=6)))
    with pytest.raises(ValueError, match="does not fit"):
        apply_scenario(day(), config,
                       Scenario(id="x", outage=OutageSpec(start_step=-1,
                                                          duration_steps=2)))


def test_nonpositive_multiplier_is_rejected():
    config = make_config()
    with pytest.raises(ValueError, match="demand_multiplier"):
        apply_scenario(day(), config, Scenario(id="x", demand_multiplier=0.0))


@pytest.mark.parametrize("name", ["demand_multiplier", "pv_multiplier",
                                  "wind_multiplier", "fuel_price_multiplier"])
def test_infinite_multiplier_is_rejected(name):
    config = make_config()
    scenario = dataclasses.replace(IDENTITY_SCENARIO, **{name: float("inf")})
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        apply_scenario(day(), config, scenario)


@pytest.mark.parametrize("scenario,message", [
    (Scenario(id="x", pv_multiplier=float("nan")),
     "pv_multiplier must be finite and > 0, got nan"),
    (Scenario(id="x", wind_multiplier=-0.0),
     "wind_multiplier must be finite and > 0, got -0.0"),
    (Scenario(id="x", outage=OutageSpec(duration_hours=float("-inf"))),
     "outage duration_hours -inf is not a finite number of steps"),
    (Scenario(id="x", outage=OutageSpec(duration_hours=0.4)),
     "outage duration must cover at least one step, got 0"),
    (Scenario(id="x", outage=OutageSpec(start_step=3)),
     "outage needs duration_steps or duration_hours"),
    (Scenario(id="x", outage=OutageSpec(start_step=-1, duration_steps=2)),
     "outage window [-1, 1) does not fit any horizon: start_step must be >= 0"),
])
def test_validate_scenario_names_the_bad_field(scenario, message):
    with pytest.raises(ValueError) as exc:
        validate_scenario(scenario, 1.0)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        apply_scenario(day(), make_config(), scenario)
    assert str(exc.value) == f"scenario x: {message}"


def test_validate_scenario_accepts_the_builtins_and_a_late_outage():
    for scenario_id in BUILTIN_IDS:
        validate_scenario(builtin_scenario(scenario_id), 1.0)
    # the window's fit depends on the profile, so it is left to apply_scenario
    validate_scenario(Scenario(id="x", outage=OutageSpec(start_step=10**9,
                                                         duration_steps=2)), 0.25)


@pytest.mark.parametrize("outage,ems,message", [
    (OutageSpec(start_step=20, duration_steps=6), None,
     "outage window [20, 26) does not fit the 24-step horizon"),
    (OutageSpec(duration_hours=6.0),
     EmsConfig(threshold_mode="load-threshold", load_threshold_kw=150.0),
     "no step above the threshold; set the outage start explicitly"),
])
def test_a_window_the_profile_rejects_names_the_scenario(outage, ems, message):
    config = make_config() if ems is None else make_config(ems=ems)
    with pytest.raises(ValueError) as exc:
        apply_scenario(day(), config, Scenario(id="x", outage=outage))
    assert str(exc.value) == f"scenario x: {message}"


@pytest.mark.parametrize("hours", [float("inf"), float("nan")])
def test_non_finite_outage_duration_is_rejected_by_name(hours):
    config = make_config()
    outage = OutageSpec(start_step=0, duration_hours=hours)
    with pytest.raises(ValueError, match="outage duration_hours"):
        apply_scenario(day(), config, Scenario(id="x", outage=outage))


def test_s1_total_demand_scales_exactly(example_config, example_inputs):
    config = example_config.config
    scaled, _ = apply_scenario(example_inputs, config, builtin_scenario("S1"))
    base_total = sum(s.demand_kw for s in example_inputs)
    assert sum(s.demand_kw for s in scaled) == pytest.approx(
        base_total * 1.05, rel=1e-12)
    base = run_arrays(example_inputs, initial_state(config.battery), config)
    run = run_arrays(scaled, initial_state(config.battery), config)
    base_totals, _ = accumulate(base, example_inputs, 1.0)
    new_totals, _ = accumulate(run, scaled, 1.0)
    assert new_totals.served_kwh + new_totals.unserved_kwh == pytest.approx(
        (base_totals.served_kwh + base_totals.unserved_kwh) * 1.05, rel=1e-9)


def test_run_matrix_empty_set_returns_base_only(example_config, example_inputs):
    outcomes = run_matrix(example_inputs, example_config.config, [])
    assert set(outcomes) == {BASE_KEY}
    base = outcomes[BASE_KEY]
    assert base.error is None
    assert base.deltas["operating_cost"] == 0.0


def test_run_matrix_outcomes_and_determinism(example_config, example_inputs):
    config = example_config.config
    scenarios = [builtin_scenario(s) for s in ("S1", "S2", "S3", "S4")]
    first = run_matrix(example_inputs, config, scenarios)
    second = run_matrix(example_inputs, config, scenarios)
    assert set(first) == {BASE_KEY, "S1", "S2", "S3", "S4"}
    for key in first:
        assert first[key].deltas == second[key].deltas
        assert first[key].report == second[key].report


def test_run_matrix_isolates_failing_scenarios(example_config, example_inputs):
    config = example_config.config
    bad = Scenario(id="broken", outage=OutageSpec(start_step=100,
                                                  duration_steps=6))
    outcomes = run_matrix(example_inputs, config,
                          [builtin_scenario("S1"), bad])
    assert outcomes["S1"].error is None
    assert outcomes["broken"].error is not None
    assert outcomes["broken"].report is None
    assert "does not fit" in outcomes["broken"].error


def test_s2_never_increases_renewable_fraction():
    rng = np.random.default_rng(17)
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    config = dataclasses.replace(
        config, grid=dataclasses.replace(config.grid, import_limit_kw=1e6))
    s2 = builtin_scenario("S2")
    for _ in range(100):
        n = int(rng.integers(4, 30))
        inputs = [StepInput(index=i,
                            demand_kw=float(rng.uniform(10, 250)),
                            price=float(rng.uniform(0, 0.5)),
                            grid_available=True,
                            pv_kw=float(rng.uniform(0, 250)),
                            wind_kw=float(rng.uniform(0, 120)))
                  for i in range(n)]
        scaled, s2_config = apply_scenario(inputs, config, s2)
        base_trace = run_arrays(inputs, initial_state(config.battery), config)
        s2_trace = run_arrays(scaled, initial_state(s2_config.battery),
                              s2_config)
        base_totals, _ = accumulate(base_trace, inputs, 1.0)
        s2_totals, _ = accumulate(s2_trace, scaled, 1.0)
        assert renewable_fraction(s2_totals) <= \
            renewable_fraction(base_totals) + 1e-9


def test_default_outage_start_in_load_threshold_mode_compares_demand():
    config = make_config(ems=EmsConfig(threshold_mode="load-threshold",
                                       load_threshold_kw=150.0))
    inputs = day()  # price 0.2 never exceeds a 150 kW threshold
    inputs[7] = dataclasses.replace(inputs[7], demand_kw=180.0)
    inputs[12] = dataclasses.replace(inputs[12], demand_kw=200.0)
    scaled, _ = apply_scenario(inputs, config, builtin_scenario("S3"))
    available = [s.grid_available for s in scaled]
    assert available == [True] * 7 + [False] * 6 + [True] * 11


def test_default_outage_start_needs_a_step_above_the_threshold():
    config = make_config(ems=EmsConfig(threshold_mode="load-threshold",
                                       load_threshold_kw=150.0))
    with pytest.raises(ValueError, match="no step above the threshold"):
        apply_scenario(day(), config, builtin_scenario("S3"))


multiplier = st.floats(min_value=0.01, max_value=10.0)
column = st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                  max_size=30)


@given(column, multiplier, multiplier, multiplier)
def test_apply_scenario_equals_per_row_python_products(values, dm, pm, wm):
    inputs = Profile.from_steps(
        [StepInput(i, v, 0.1, True, v / 3.0, v * 0.7)
         for i, v in enumerate(values)])
    scenario = Scenario(id="x", demand_multiplier=dm, pv_multiplier=pm,
                        wind_multiplier=wm)
    scaled, _ = apply_scenario(inputs, make_config(), scenario)
    assert list(scaled) == [
        dataclasses.replace(s, demand_kw=s.demand_kw * dm, pv_kw=s.pv_kw * pm,
                            wind_kw=s.wind_kw * wm)
        for s in inputs]
    assert scaled.price is inputs.price  # unchanged columns are shared


def test_apply_scenario_outage_leaves_the_base_profile_unchanged():
    config = make_config()
    inputs = Profile.from_steps(day())
    scenario = Scenario(id="x", outage=OutageSpec(start_step=2,
                                                  duration_steps=3))
    scaled, _ = apply_scenario(inputs, config, scenario)
    assert list(scaled.grid_available[:6]) == [1, 1, 0, 0, 0, 1]
    assert inputs.grid_available.all()
