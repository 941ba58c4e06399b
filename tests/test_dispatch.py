"""EMS dispatch rule tests: threshold, battery band and efficiency, allocation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgems.dispatch import (BatteryState, HorizonArrays, balance_residuals,
                            check_balance, dispatch_step, initial_state,
                            price_threshold, run_arrays)
from mgems.errors import BalanceError
from mgems.model import EmsConfig
from mgems.profiles import StepInput
from mgems._kernel import (CHARGE, DG, DISCHARGE, ENERGY, EXPORT, IMPORT,
                           N_COLUMNS, PV_USED, SOC, UNSERVED)

from conftest import DAY_PRICES_CENTS, make_config


def step(index=0, demand=0.0, price=0.1, grid=True, pv=0.0, wind=0.0):
    return StepInput(index=index, demand_kw=demand, price=price,
                     grid_available=grid, pv_kw=pv, wind_kw=wind)


# --- threshold resolution ---------------------------------------------------

def test_fixed_threshold_passes_through():
    ems = EmsConfig(threshold_mode="fixed-price", fixed_threshold=0.25)
    assert price_threshold([0.1, 0.9], ems) == 0.25


def test_percentile_threshold_of_example_day():
    ems = EmsConfig(threshold_mode="price-percentile", percentile=0.75)
    prices = [c / 100.0 for c in DAY_PRICES_CENTS]
    # oracle: sort and take the lower-interpolation 75th percentile
    expected = sorted(prices)[math.floor(0.75 * (len(prices) - 1))]
    assert price_threshold(prices, ems) == expected
    assert price_threshold(prices, ems) == pytest.approx(0.2628)


def test_percentile_zero_is_the_minimum():
    ems = EmsConfig(threshold_mode="price-percentile", percentile=0.0)
    assert price_threshold([0.3, 0.1, 0.2], ems) == 0.1


def test_percentile_needs_prices():
    ems = EmsConfig(threshold_mode="price-percentile", percentile=0.75)
    with pytest.raises(ValueError):
        price_threshold([], ems)


def test_load_threshold_mode_returns_the_load_level():
    ems = EmsConfig(threshold_mode="load-threshold", load_threshold_kw=180.0)
    assert price_threshold([0.1], ems) == 180.0


# --- charge/discharge regime and SOC band -----------------------------------

def test_price_at_the_threshold_charges_from_surplus():
    config = make_config()
    state = BatteryState.from_soc(0.5, config.battery)

    def charge(price):
        decision, _ = dispatch_step(
            state, step(demand=50.0, price=price, pv=80.0), 0.25, config)
        return decision.battery_charge_kw

    assert charge(0.2808) == 0.0  # discharge regime: surplus never charges
    assert charge(0.08496) == 30.0
    assert charge(0.25) == 30.0  # equality charges


def test_full_battery_takes_no_charge_and_the_surplus_is_exported():
    config = make_config()
    full = BatteryState.from_soc(config.battery.soc_max, config.battery)
    surplus = step(demand=50.0, price=0.1, pv=80.0)
    decision, after = dispatch_step(full, surplus, 0.25, config)
    assert decision.battery_charge_kw == 0.0
    assert decision.grid_export_kw == 30.0
    assert after.energy_kwh == full.energy_kwh
    # the band stops the battery only toward its edge
    decision, _ = dispatch_step(full, step(demand=80.0, price=0.3, pv=50.0),
                                0.25, config)
    assert decision.battery_discharge_kw == 30.0
    inside = BatteryState.from_soc(0.5, config.battery)
    assert dispatch_step(inside, surplus, 0.25, config)[0] \
        .battery_charge_kw == 30.0


def test_empty_battery_delivers_nothing_and_the_grid_imports():
    config = make_config()
    empty = BatteryState.from_soc(config.battery.soc_min, config.battery)
    deficit = step(demand=80.0, price=0.3, pv=50.0)
    decision, after = dispatch_step(empty, deficit, 0.25, config)
    assert decision.battery_discharge_kw == 0.0
    assert decision.grid_import_kw == 30.0
    assert after.energy_kwh == empty.energy_kwh
    # the band stops the battery only toward its edge
    decision, _ = dispatch_step(empty, step(demand=50.0, price=0.1, pv=80.0),
                                0.25, config)
    assert decision.battery_charge_kw == 30.0
    inside = BatteryState.from_soc(0.5, config.battery)
    assert dispatch_step(inside, deficit, 0.25, config)[0] \
        .battery_discharge_kw == 30.0


# --- surplus and the grid ---------------------------------------------------

def test_balanced_step_leaves_the_state_unchanged():
    config = make_config()
    state = BatteryState.from_soc(0.37, config.battery)
    decision, after = dispatch_step(
        state, step(demand=50.0, pv=30.0, wind=20.0), 0.25, config)
    assert after == state
    for name in ("battery_charge_kw", "battery_discharge_kw",
                 "grid_import_kw", "grid_export_kw", "curtailed_kw",
                 "unserved_kw"):
        assert getattr(decision, name) == 0.0


def test_deficit_of_example_day_hour_4_is_imported():
    config = make_config()
    decision, _ = dispatch_step(
        initial_state(config.battery),
        step(demand=69.972, price=0.0936, pv=0.0, wind=5.18), 0.25, config)
    assert decision.battery_discharge_kw == 0.0
    assert decision.grid_import_kw == pytest.approx(64.792)


def test_net_exchange_sums_the_surplus_over_steps():
    # an empty battery above the threshold neither charges nor delivers,
    # so the grid takes each step's surplus and covers its deficit
    config = make_config()
    gens = [100.0, 50.0, 0.0]
    trace = run_arrays([step(demand=60.0, price=0.3, pv=g) for g in gens],
                       initial_state(config.battery), config, 0.25)
    net = (trace.column(EXPORT) - trace.column(IMPORT)) * config.step_hours
    assert net.tolist() == [40.0, -10.0, -60.0]
    assert net.sum() == pytest.approx(-30.0)


# --- battery efficiency -----------------------------------------------------

def _whole_band_config():
    config = make_config()
    battery = dataclasses.replace(config.battery, capacity_kwh=200.0,
                                  soc_min=0.0, soc_max=1.0,
                                  depth_of_discharge=1.0)
    return dataclasses.replace(config, battery=battery)


def test_charge_of_20_kw_for_an_hour_stores_20_sqrt_eta_kwh():
    config = _whole_band_config()
    state = BatteryState.from_soc(0.5, config.battery)
    decision, after = dispatch_step(state, step(demand=0.0, pv=20.0), 0.25,
                                    config)
    assert decision.battery_charge_kw == 20.0
    gain = 20.0 * math.sqrt(0.9)
    assert after.energy_kwh == pytest.approx(100.0 + gain, rel=1e-12)
    assert after.soc == pytest.approx(0.5 + gain / 200.0, rel=1e-12)
    assert gain == pytest.approx(18.9737, abs=1e-4)


def test_charge_then_discharge_returns_90_percent():
    config = _whole_band_config()
    state = BatteryState.from_soc(0.5, config.battery)
    absorbed = 20.0
    _, charged = dispatch_step(state, step(demand=0.0, pv=absorbed), 0.25,
                               config)
    stored = charged.energy_kwh - state.energy_kwh
    delivered = stored * math.sqrt(0.9)
    decision, discharged = dispatch_step(
        charged, step(demand=delivered, price=0.3), 0.25, config)
    assert decision.battery_discharge_kw == delivered
    assert discharged.energy_kwh == pytest.approx(state.energy_kwh, rel=1e-12)
    assert delivered / absorbed == pytest.approx(0.9, rel=1e-12)


# --- single-step dispatch ---------------------------------------------------

def test_dispatch_low_price_surplus_charges_battery():
    # example-day hour 2 shape: cheap power, ample renewables and headroom
    config = make_config()
    state = BatteryState.from_soc(0.5, config.battery)
    decision, after = dispatch_step(
        state, step(demand=73.5, price=0.1224, pv=100.0, wind=50.0),
        0.25, config)
    assert decision.battery_charge_kw == pytest.approx(76.5)
    assert decision.grid_export_kw == 0.0
    assert decision.curtailed_kw == 0.0
    assert decision.unserved_kw == 0.0
    assert decision.mode == "grid-connected"
    assert after.energy_kwh > state.energy_kwh


def test_dispatch_low_price_surplus_overflows_to_export_then_curtailment():
    config = make_config()
    battery = dataclasses.replace(config.battery, max_charge_kw=30.0)
    grid = dataclasses.replace(config.grid, export_limit_kw=25.0)
    config = dataclasses.replace(config, battery=battery, grid=grid)
    decision, _ = dispatch_step(
        BatteryState.from_soc(0.5, battery),
        step(demand=73.5, price=0.1224, pv=100.0, wind=50.0), 0.25, config)
    assert decision.battery_charge_kw == 30.0
    assert decision.grid_export_kw == 25.0
    assert decision.curtailed_kw == pytest.approx(21.5)


def test_dispatch_high_price_deficit_discharges_then_imports():
    # example-day hour 19 shape: expensive power, battery covers first
    config = make_config()
    battery = dataclasses.replace(config.battery, max_discharge_kw=100.0)
    config = dataclasses.replace(config, battery=battery)
    decision, _ = dispatch_step(
        BatteryState.from_soc(0.8, battery),
        step(demand=211.68, price=0.28872, pv=30.0, wind=20.0), 0.25, config)
    assert decision.battery_discharge_kw == pytest.approx(100.0)
    assert decision.grid_import_kw == pytest.approx(61.68)
    assert decision.grid_export_kw == 0.0
    assert decision.unserved_kw == 0.0


def test_dispatch_high_price_surplus_exports_without_charging():
    config = make_config()
    decision, after = dispatch_step(
        BatteryState.from_soc(0.5, config.battery),
        step(demand=87.024, price=0.27, pv=220.0, wind=30.0), 0.2628, config)
    assert decision.battery_charge_kw == 0.0
    assert decision.grid_export_kw == pytest.approx(162.976)
    assert after.soc == 0.5


def test_dispatch_islanded_deficit_uses_dg_then_unserved():
    # example-day hour 17 shape: outage with a drained battery
    config = make_config()
    decision, _ = dispatch_step(
        initial_state(config.battery),
        step(demand=182.28, price=0.23256, grid=False, pv=20.0, wind=10.0),
        0.2628, config)
    assert decision.mode == "islanded"
    assert decision.battery_discharge_kw == 0.0
    assert decision.dg_kw == pytest.approx(60.0)
    assert decision.unserved_kw == pytest.approx(92.28)
    assert decision.grid_import_kw == 0.0
    assert decision.grid_export_kw == 0.0


def test_dispatch_islanded_surplus_charges_then_curtails():
    config = make_config()
    battery = dataclasses.replace(config.battery, max_charge_kw=40.0)
    config = dataclasses.replace(config, battery=battery)
    decision, _ = dispatch_step(
        BatteryState.from_soc(0.5, battery),
        step(demand=50.0, price=0.1, grid=False, pv=100.0, wind=20.0),
        0.25, config)
    assert decision.battery_charge_kw == 40.0
    assert decision.curtailed_kw == pytest.approx(30.0)
    assert decision.grid_export_kw == 0.0


def test_dispatch_min_loading_keeps_dg_off_below_threshold():
    config = make_config()
    diesel = dataclasses.replace(config.diesel, min_loading_fraction=0.5)
    config = dataclasses.replace(config, diesel=diesel)
    decision, _ = dispatch_step(
        initial_state(config.battery),
        step(demand=20.0, price=0.1, grid=False), 0.25, config)
    assert decision.dg_kw == 0.0  # 20 kW < 50% of 60 kW: unit stays off
    assert decision.unserved_kw == pytest.approx(20.0)
    decision, _ = dispatch_step(
        initial_state(config.battery),
        step(demand=40.0, price=0.1, grid=False), 0.25, config)
    assert decision.dg_kw == pytest.approx(40.0)


def test_dispatch_load_threshold_mode_compares_demand():
    config = make_config(ems=EmsConfig(threshold_mode="load-threshold",
                                       load_threshold_kw=150.0))
    battery = dataclasses.replace(config.battery)
    state = BatteryState.from_soc(0.8, battery)
    # above the load threshold: discharge regime even at a cheap price
    decision, _ = dispatch_step(
        state, step(demand=200.0, price=0.01, pv=0.0), 150.0, config)
    assert decision.battery_discharge_kw > 0.0
    # below it: surplus charges
    decision, _ = dispatch_step(
        BatteryState.from_soc(0.5, battery),
        step(demand=100.0, price=0.01, pv=120.0), 150.0, config)
    assert decision.battery_charge_kw == pytest.approx(20.0)


# --- horizons ---------------------------------------------------------------

def rows(trace):
    """The trace as (decision, post-step battery state) row views."""
    return [(trace.decision(i), trace.state(i)) for i in range(len(trace))]


def test_run_arrays_zero_step():
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    initial = initial_state(config.battery)
    ((decision, state),) = rows(run_arrays([step()], initial, config))
    for name in ("pv_used_kw", "wind_used_kw", "curtailed_kw",
                 "battery_charge_kw", "battery_discharge_kw", "dg_kw",
                 "grid_import_kw", "grid_export_kw", "unserved_kw"):
        assert getattr(decision, name) == 0.0
    assert state.energy_kwh == initial.energy_kwh


def test_run_arrays_rejects_empty_inputs():
    config = make_config()
    with pytest.raises(ValueError, match="empty"):
        run_arrays([], initial_state(config.battery), config)


def test_run_arrays_is_deterministic(example_config, example_inputs):
    config = example_config.config
    first = run_arrays(example_inputs, initial_state(config.battery), config)
    second = run_arrays(example_inputs, initial_state(config.battery), config)
    assert rows(first) == rows(second)


def test_run_arrays_matches_scalar_fold(example_config, example_inputs):
    config = example_config.config
    threshold = price_threshold([s.price for s in example_inputs], config.ems)
    state = initial_state(config.battery)
    folded = []
    for s in example_inputs:
        decision, state = dispatch_step(state, s, threshold, config)
        folded.append((decision, state))
    assert rows(run_arrays(example_inputs, initial_state(config.battery),
                           config)) == folded


# --- randomized invariants --------------------------------------------------

def random_horizon(rng, config, n=None):
    n = n or int(rng.integers(1, 49))
    return [
        StepInput(index=i,
                  demand_kw=float(rng.uniform(0, 300)),
                  price=float(rng.uniform(0, 0.5)),
                  grid_available=bool(rng.random() > 0.2),
                  pv_kw=float(rng.uniform(0, 250)),
                  wind_kw=float(rng.uniform(0, 150)))
        for i in range(n)
    ]


def assert_step_invariants(trace, inputs, config):
    cols = trace.columns
    assert np.all(cols[:, :9] >= 0.0)
    assert np.all(cols[:, CHARGE] * cols[:, DISCHARGE] == 0.0)
    assert np.all(cols[:, IMPORT] * cols[:, EXPORT] == 0.0)
    islanded = trace.grid_available == 0
    assert np.all(cols[islanded, IMPORT] == 0.0)
    assert np.all(cols[islanded, EXPORT] == 0.0)
    assert np.all(cols[~islanded, DG] == 0.0)  # DG only runs islanded
    soc = cols[:, SOC]
    assert np.all(soc >= config.battery.soc_min - 1e-9)
    assert np.all(soc <= config.battery.soc_max + 1e-9)
    residuals = balance_residuals(trace, inputs)
    assert float(np.max(np.abs(residuals))) <= 1e-6
    check_balance(trace, inputs, config)


def test_random_horizon_invariants():
    rng = np.random.default_rng(7)
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    for _ in range(200):
        inputs = random_horizon(rng, config)
        trace = run_arrays(inputs, initial_state(config.battery), config)
        assert_step_invariants(trace, inputs, config)


def test_peak_shaving_never_raises_the_import_peak():
    rng = np.random.default_rng(21)
    base = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                     fixed_threshold=0.25))
    no_battery = dataclasses.replace(
        base, battery=dataclasses.replace(base.battery, capacity_kwh=0.0,
                                          soc_min=0.0, soc_max=0.8))
    for _ in range(50):
        inputs = random_horizon(rng, base, n=48)
        inputs = [dataclasses.replace(s, grid_available=True) for s in inputs]
        managed = run_arrays(inputs, initial_state(base.battery), base)
        unmanaged = run_arrays(inputs, initial_state(no_battery.battery),
                               no_battery)
        assert managed.column(IMPORT).max() <= unmanaged.column(IMPORT).max() + 1e-9


def test_battery_energy_conservation_over_long_horizon():
    rng = np.random.default_rng(3)
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    inputs = random_horizon(rng, config, n=10_000)
    initial = initial_state(config.battery)
    trace = run_arrays(inputs, initial, config)
    sqrt_eta = math.sqrt(config.battery.roundtrip_efficiency)
    dt = config.step_hours
    stored_delta = (trace.column(CHARGE).sum() * sqrt_eta * dt
                    - trace.column(DISCHARGE).sum() / sqrt_eta * dt)
    drift = abs(stored_delta - (trace.final_energy_kwh - initial.energy_kwh))
    assert drift <= 1e-6


@given(st.floats(min_value=0, max_value=500),
       st.floats(min_value=0, max_value=400),
       st.floats(min_value=0, max_value=0.6),
       st.booleans(),
       st.floats(min_value=0.2, max_value=0.8))
def test_single_step_balance_property(demand, renewables, price, grid, soc0):
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    state = BatteryState.from_soc(soc0, config.battery)
    decision, _ = dispatch_step(
        state, step(demand=demand, price=price, grid=grid, pv=renewables),
        0.25, config)
    supply = (decision.pv_used_kw + decision.wind_used_kw
              + decision.battery_discharge_kw + decision.dg_kw
              + decision.grid_import_kw)
    load = ((demand - decision.unserved_kw) + decision.battery_charge_kw
            + decision.grid_export_kw)
    assert supply == pytest.approx(load, abs=1e-6)


def test_check_balance_rejects_a_nan_residual():
    config = make_config()
    inputs = [step(demand=50.0), step(index=1, demand=float("nan"))]
    trace = run_arrays(inputs, initial_state(config.battery), config)
    with pytest.raises(BalanceError, match="at step 1"):
        check_balance(trace, inputs, config)


def test_check_balance_scales_its_tolerance_with_huge_flows():
    # 1e308 - 250 rounds back to 1e308: a 250 kW residual that is rounding
    config = make_config()
    inputs = [step(demand=1e308)]
    trace = run_arrays(inputs, initial_state(config.battery), config)
    assert balance_residuals(trace, inputs)[0] == 250.0
    check_balance(trace, inputs, config)


def test_check_balance_still_catches_a_small_residual_at_normal_scale(
        example_config, example_inputs):
    config = example_config.config
    trace = run_arrays(example_inputs, initial_state(config.battery), config)
    check_balance(trace, example_inputs, config)
    trace.columns[3, IMPORT] += 1e-5
    with pytest.raises(BalanceError, match="residual .* at step 3"):
        check_balance(trace, example_inputs, config)


# each row: the invariant's message, the planted flows at step 2, whether
# step 2 is grid-connected, and its demand; every planted row balances
PLANTED_BREACHES = [
    ("negative flow", {PV_USED: -5.0, UNSERVED: 5.0}, True, 0.0),
    ("battery charges and discharges", {CHARGE: 10.0, DISCHARGE: 10.0},
     True, 0.0),
    ("grid imports and exports", {IMPORT: 10.0, EXPORT: 10.0}, True, 0.0),
    ("grid exchange while islanded", {IMPORT: 10.0}, False, 10.0),
    ("diesel runs while grid-connected", {DG: 10.0}, True, 10.0),
]


def planted_trace(flows, grid, demand):
    """A four-step trace with the battery idle at its SOC floor."""
    config = make_config()
    battery = config.battery
    energy = battery.soc_min * battery.capacity_kwh
    columns = np.zeros((4, N_COLUMNS))
    columns[:, SOC] = battery.soc_min
    columns[:, ENERGY] = energy
    for column, value in flows.items():
        columns[2, column] = value
    grid_available = np.array([1, 1, grid, 1], dtype=np.uint8)
    inputs = [step(index=i, demand=demand if i == 2 else 0.0,
                   grid=bool(grid_available[i])) for i in range(4)]
    trace = HorizonArrays(columns=columns, grid_available=grid_available,
                          threshold=0.25, initial_energy_kwh=energy,
                          final_energy_kwh=energy)
    return trace, inputs, config


@pytest.mark.parametrize("name, flows, grid, demand", PLANTED_BREACHES,
                         ids=[row[0] for row in PLANTED_BREACHES])
def test_check_balance_names_a_planted_breach(name, flows, grid, demand):
    trace, inputs, config = planted_trace(flows, grid, demand)
    assert not balance_residuals(trace, inputs).any()
    with pytest.raises(BalanceError, match=f"^{name} at step 2$"):
        check_balance(trace, inputs, config)


def test_check_balance_allows_negative_zero_flows():
    # the kernel reports -0.0 discharge when pv + wind == demand exactly
    trace, inputs, config = planted_trace({}, False, 0.0)
    trace.columns[:, :UNSERVED + 1] = -0.0
    check_balance(trace, inputs, config)


def test_check_balance_passes_a_dispatched_day_with_the_battery_checks(
        example_config, example_inputs):
    config = example_config.config
    trace = run_arrays(example_inputs, initial_state(config.battery), config)
    assert trace.column(CHARGE).any() and trace.column(DISCHARGE).any()
    check_balance(trace, example_inputs, config)


def test_check_balance_names_a_planted_soc_outside_its_band():
    trace, inputs, config = planted_trace({}, True, 0.0)
    trace.columns[2, SOC] = config.battery.soc_max + 1e-6
    with pytest.raises(BalanceError, match="^SOC outside its band at step 2$"):
        check_balance(trace, inputs, config)


def test_check_balance_names_a_planted_energy_continuity_break():
    trace, inputs, config = planted_trace({}, True, 0.0)
    trace.columns[2, ENERGY] += 1.0
    with pytest.raises(BalanceError,
                       match="^stored energy breaks continuity at step 2$"):
        check_balance(trace, inputs, config)


def test_check_balance_recomputes_continuity_in_the_kernel_order():
    # one ulp off the kernel's update is a breach: the check is exact
    config = make_config()
    inputs = [step(demand=10.0, pv=80.0, price=0.01),
              step(index=1, demand=120.0, price=0.9)]
    trace = run_arrays(inputs, initial_state(config.battery), config, 0.25)
    assert trace.columns[0, CHARGE] > 0.0 and trace.columns[1, DISCHARGE] > 0.0
    check_balance(trace, inputs, config)
    trace.columns[1, ENERGY] = np.nextafter(trace.columns[1, ENERGY], np.inf)
    with pytest.raises(BalanceError, match="continuity at step 1$"):
        check_balance(trace, inputs, config)
