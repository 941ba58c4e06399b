"""EMS dispatch rule tests: threshold, battery band and efficiency, allocation."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mgems._kernel as pykernel
from mgems.dispatch import (HorizonArrays, balance_residuals, check_balance,
                            initial_state, price_threshold, run_arrays)
from mgems.errors import BalanceError
from mgems.metrics import build_report
from mgems.model import (THRESHOLD_FIXED, THRESHOLD_LOAD, THRESHOLD_MODES,
                         THRESHOLD_PERCENTILE, EmsConfig, validate_config)
from mgems.profiles import Profile
from mgems.scenarios import apply_scenario, builtin_scenario
from mgems._kernel import (CHARGE, CURTAILED, DG, DISCHARGE, ENERGY, EXPORT,
                           IMPORT, N_COLUMNS, PV_USED, SOC, UNSERVED,
                           WIND_USED)

from conftest import DAY_PRICES_CENTS, horizon, make_config


def step(demand=0.0, price=0.1, grid=True, pv=0.0, wind=0.0):
    """A horizon whose price defaults to 0.1; all-scalar columns make one step."""
    return horizon(demand=demand, price=price, grid=grid, pv=pv, wind=wind)


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, math.nan, 0.5, -0.5]),
                          st.floats(allow_nan=False)), min_size=1, max_size=40),
       st.floats(0.0, 1.0))
def test_percentile_selection_picks_the_stable_sorts_bits(prices, percentile):
    # the stable sort keeps 0.0 and -0.0 in input order; selection must
    # return the same zero, and the same bits for every other value
    ems = EmsConfig(threshold_mode="price-percentile", percentile=percentile)
    ordered = np.sort(np.array(prices), kind="stable")
    expected = ordered[math.floor(percentile * (len(prices) - 1))]
    assert np.float64(price_threshold(prices, ems)).tobytes() == expected.tobytes()


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
    energy = 0.5 * config.battery.capacity_kwh

    def charge(price):
        return run_arrays(step(demand=50.0, price=price, pv=80.0), energy,
                          config, 0.25).columns[0, CHARGE]

    assert charge(0.2808) == 0.0  # discharge regime: surplus never charges
    assert charge(0.08496) == 30.0
    assert charge(0.25) == 30.0  # equality charges


def test_full_battery_takes_no_charge_and_the_surplus_is_exported():
    config = make_config()
    full = config.battery.soc_max * config.battery.capacity_kwh
    surplus = step(demand=50.0, price=0.1, pv=80.0)
    row = run_arrays(surplus, full, config, 0.25).columns[0]
    assert row[CHARGE] == 0.0
    assert row[EXPORT] == 30.0
    assert row[ENERGY] == full
    # the band stops the battery only toward its edge
    row = run_arrays(step(demand=80.0, price=0.3, pv=50.0), full, config,
                     0.25).columns[0]
    assert row[DISCHARGE] == 30.0
    inside = 0.5 * config.battery.capacity_kwh
    assert run_arrays(surplus, inside, config, 0.25).columns[0, CHARGE] \
        == 30.0


def test_empty_battery_delivers_nothing_and_the_grid_imports():
    config = make_config()
    empty = config.battery.soc_min * config.battery.capacity_kwh
    deficit = step(demand=80.0, price=0.3, pv=50.0)
    row = run_arrays(deficit, empty, config, 0.25).columns[0]
    assert row[DISCHARGE] == 0.0
    assert row[IMPORT] == 30.0
    assert row[ENERGY] == empty
    # the band stops the battery only toward its edge
    row = run_arrays(step(demand=50.0, price=0.1, pv=80.0), empty, config,
                     0.25).columns[0]
    assert row[CHARGE] == 30.0
    inside = 0.5 * config.battery.capacity_kwh
    assert run_arrays(deficit, inside, config, 0.25).columns[0, DISCHARGE] \
        == 30.0


# --- surplus and the grid ---------------------------------------------------

def test_balanced_step_leaves_the_state_unchanged():
    config = make_config()
    energy = 0.37 * config.battery.capacity_kwh
    row = run_arrays(step(demand=50.0, pv=30.0, wind=20.0), energy, config,
                     0.25).columns[0]
    assert row[SOC] == 0.37 and row[ENERGY] == energy
    for column in (CHARGE, DISCHARGE, IMPORT, EXPORT, CURTAILED, UNSERVED):
        assert row[column] == 0.0


def test_deficit_of_example_day_hour_4_is_imported():
    config = make_config()
    row = run_arrays(step(demand=69.972, price=0.0936, pv=0.0, wind=5.18),
                     initial_state(config.battery), config, 0.25).columns[0]
    assert row[DISCHARGE] == 0.0
    assert row[IMPORT] == pytest.approx(64.792)


def test_net_exchange_sums_the_surplus_over_steps():
    # an empty battery above the threshold neither charges nor delivers,
    # so the grid takes each step's surplus and covers its deficit
    config = make_config()
    gens = [100.0, 50.0, 0.0]
    trace = run_arrays(step(demand=60.0, price=0.3, pv=gens),
                       initial_state(config.battery), config, 0.25)
    net = (trace.columns[:, EXPORT] - trace.columns[:, IMPORT]) * config.step_hours
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
    energy = 0.5 * config.battery.capacity_kwh
    row = run_arrays(step(demand=0.0, pv=20.0), energy, config,
                     0.25).columns[0]
    assert row[CHARGE] == 20.0
    gain = 20.0 * math.sqrt(0.9)
    assert row[ENERGY] == pytest.approx(100.0 + gain, rel=1e-12)
    assert row[SOC] == pytest.approx(0.5 + gain / 200.0, rel=1e-12)
    assert gain == pytest.approx(18.9737, abs=1e-4)


def test_charge_then_discharge_returns_90_percent():
    config = _whole_band_config()
    energy = 0.5 * config.battery.capacity_kwh
    absorbed = 20.0
    charged = run_arrays(step(demand=0.0, pv=absorbed), energy, config,
                         0.25).columns[0, ENERGY]
    stored = charged - energy
    delivered = stored * math.sqrt(0.9)
    row = run_arrays(step(demand=delivered, price=0.3), charged, config,
                     0.25).columns[0]
    assert row[DISCHARGE] == delivered
    assert row[ENERGY] == pytest.approx(energy, rel=1e-12)
    assert delivered / absorbed == pytest.approx(0.9, rel=1e-12)


# --- single-step dispatch ---------------------------------------------------

def test_dispatch_low_price_surplus_charges_battery():
    # example-day hour 2 shape: cheap power, ample renewables and headroom
    config = make_config()
    energy = 0.5 * config.battery.capacity_kwh
    row = run_arrays(step(demand=73.5, price=0.1224, pv=100.0, wind=50.0),
                     energy, config, 0.25).columns[0]
    assert row[CHARGE] == pytest.approx(76.5)
    assert row[EXPORT] == 0.0
    assert row[CURTAILED] == 0.0
    assert row[UNSERVED] == 0.0
    assert row[ENERGY] > energy


def test_dispatch_low_price_surplus_overflows_to_export_then_curtailment():
    config = make_config()
    battery = dataclasses.replace(config.battery, max_charge_kw=30.0)
    grid = dataclasses.replace(config.grid, export_limit_kw=25.0)
    config = dataclasses.replace(config, battery=battery, grid=grid)
    row = run_arrays(step(demand=73.5, price=0.1224, pv=100.0, wind=50.0),
                     0.5 * battery.capacity_kwh, config, 0.25).columns[0]
    assert row[CHARGE] == 30.0
    assert row[EXPORT] == 25.0
    assert row[CURTAILED] == pytest.approx(21.5)


def test_dispatch_high_price_deficit_discharges_then_imports():
    # example-day hour 19 shape: expensive power, battery covers first
    config = make_config()
    battery = dataclasses.replace(config.battery, max_discharge_kw=100.0)
    config = dataclasses.replace(config, battery=battery)
    row = run_arrays(step(demand=211.68, price=0.28872, pv=30.0, wind=20.0),
                     0.8 * battery.capacity_kwh, config, 0.25).columns[0]
    assert row[DISCHARGE] == pytest.approx(100.0)
    assert row[IMPORT] == pytest.approx(61.68)
    assert row[EXPORT] == 0.0
    assert row[UNSERVED] == 0.0


def test_dispatch_high_price_surplus_exports_without_charging():
    config = make_config()
    row = run_arrays(step(demand=87.024, price=0.27, pv=220.0, wind=30.0),
                     0.5 * config.battery.capacity_kwh, config,
                     0.2628).columns[0]
    assert row[CHARGE] == 0.0
    assert row[EXPORT] == pytest.approx(162.976)
    assert row[SOC] == 0.5


def test_dispatch_islanded_deficit_uses_dg_then_unserved():
    # example-day hour 17 shape: outage with a drained battery
    config = make_config()
    row = run_arrays(
        step(demand=182.28, price=0.23256, grid=False, pv=20.0, wind=10.0),
        initial_state(config.battery), config, 0.2628).columns[0]
    assert row[DISCHARGE] == 0.0
    assert row[DG] == pytest.approx(60.0)
    assert row[UNSERVED] == pytest.approx(92.28)
    assert row[IMPORT] == 0.0
    assert row[EXPORT] == 0.0


def test_dispatch_islanded_surplus_charges_then_curtails():
    config = make_config()
    battery = dataclasses.replace(config.battery, max_charge_kw=40.0)
    config = dataclasses.replace(config, battery=battery)
    row = run_arrays(
        step(demand=50.0, price=0.1, grid=False, pv=100.0, wind=20.0),
        0.5 * battery.capacity_kwh, config, 0.25).columns[0]
    assert row[CHARGE] == 40.0
    assert row[CURTAILED] == pytest.approx(30.0)
    assert row[EXPORT] == 0.0


def test_dispatch_min_loading_keeps_dg_off_below_threshold():
    config = make_config()
    diesel = dataclasses.replace(config.diesel, min_loading_fraction=0.5)
    config = dataclasses.replace(config, diesel=diesel)
    row = run_arrays(step(demand=20.0, price=0.1, grid=False),
                     initial_state(config.battery), config, 0.25).columns[0]
    assert row[DG] == 0.0  # 20 kW < 50% of 60 kW: unit stays off
    assert row[UNSERVED] == pytest.approx(20.0)
    row = run_arrays(step(demand=40.0, price=0.1, grid=False),
                     initial_state(config.battery), config, 0.25).columns[0]
    assert row[DG] == pytest.approx(40.0)


def test_dispatch_load_threshold_mode_compares_demand():
    config = make_config(ems=EmsConfig(threshold_mode="load-threshold",
                                       load_threshold_kw=150.0))
    capacity = config.battery.capacity_kwh
    # above the load threshold: discharge regime even at a cheap price
    row = run_arrays(step(demand=200.0, price=0.01, pv=0.0), 0.8 * capacity,
                     config, 150.0).columns[0]
    assert row[DISCHARGE] > 0.0
    # below it: surplus charges
    row = run_arrays(step(demand=100.0, price=0.01, pv=120.0),
                     0.5 * capacity, config, 150.0).columns[0]
    assert row[CHARGE] == pytest.approx(20.0)


# --- horizons ---------------------------------------------------------------

def test_run_arrays_zero_step():
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    initial = initial_state(config.battery)
    (row,) = run_arrays(step(), initial, config).columns
    assert row[:UNSERVED + 1].tolist() == [0.0] * 9
    assert row[ENERGY] == initial


def test_run_arrays_rejects_empty_inputs():
    config = make_config()
    with pytest.raises(ValueError, match="empty"):
        run_arrays(step(demand=[]), initial_state(config.battery), config)


def test_run_arrays_is_deterministic(example_config, example_inputs):
    config = example_config.config
    first = run_arrays(example_inputs, initial_state(config.battery), config)
    second = run_arrays(example_inputs, initial_state(config.battery), config)
    assert np.array_equal(first.columns, second.columns)


def test_run_arrays_stores_the_trace_column_major(example_config,
                                                  example_inputs):
    trace = run_arrays(example_inputs,
                       initial_state(example_config.config.battery),
                       example_config.config)
    assert trace.columns.shape == (len(example_inputs), N_COLUMNS)
    assert trace.columns.flags.f_contiguous
    assert not trace.columns.flags.c_contiguous


def test_run_arrays_matches_scalar_fold(example_config, example_inputs):
    config = example_config.config
    threshold = price_threshold(example_inputs.price, config.ems)
    energy = initial_state(config.battery)
    folded = []
    for i in range(len(example_inputs)):
        row = run_arrays(example_inputs[i:i + 1], energy, config,
                         threshold).columns[0].tolist()
        folded.append(row)
        energy = row[ENERGY]
    assert run_arrays(example_inputs, initial_state(config.battery),
                      config).columns.tolist() == folded


# --- a run split at any step and resumed is the same run --------------------

def assert_resumed_runs_are_the_run(inputs, config, splits):
    """Each split k: inputs[:k] from the initial state, then inputs[k:]
    from the first part's last stored energy, both at the whole horizon's
    threshold, joins to the one-piece run bit for bit."""
    whole = run_arrays(inputs, initial_state(config.battery), config)
    for k in splits:
        first = run_arrays(inputs[:k], initial_state(config.battery), config,
                           whole.threshold)
        rest = run_arrays(inputs[k:], first.columns[-1, ENERGY], config,
                          whole.threshold)
        joined = np.concatenate((first.columns, rest.columns))
        assert joined.tobytes() == whole.columns.tobytes(), f"split at {k}"


def skipped_stretches(inputs, config):
    """(first, stop) of each stretch the kernel skips in a one-piece run."""
    stretches = []
    fill_skipped = pykernel._fill_skipped

    def spy(skipped, *columns):
        stretches.extend(np.frombuffer(skipped, np.int64).reshape(-1, 2).tolist())
        return fill_skipped(skipped, *columns)

    with mock.patch.object(pykernel, "_fill_skipped", spy):
        run_arrays(inputs, initial_state(config.battery), config)
    return stretches


@pytest.mark.parametrize("scenario_id", [None, "S1", "S2", "S3"])
def test_a_run_resumed_at_a_skipped_stretchs_edge_is_the_same_run(
        example_config, example_inputs, scenario_id):
    # the example day for a month: the battery sits pinned for hours a day
    month = Profile(*(np.tile(getattr(example_inputs, field.name), 30)
                      for field in dataclasses.fields(Profile)))
    config = example_config.config
    if scenario_id is not None:
        month, config = apply_scenario(month, config,
                                       builtin_scenario(scenario_id))
    stretches = skipped_stretches(month, config)
    assert sum(stop - first for first, stop in stretches) > len(month) // 4
    # resume at the first, at the last and just after each skipped step
    assert_resumed_runs_are_the_run(month, config, sorted(
        {k for first, stop in stretches for k in (first, stop - 1, stop)}
        - {len(month)}))


@st.composite
def split_runs(draw):
    """A horizon of ties, zeros and free rows, a battery, and a split."""
    rows = draw(st.lists(st.tuples(
        st.floats(0.0, 400.0), st.floats(0.0, 300.0), st.floats(0.0, 200.0),
        st.booleans(), st.floats(0.0, 0.6),
        st.sampled_from(["free", "tie", "zero"])), min_size=2, max_size=40))
    columns = []
    for demand, pv, wind, grid, price, shape in rows:
        if shape == "zero":
            demand = pv = wind = 0.0
        elif shape == "tie":
            demand = pv + wind
        columns.append((demand, price, grid, pv, wind))
    soc_min = draw(st.floats(0.0, 0.4))
    config = make_config()
    config = dataclasses.replace(config, battery=dataclasses.replace(
        config.battery, capacity_kwh=draw(st.floats(0.0, 900.0)),
        soc_min=soc_min, soc_max=draw(st.floats(soc_min + 0.05, 1.0)),
        max_charge_kw=draw(st.floats(0.0, 200.0)),
        max_discharge_kw=draw(st.floats(0.0, 300.0))))
    return Profile(*zip(*columns)), config, draw(st.integers(1, len(rows) - 1))


@settings(max_examples=100, deadline=None)
@given(split_runs())
def test_a_run_split_at_any_step_and_resumed_is_the_same_run(case):
    inputs, config, k = case
    assert_resumed_runs_are_the_run(inputs, config, [k])


# --- doubling every power and energy doubles every flow ---------------------

# Doubling a float is exact, and so is every sum, difference, product and
# quotient of doubled operands, as long as no result overflows or falls
# below the normal range, where floats are spaced evenly and lose relative
# precision. So every magnitude is drawn as 0 or between 1e-3 and 1e3.
magnitude = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))

# the kernel columns that are kW or kWh; SOC is a ratio of two of them
SCALED_COLUMNS = [PV_USED, WIND_USED, CURTAILED, CHARGE, DISCHARGE, DG,
                  IMPORT, EXPORT, UNSERVED, ENERGY]

# the report's fields that double with every power and energy; every other
# field stays, but for the threshold in load-threshold mode
DOUBLED_FIELDS = {"energy": None, "emissions": None,
                  "economics": ("operating_cost", "capex", "npc")}


@st.composite
def sized_runs(draw):
    """A horizon of ties, zeros and free rows, and a config of drawn sizes
    and limits in one of the three threshold modes."""
    rows = draw(st.lists(st.tuples(
        magnitude, magnitude, magnitude, st.booleans(), st.floats(0.0, 0.6),
        st.sampled_from(["free", "tie", "zero"])), min_size=1, max_size=30))
    columns = []
    for demand, pv, wind, grid, price, shape in rows:
        if shape == "zero":
            demand = pv = wind = 0.0
        elif shape == "tie":
            demand = pv + wind
        columns.append((demand, price, grid, pv, wind))
    mode = draw(st.sampled_from(THRESHOLD_MODES))
    ems = EmsConfig(threshold_mode=mode, **{
        THRESHOLD_FIXED: {"fixed_threshold": draw(st.floats(0.0, 0.6))},
        THRESHOLD_PERCENTILE: {"percentile": draw(st.floats(0.05, 0.95))},
        THRESHOLD_LOAD: {"load_threshold_kw": draw(magnitude)}}[mode])
    config = make_config(ems=ems, step_hours=draw(st.sampled_from([0.25, 1.0])))
    soc_min = draw(st.floats(0.0, 0.4))
    units = draw(st.integers(0, 40))
    unit_rated_kw = draw(st.floats(1.0, 10.0))
    return Profile(*zip(*columns)), dataclasses.replace(
        config,
        pv=dataclasses.replace(config.pv, capacity_kw=draw(magnitude)),
        wind=dataclasses.replace(config.wind, unit_rated_kw=unit_rated_kw,
                                 capacity_kw=units * unit_rated_kw),
        battery=dataclasses.replace(
            config.battery, capacity_kwh=draw(magnitude), soc_min=soc_min,
            soc_max=draw(st.floats(soc_min + 0.05, soc_min + 0.6)),
            max_charge_kw=draw(magnitude), max_discharge_kw=draw(magnitude)),
        grid=dataclasses.replace(config.grid, import_limit_kw=draw(magnitude),
                                 export_limit_kw=draw(magnitude)),
        diesel=dataclasses.replace(config.diesel, capacity_kw=draw(magnitude),
                                   min_loading_fraction=draw(st.floats(0.0, 0.5))))


def doubled(inputs, config):
    """The horizon and config with every power and energy doubled: the
    demand, PV and wind columns, and every kW or kWh size and limit."""
    def twice(spec, *names):
        return dataclasses.replace(
            spec, **{name: 2 * getattr(spec, name) for name in names})
    ems = config.ems
    if ems.threshold_mode == THRESHOLD_LOAD:
        ems = twice(ems, "load_threshold_kw")
    return (dataclasses.replace(inputs, demand_kw=2 * inputs.demand_kw,
                                pv_kw=2 * inputs.pv_kw,
                                wind_kw=2 * inputs.wind_kw),
            dataclasses.replace(
                config, pv=twice(config.pv, "capacity_kw"),
                wind=twice(config.wind, "capacity_kw", "unit_rated_kw"),
                battery=twice(config.battery, "capacity_kwh", "max_charge_kw",
                              "max_discharge_kw"),
                grid=twice(config.grid, "import_limit_kw", "export_limit_kw"),
                diesel=twice(config.diesel, "capacity_kw"), ems=ems))


@settings(max_examples=60, deadline=None)
@given(sized_runs())
def test_doubling_every_power_and_energy_doubles_every_flow(case):
    inputs, config = case
    inputs2, config2 = doubled(inputs, config)
    assert validate_config(config).ok and validate_config(config2).ok
    trace = run_arrays(inputs, initial_state(config.battery), config)
    trace2 = run_arrays(inputs2, initial_state(config2.battery), config2)
    assert (2 * trace.columns[:, SCALED_COLUMNS]).tobytes() == \
        trace2.columns[:, SCALED_COLUMNS].tobytes()
    assert trace.columns[:, SOC].tobytes() == trace2.columns[:, SOC].tobytes()

    report = build_report(trace, inputs, config).to_dict()
    report2 = build_report(trace2, inputs2, config2).to_dict()
    for section, values in report.items():
        if not isinstance(values, dict):
            continue
        scaled = DOUBLED_FIELDS.get(section, ())
        for name, value in values.items():
            if scaled is None or name in scaled or (
                    (section, name) == ("horizon", "threshold")
                    and config.ems.threshold_mode == THRESHOLD_LOAD):
                value = 2 * value
            assert report2[section][name] == value, (section, name)


# --- randomized invariants --------------------------------------------------

def random_horizon(rng, config, n=None):
    n = n or int(rng.integers(1, 49))
    # drawn step by step, so each seed gives the same horizon as ever
    steps = [(rng.uniform(0, 300), rng.uniform(0, 0.5), rng.random() > 0.2,
              rng.uniform(0, 250), rng.uniform(0, 150)) for _ in range(n)]
    return Profile(*zip(*steps))


def assert_step_invariants(trace, inputs, config):
    cols = trace.columns
    assert np.all(cols[:, :9] >= 0.0)
    assert np.all(cols[:, CHARGE] * cols[:, DISCHARGE] == 0.0)
    assert np.all(cols[:, IMPORT] * cols[:, EXPORT] == 0.0)
    islanded = inputs.grid_available == 0
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
        inputs = dataclasses.replace(inputs, grid_available=np.ones(len(inputs)))
        managed = run_arrays(inputs, initial_state(base.battery), base)
        unmanaged = run_arrays(inputs, initial_state(no_battery.battery),
                               no_battery)
        assert managed.columns[:, IMPORT].max() <= \
            unmanaged.columns[:, IMPORT].max() + 1e-9


def test_battery_energy_conservation_over_long_horizon():
    rng = np.random.default_rng(3)
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    inputs = random_horizon(rng, config, n=10_000)
    initial = initial_state(config.battery)
    trace = run_arrays(inputs, initial, config)
    sqrt_eta = math.sqrt(config.battery.roundtrip_efficiency)
    dt = config.step_hours
    stored_delta = (trace.columns[:, CHARGE].sum() * sqrt_eta * dt
                    - trace.columns[:, DISCHARGE].sum() / sqrt_eta * dt)
    drift = abs(stored_delta - (trace.columns[-1, ENERGY] - initial))
    assert drift <= 1e-6


@given(st.floats(min_value=0, max_value=500),
       st.floats(min_value=0, max_value=400),
       st.floats(min_value=0, max_value=0.6),
       st.booleans(),
       st.floats(min_value=0.2, max_value=0.8))
def test_single_step_balance_property(demand, renewables, price, grid, soc0):
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    row = run_arrays(step(demand=demand, price=price, grid=grid,
                          pv=renewables),
                     soc0 * config.battery.capacity_kwh, config,
                     0.25).columns[0]
    supply = (row[PV_USED] + row[WIND_USED] + row[DISCHARGE] + row[DG]
              + row[IMPORT])
    load = (demand - row[UNSERVED]) + row[CHARGE] + row[EXPORT]
    assert supply == pytest.approx(load, abs=1e-6)


def test_check_balance_rejects_a_nan_residual():
    # a Profile holds no NaN: the NaN is planted in the trace's columns
    config = make_config()
    inputs = step(demand=[50.0, 60.0])
    trace = run_arrays(inputs, initial_state(config.battery), config)
    check_balance(trace, inputs, config)
    trace.columns[1, IMPORT] = float("nan")
    with pytest.raises(BalanceError, match=r"residual nan kW at step 1 "):
        check_balance(trace, inputs, config)


def test_check_balance_scales_its_tolerance_with_huge_flows():
    # 1e308 - 250 rounds back to 1e308: a 250 kW residual that is rounding
    config = make_config()
    inputs = step(demand=1e308)
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
    inputs = step(demand=[0.0, 0.0, demand, 0.0], grid=[1, 1, grid, 1])
    trace = HorizonArrays(columns=columns, threshold=0.25,
                          initial_energy_kwh=energy)
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
    assert trace.columns[:, CHARGE].any() and trace.columns[:, DISCHARGE].any()
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
    inputs = step(demand=[10.0, 120.0], pv=[80.0, 0.0], price=[0.01, 0.9])
    trace = run_arrays(inputs, initial_state(config.battery), config, 0.25)
    assert trace.columns[0, CHARGE] > 0.0 and trace.columns[1, DISCHARGE] > 0.0
    check_balance(trace, inputs, config)
    trace.columns[1, ENERGY] = np.nextafter(trace.columns[1, ENERGY], np.inf)
    with pytest.raises(BalanceError, match="continuity at step 1$"):
        check_balance(trace, inputs, config)
