"""Acceptance suite: one test per release criterion, each printing a PASS line.

Every expected value is computed by an independent oracle inside this module
(hand arithmetic, exhaustive enumeration, or greedy re-simulation over the
published day's numbers) or compared bit-exactly against frozen golden files.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mgems.cli import main, report_json_bytes
from mgems.dispatch import (BatteryState, balance_residuals, initial_state,
                            run_arrays)
from mgems.metrics import (EnergyTotals, accumulate_arrays, build_report,
                           emissions, lcoe, npc, percent_change,
                           renewable_fraction)
from mgems.model import EmissionFactors, EmsConfig
from mgems.profiles import StepInput
from mgems.scenarios import (IDENTITY_SCENARIO, OutageSpec, apply_scenario,
                             builtin_scenario, run_matrix)
from mgems._kernel import CHARGE, DG, DISCHARGE, EXPORT, IMPORT, SOC

from conftest import data_path, make_config

GOLDEN = Path(__file__).parent / "golden"


def report_pass(criterion: str) -> None:
    print(f"PASS {criterion}")


# --------------------------------------------------------------------------
# 1. Balance invariant suite: 10,000 randomized horizons
# --------------------------------------------------------------------------

def random_valid_config(rng):
    soc_min = float(rng.uniform(0.0, 0.4))
    soc_max = float(rng.uniform(soc_min + 0.05, 1.0))
    band = soc_max - soc_min
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=float(rng.uniform(0, 0.5))),
                         step_hours=float(rng.choice([0.25, 0.5, 1.0])))
    battery = dataclasses.replace(
        config.battery,
        capacity_kwh=float(rng.choice([0.0, rng.uniform(1, 800)])),
        roundtrip_efficiency=float(rng.uniform(0.5, 1.0)),
        depth_of_discharge=min(1.0, band + float(rng.uniform(0, 0.2))),
        soc_min=soc_min, soc_max=soc_max,
        max_charge_kw=float(rng.uniform(0, 200)),
        max_discharge_kw=float(rng.uniform(0, 300)))
    diesel = dataclasses.replace(
        config.diesel, capacity_kw=float(rng.uniform(0, 100)),
        min_loading_fraction=float(rng.choice([0.0, rng.uniform(0, 1)])))
    grid = dataclasses.replace(
        config.grid, import_limit_kw=float(rng.uniform(0, 400)),
        export_limit_kw=float(rng.uniform(0, 300)))
    return dataclasses.replace(config, battery=battery, diesel=diesel,
                               grid=grid)


def random_inputs(rng, n):
    return [StepInput(index=i,
                      demand_kw=float(rng.uniform(0, 350)),
                      price=float(rng.uniform(0, 0.6)),
                      grid_available=bool(rng.random() > 0.25),
                      pv_kw=float(rng.uniform(0, 280)),
                      wind_kw=float(rng.uniform(0, 160)))
            for i in range(n)]


def test_c1_balance_invariant_suite():
    from mgems.model import validate_config
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    for _ in range(10_000):
        config = random_valid_config(rng)
        assert validate_config(config).ok
        inputs = random_inputs(rng, int(rng.integers(1, 25)))
        soc0 = float(rng.uniform(config.battery.soc_min,
                                 config.battery.soc_max))
        initial = BatteryState.from_soc(soc0, config.battery)
        trace = run_arrays(inputs, initial, config)
        cols = trace.columns
        assert np.all(cols[:, :9] >= 0.0)
        assert float(np.max(np.abs(balance_residuals(trace, inputs)))) <= 1e-6
        assert np.all(cols[:, CHARGE] * cols[:, DISCHARGE] == 0.0)
        assert np.all(cols[:, IMPORT] * cols[:, EXPORT] == 0.0)
        down = trace.grid_available == 0
        assert np.all(cols[down, IMPORT] == 0.0)
        assert np.all(cols[down, EXPORT] == 0.0)
        assert np.all(cols[~down, DG] == 0.0)
        soc = cols[:, SOC]
        assert np.all(soc >= config.battery.soc_min - 1e-9)
        assert np.all(soc <= config.battery.soc_max + 1e-9)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"balance suite took {elapsed:.1f}s"
    report_pass(f"balance invariants: 10,000 horizons in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Oracle equivalence: exhaustive allocation search on quantized horizons
# --------------------------------------------------------------------------

def _candidates(upper):
    """The 1 kW lattice points below upper, plus upper itself."""
    values = [float(k) for k in range(int(math.floor(upper)) + 1)]
    if not values or values[-1] != upper:
        values.append(upper)
    return values


def oracle_allocation(inp, energy, threshold, config):
    """Exhaustive search over feasible allocations, picked by rule priority.

    Independent of the dispatch implementation: enumerates battery/grid/DG
    candidates on the quantized lattice (plus exact bounds), keeps the
    feasible ones, and selects lexicographically in the rule's priority
    order: the battery acts first, then the grid or diesel unit, and the
    remainder is unserved or curtailed. Note this is an order check, not an
    optimality check: with a diesel minimum-loading floor, serving the
    battery first can strand load a different allocation would have served.
    """
    b, grid, diesel = config.battery, config.grid, config.diesel
    dt = config.step_hours
    sqrt_eta = math.sqrt(b.roundtrip_efficiency)
    e_min = b.soc_min * b.capacity_kwh
    e_max = b.soc_max * b.capacity_kwh
    eff_chg = min(b.max_charge_kw, max(0.0, (e_max - energy) / (sqrt_eta * dt)))
    eff_dis = min(b.max_discharge_kw, max(0.0, (energy - e_min) * sqrt_eta / dt))
    ren = inp.pv_kw + inp.wind_kw
    sur = ren - inp.demand_kw
    discharging_regime = inp.price > threshold

    best = None
    best_key = None
    if sur > 0.0:
        # load fully served; surplus splits into charge/export/curtail.
        # charging is allowed only outside the discharge regime (and the
        # battery never discharges into export), so dis = dg = imp = uns = 0.
        may_charge = (not inp.grid_available) or (not discharging_regime)
        for chg in _candidates(min(sur, eff_chg) if may_charge else 0.0):
            exp_cap = min(grid.export_limit_kw, sur - chg) \
                if inp.grid_available else 0.0
            for exp in _candidates(exp_cap):
                curt = (sur - chg) - exp
                if curt < -1e-9:
                    continue
                key = (chg, exp)
                if best_key is None or key > best_key:
                    best_key = key
                    best = (0.0, chg, 0.0, 0.0, exp, 0.0, max(curt, 0.0))
        uns = 0.0
        dis, chg, dg, imp, exp, _, curt = (best[0], best[1], best[2], best[3],
                                           best[4], best[5], best[6])
    else:
        deficit = -sur
        for dis in _candidates(min(deficit, eff_dis)):
            if inp.grid_available:
                for imp in _candidates(min(grid.import_limit_kw, deficit - dis)):
                    uns = (deficit - dis) - imp
                    if uns < -1e-9:
                        continue
                    key = (dis, imp)
                    if best_key is None or key > best_key:
                        best_key = key
                        best = (dis, 0.0, 0.0, imp, 0.0, max(uns, 0.0), 0.0)
            else:
                for dg in _candidates(min(diesel.capacity_kw, deficit - dis)):
                    if dg > 0.0 and dg < diesel.min_loading_fraction \
                            * diesel.capacity_kw:
                        continue  # unit cannot run below its minimum loading
                    uns = (deficit - dis) - dg
                    if uns < -1e-9:
                        continue
                    key = (dis, dg)
                    if best_key is None or key > best_key:
                        best_key = key
                        best = (dis, 0.0, dg, 0.0, 0.0, max(uns, 0.0), 0.0)
        dis, chg, dg, imp, exp, uns, curt = best
    used = ren - curt
    pv_used = min(inp.pv_kw, used)
    energy_after = energy + chg * sqrt_eta * dt - (dis / sqrt_eta) * dt
    return {
        "pv_used_kw": pv_used, "wind_used_kw": used - pv_used,
        "curtailed_kw": curt, "battery_charge_kw": chg,
        "battery_discharge_kw": dis, "dg_kw": dg, "grid_import_kw": imp,
        "grid_export_kw": exp, "unserved_kw": uns,
    }, energy_after


def quantized_config(rng):
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    battery = dataclasses.replace(
        config.battery,
        capacity_kwh=float(rng.integers(0, 25)),
        roundtrip_efficiency=float(rng.choice([1.0, 0.81, 0.9])),
        depth_of_discharge=1.0,
        soc_min=float(rng.choice([0.0, 0.25])),
        soc_max=float(rng.choice([0.75, 1.0])),
        max_charge_kw=float(rng.integers(0, 10)),
        max_discharge_kw=float(rng.integers(0, 10)))
    diesel = dataclasses.replace(
        config.diesel, capacity_kw=float(rng.integers(0, 8)),
        min_loading_fraction=float(rng.choice([0.0, 0.0, 0.5])))
    grid = dataclasses.replace(config.grid,
                               import_limit_kw=float(rng.integers(0, 10)),
                               export_limit_kw=float(rng.integers(0, 8)))
    return dataclasses.replace(config, battery=battery, diesel=diesel,
                               grid=grid)


def test_c2_oracle_equivalence_on_quantized_horizons():
    from mgems.dispatch import dispatch_step
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(1_000):
        config = quantized_config(rng)
        n = int(rng.integers(1, 9))
        inputs = [StepInput(index=i,
                            demand_kw=float(rng.integers(0, 13)),
                            price=float(rng.choice([0.1, 0.25, 0.4])),
                            grid_available=bool(rng.random() > 0.3),
                            pv_kw=float(rng.integers(0, 7)),
                            wind_kw=float(rng.integers(0, 7)))
                  for i in range(n)]
        state = initial_state(config.battery)
        oracle_energy = state.energy_kwh
        for inp in inputs:
            decision, state = dispatch_step(state, inp, 0.25, config)
            expected, oracle_energy = oracle_allocation(
                inp, oracle_energy, 0.25, config)
            for field, value in expected.items():
                if abs(getattr(decision, field) - value) > 1e-9:
                    mismatches += 1
            if abs(state.energy_kwh - oracle_energy) > 1e-9:
                mismatches += 1
    assert mismatches == 0
    report_pass("oracle equivalence: 1,000 quantized horizons, 0 mismatches")


# --------------------------------------------------------------------------
# 3. Example-day peak shaving with an oracle-sized battery
# --------------------------------------------------------------------------

def load_example():
    from mgems.configio import load_config
    from mgems.profiles import load_profile
    loaded = load_config(data_path("example_config.ini"))
    inputs = load_profile(data_path("example_day.csv"), "generation",
                          loaded.config, loaded.price_unit)
    return loaded.config, inputs


def peak_shaving_oracle(inputs, config):
    """Pre-build greedy arithmetic over the day's numbers.

    Sizes the battery from the sum of above-threshold evening deficits
    (grossed up for the usable SOC band and the efficiency split), then
    replays the rule set with plain bookkeeping to predict the managed
    import peak. Never calls the dispatch implementation.
    """
    prices = [s.price for s in inputs]
    threshold = sorted(prices)[math.floor(0.75 * (len(prices) - 1))]
    b = config.battery
    sqrt_eta = math.sqrt(b.roundtrip_efficiency)
    band = b.soc_max - b.soc_min
    evening = range(17, 21)  # steps for hours 18..21 of the day
    deficit_sum = sum(
        max(0.0, s.demand_kw - s.pv_kw - s.wind_kw)
        for s in inputs if s.index in evening and s.price > threshold)
    capacity = deficit_sum / (band * sqrt_eta)

    swing = 0.0                      # stored kWh above the lower bound
    swing_max = band * capacity
    peak_import = 0.0
    for s in inputs:
        ren = s.pv_kw + s.wind_kw
        if ren >= s.demand_kw:
            sur = ren - s.demand_kw
            if s.price <= threshold:
                room = (swing_max - swing) / sqrt_eta
                swing += min(sur, b.max_charge_kw, room) * sqrt_eta
        else:
            deficit = s.demand_kw - ren
            give = min(deficit, b.max_discharge_kw, swing * sqrt_eta)
            swing -= give / sqrt_eta
            peak_import = max(peak_import, deficit - give)
    return capacity, threshold, peak_import


def test_c3_example_day_peak_shaving():
    config, inputs = load_example()
    started = time.monotonic()
    capacity, threshold, predicted_peak = peak_shaving_oracle(inputs, config)

    sized = dataclasses.replace(
        config, battery=dataclasses.replace(config.battery,
                                            capacity_kwh=capacity))
    managed = run_arrays(inputs, initial_state(sized.battery), sized)
    assert managed.threshold == threshold
    managed_peak = float(managed.column(IMPORT).max())

    unmanaged_cfg = dataclasses.replace(
        config, battery=dataclasses.replace(config.battery, capacity_kwh=0.0))
    unmanaged = run_arrays(inputs, initial_state(unmanaged_cfg.battery),
                           unmanaged_cfg)
    unmanaged_peak = float(unmanaged.column(IMPORT).max())
    assert unmanaged_peak == 235.2  # the day's raw demand peak

    achieved_pct = (unmanaged_peak - managed_peak) / unmanaged_peak * 100.0
    predicted_pct = (unmanaged_peak - predicted_peak) / unmanaged_peak * 100.0
    elapsed = time.monotonic() - started
    assert achieved_pct >= 40.0
    assert abs(achieved_pct - predicted_pct) <= 0.5
    assert elapsed < 1.0
    report_pass(f"peak shaving: {achieved_pct:.2f}% reduction "
                f"(oracle {predicted_pct:.2f}%, battery {capacity:.1f} kWh)")


# --------------------------------------------------------------------------
# 4. Outage resilience: golden trace, DG only inside the window
# --------------------------------------------------------------------------

def test_c4_outage_resilience_golden_trace(tmp_path):
    config_path = data_path("example_config.ini")
    profile_path = data_path("example_day.csv")
    out = tmp_path / "outage"
    assert main(["simulate", "--config", str(config_path), "--profile",
                 str(profile_path), "--out", str(out),
                 "--outage-start", "16", "--outage-hours", "6"]) == 0
    assert (out / "trace.csv").read_bytes() == \
        (GOLDEN / "outage" / "trace.csv").read_bytes()

    config, inputs = load_example()
    scenario_inputs, config = apply_scenario(
        inputs, config,
        dataclasses.replace(IDENTITY_SCENARIO,
                            outage=OutageSpec(start_step=16,
                                              duration_hours=6.0)))
    trace = run_arrays(scenario_inputs, initial_state(config.battery), config)
    cols = trace.columns
    window = np.zeros(len(scenario_inputs), dtype=bool)
    window[16:22] = True
    assert np.all(cols[window, IMPORT] == 0.0)
    assert np.all(cols[window, EXPORT] == 0.0)
    assert np.all(cols[~window, DG] == 0.0)  # DG only during the outage
    assert cols[:, DG].max() > 0.0           # and it does activate
    # the battery carries the first outage evening hours, then runs dry
    assert np.all(cols[18:21, DISCHARGE] > 0.0)
    assert cols[21, SOC] == pytest.approx(config.battery.soc_min, abs=1e-9)
    report_pass("outage resilience: golden trace bit-exact, DG only islanded")


# --------------------------------------------------------------------------
# 5. Economics formula fixtures
# --------------------------------------------------------------------------

def test_c5_economics_fixtures():
    assert npc(1000.0, 0.0, 0.0, 2) == pytest.approx(2000.0, rel=1e-9)
    assert npc(1100.0, 0.0, 0.10, 1) == pytest.approx(1000.0, rel=1e-9)
    assert npc(0.0, 5000.0, 0.08, 25) == pytest.approx(5000.0, rel=1e-9)
    assert lcoe(2000.0, 0.0, 2, 1000.0) == pytest.approx(1.0, rel=1e-9)
    assert lcoe(163.0 * 25, 0.0, 25, 1000.0) == pytest.approx(0.163, rel=1e-9)
    assert lcoe(npc(815.0, 0.0, 0.0, 5), 0.0, 5, 1000.0) == \
        pytest.approx(0.815, rel=1e-9)
    # reference comparison pairs, to a hundredth of a point
    assert percent_change(4.47e6, 1.69e6) == pytest.approx(-62.19, abs=0.01)
    assert percent_change(189_939.0, 29_188.0) == pytest.approx(-84.63,
                                                                abs=0.01)
    assert percent_change(0.190, 0.163) == pytest.approx(-14.21, abs=0.01)
    report_pass("economics fixtures: npc/lcoe/percent_change to tolerance")


# --------------------------------------------------------------------------
# 6. Emissions accounting structure
# --------------------------------------------------------------------------

def totals_with(**kw):
    fields = dict(imported_kwh=0.0, exported_kwh=0.0, dg_kwh=0.0, pv_kwh=0.0,
                  wind_kwh=0.0, battery_charge_kwh=0.0,
                  battery_discharge_kwh=0.0, served_kwh=0.0, unserved_kwh=0.0,
                  curtailed_kwh=0.0)
    fields.update(kw)
    return EnergyTotals(**fields)


def test_c6_emissions_structure():
    factors = EmissionFactors(
        dg={"co2": 0.7, "co": 0.004, "so2": 0.0014, "no2": 0.0065},
        grid={"co2": 0.79, "so2": 0.0026, "no2": 0.0012},
        export_offset_enabled=True)
    # an export-heavy synthetic year
    year = totals_with(dg_kwh=5_000.0, imported_kwh=50_000.0,
                       exported_kwh=600_000.0)
    net = emissions(year, factors).net_kg
    assert net["co2"] < 0.0
    assert net["so2"] < 0.0

    no_offsets = EmissionFactors(dg=factors.dg, grid=factors.grid,
                                 export_offset_enabled=False)
    assert all(v >= 0.0 for v in emissions(year, no_offsets).net_kg.values())

    doubled = totals_with(dg_kwh=10_000.0, imported_kwh=100_000.0,
                          exported_kwh=1_200_000.0)
    for pollutant, value in emissions(doubled, factors).net_kg.items():
        assert value == pytest.approx(2 * net[pollutant], rel=1e-9, abs=1e-12)
    report_pass("emissions: offset sign structure and linearity")


# --------------------------------------------------------------------------
# 7. Scenario matrix conditions
# --------------------------------------------------------------------------

def test_c7_scenario_matrix():
    s1, s2, s3, s4 = (builtin_scenario(s) for s in ("S1", "S2", "S3", "S4"))
    assert s1.demand_multiplier == 1.05
    assert (s2.pv_multiplier, s2.wind_multiplier) == (0.80, 0.60)
    assert s3.outage is not None and s3.outage.duration_hours == 6.0
    assert s4.fuel_price_multiplier == 2.0

    config, inputs = load_example()
    same_inputs, same_config = apply_scenario(inputs, config,
                                              IDENTITY_SCENARIO)
    assert same_inputs == inputs
    assert same_config == config

    rng = np.random.default_rng(123)
    relaxed = dataclasses.replace(
        config, grid=dataclasses.replace(config.grid, import_limit_kw=1e6),
        ems=EmsConfig(threshold_mode="fixed-price", fixed_threshold=0.25))
    for _ in range(100):
        n = int(rng.integers(4, 26))
        fixture = [StepInput(index=i,
                             demand_kw=float(rng.uniform(10, 250)),
                             price=float(rng.uniform(0, 0.5)),
                             grid_available=True,
                             pv_kw=float(rng.uniform(0, 250)),
                             wind_kw=float(rng.uniform(0, 120)))
                   for i in range(n)]
        scaled, s2_config = apply_scenario(fixture, relaxed, s2)
        base_totals, _ = accumulate_arrays(
            run_arrays(fixture, initial_state(relaxed.battery), relaxed),
            fixture, relaxed.step_hours)
        s2_totals, _ = accumulate_arrays(
            run_arrays(scaled, initial_state(s2_config.battery), s2_config),
            scaled, s2_config.step_hours)
        assert renewable_fraction(s2_totals) <= \
            renewable_fraction(base_totals) + 1e-9
    report_pass("scenario matrix: exact conditions, identity, S2 fraction")


# --------------------------------------------------------------------------
# 8. Performance: full-year run and 50-scenario matrix
# --------------------------------------------------------------------------

def synthetic_year(rng, n=8760):
    hours = np.arange(n) % 24
    demand = 120 + 80 * np.sin((hours - 6) / 24 * 2 * np.pi) \
        + rng.uniform(-20, 20, n)
    pv = np.clip(200 * np.sin((hours - 6) / 12 * np.pi), 0, None) \
        * rng.uniform(0.6, 1.0, n)
    wind = rng.uniform(0, 120, n)
    price = rng.uniform(0.05, 0.45, n)
    grid_ok = rng.random(n) > 0.01
    return [StepInput(index=i, demand_kw=float(max(0.0, demand[i])),
                      price=float(price[i]), grid_available=bool(grid_ok[i]),
                      pv_kw=float(pv[i]), wind_kw=float(wind[i]))
            for i in range(n)]


def test_c8_performance_year_and_matrix():
    rng = np.random.default_rng(7)
    config = make_config()
    inputs = synthetic_year(rng)

    started = time.perf_counter()
    trace = run_arrays(inputs, initial_state(config.battery), config)
    report = build_report(trace, inputs, config)
    year_elapsed = time.perf_counter() - started
    assert report.steps == 8760
    assert year_elapsed < 1.0, f"year simulation took {year_elapsed:.2f}s"

    scenarios = [dataclasses.replace(
        IDENTITY_SCENARIO, id=f"P{k:02d}",
        demand_multiplier=0.8 + 0.01 * k,
        pv_multiplier=0.7 + 0.01 * k) for k in range(50)]
    started = time.perf_counter()
    first = run_matrix(inputs, config, scenarios)
    matrix_elapsed = time.perf_counter() - started
    assert matrix_elapsed < 10.0, f"matrix took {matrix_elapsed:.2f}s"

    second = run_matrix(inputs, config, scenarios)
    assert set(first) == set(second)
    for key in first:
        assert report_json_bytes(first[key].report) == \
            report_json_bytes(second[key].report)
    report_pass(f"performance: year {year_elapsed * 1000:.0f} ms, "
                f"50-scenario matrix {matrix_elapsed:.1f}s, repeat run identical")


# --------------------------------------------------------------------------
# 9. CLI determinism
# --------------------------------------------------------------------------

def test_c9_cli_determinism(tmp_path):
    import shutil
    config = str(data_path("example_config.ini"))
    profile = str(data_path("example_day.csv"))
    out = tmp_path / "out"

    def invoke():
        assert main(["simulate", "--config", config, "--profile", profile,
                     "--out", str(out / "sim")]) == 0
        assert main(["scenarios", "--config", config, "--profile", profile,
                     "--out", str(out / "scen"), "--scenarios", "all"]) == 0
        return {p.relative_to(out): p.read_bytes()
                for p in out.rglob("*") if p.is_file()}

    first = invoke()
    shutil.rmtree(out)
    second = invoke()
    assert first.keys() == second.keys() and first
    for rel in first:
        assert first[rel] == second[rel], rel
    report_pass(f"determinism: {len(first)} output files bit-identical")
