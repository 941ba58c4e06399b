"""Metric aggregation and economic/emission formula tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgems._kernel import (CHARGE, CURTAILED, DG, DISCHARGE, ENERGY, EXPORT,
                           IMPORT, N_COLUMNS, PV_USED, SOC, UNSERVED,
                           WIND_USED)
from mgems.dispatch import HorizonArrays
from mgems.metrics import (EnergyTotals, _variable_cost_terms, accumulate,
                           build_report, capital_cost, capital_recovery_factor,
                           emissions, fixed_annual_om, lcoe, npc,
                           percent_change, project_npc, renewable_fraction)
from mgems.model import EmissionFactors

from conftest import horizon, make_config

COLUMN = dict(pv_used_kw=PV_USED, wind_used_kw=WIND_USED,
              curtailed_kw=CURTAILED, battery_charge_kw=CHARGE,
              battery_discharge_kw=DISCHARGE, dg_kw=DG, grid_import_kw=IMPORT,
              grid_export_kw=EXPORT, unserved_kw=UNSERVED)


def trace(rows):
    """An (n, 11) array trace, one row per dict of nonzero flows (kW).

    The battery rests at SOC 0.5 holding 100 kWh throughout.
    """
    columns = np.zeros((len(rows), N_COLUMNS))
    for i, flows in enumerate(rows):
        for name, value in flows.items():
            columns[i, COLUMN[name]] = value
    columns[:, SOC] = 0.5
    columns[:, ENERGY] = 100.0
    return HorizonArrays(columns=columns,
                         grid_available=np.ones(len(rows), dtype=np.uint8),
                         threshold=0.0, initial_energy_kwh=100.0,
                         final_energy_kwh=100.0)


def totals(**kw):
    fields = dict(imported_kwh=0.0, exported_kwh=0.0, dg_kwh=0.0, pv_kwh=0.0,
                  wind_kwh=0.0, battery_charge_kwh=0.0,
                  battery_discharge_kwh=0.0, served_kwh=0.0, unserved_kwh=0.0,
                  curtailed_kwh=0.0)
    fields.update(kw)
    return EnergyTotals(**fields)


# --- accumulate ---------------------------------------------------------------

def test_accumulate_all_zero_trace():
    inputs = horizon(demand=np.zeros(24))
    energy, reliability = accumulate(trace([{}] * 24), inputs, 1.0)
    assert energy == totals()
    assert reliability.outage_count == 0
    assert reliability.outage_hours == 0.0
    assert reliability.uptime_fraction == 1.0


def test_accumulate_counts_outage_runs():
    pattern = [True, False, False, True, False]
    inputs = horizon(grid=pattern)
    _, reliability = accumulate(trace([{}] * len(inputs)), inputs, 0.5)
    assert reliability.outage_count == 2       # runs: {1,2} and {4}
    assert reliability.outage_hours == 3 * 0.5


def test_accumulate_sums_each_column():
    inputs = horizon(demand=[100.0, 50.0], pv=[40.0, 20.0], wind=[10.0, 5.0])
    flows = trace([
        dict(pv_used_kw=40.0, wind_used_kw=10.0, grid_import_kw=30.0,
             battery_discharge_kw=20.0, unserved_kw=0.0),
        dict(pv_used_kw=15.0, wind_used_kw=5.0, curtailed_kw=5.0,
             battery_charge_kw=10.0, grid_export_kw=2.0,
             grid_import_kw=42.0, unserved_kw=0.0),
    ])
    energy, reliability = accumulate(flows, inputs, 2.0)
    assert energy.imported_kwh == pytest.approx(144.0)
    assert energy.exported_kwh == pytest.approx(4.0)
    assert energy.pv_kwh == pytest.approx(120.0)
    assert energy.wind_kwh == pytest.approx(30.0)
    assert energy.battery_charge_kwh == pytest.approx(20.0)
    assert energy.battery_discharge_kwh == pytest.approx(40.0)
    assert energy.served_kwh == pytest.approx(300.0)
    assert energy.unserved_kwh == 0.0
    assert energy.curtailed_kwh == pytest.approx(10.0)
    assert reliability.uptime_fraction == 1.0


def test_accumulate_uptime_counts_unserved_steps():
    inputs = horizon(demand=np.zeros(4))
    flows = trace([dict(unserved_kw=0.0), dict(unserved_kw=1.5),
                   dict(unserved_kw=0.0), dict(unserved_kw=0.25)])
    _, reliability = accumulate(flows, inputs, 1.0)
    assert reliability.uptime_fraction == 0.5


def test_accumulate_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        accumulate(trace([{}]), horizon(demand=[0.0, 0.0]), 1.0)


def test_accumulate_rejects_an_empty_horizon():
    with pytest.raises(ValueError, match="empty horizon"):
        accumulate(trace([]), horizon(demand=[]), 1.0)


def test_accumulate_is_additive_over_concatenation():
    rng = np.random.default_rng(11)
    demand, pv = zip(*[(rng.uniform(0, 100), rng.uniform(0, 50))
                       for _ in range(10)])
    inputs = horizon(demand=demand, pv=pv)
    rows = [dict(grid_import_kw=float(rng.uniform(0, 80)),
                 unserved_kw=float(rng.choice([0.0, 2.0])))
            for _ in range(10)]
    whole, _ = accumulate(trace(rows), inputs, 1.0)
    first, _ = accumulate(trace(rows[:4]), inputs[:4], 1.0)
    second, _ = accumulate(trace(rows[4:]), inputs[4:], 1.0)
    for name in vars(whole):
        assert getattr(whole, name) == pytest.approx(
            getattr(first, name) + getattr(second, name), rel=1e-12, abs=1e-12)


# --- operating cost -----------------------------------------------------------

def zero_om_config():
    config = make_config()
    return dataclasses.replace(
        config,
        pv=dataclasses.replace(config.pv, om_cost=0.0),
        wind=dataclasses.replace(config.wind, om_cost=0.0),
        battery=dataclasses.replace(config.battery, om_cost=0.0),
        diesel=dataclasses.replace(config.diesel, om_cost=0.0,
                                   fuel_cost_per_kwh=0.0),
    )


def variable_cost(flows, inputs, config):
    return _variable_cost_terms(flows.columns, inputs, config)


def test_variable_cost_zero_case():
    config = zero_om_config()
    assert variable_cost(trace([{}]), horizon(price=0.2), config) == 0.0


def test_variable_cost_import_only():
    config = zero_om_config()
    cost = variable_cost(trace([dict(grid_import_kw=10.0)]),
                         horizon(price=0.20), config)
    assert cost == pytest.approx(2.0)


def test_variable_cost_export_only_is_negative():
    config = zero_om_config()
    cost = variable_cost(trace([dict(grid_export_kw=10.0)]),
                         horizon(price=0.20), config)
    assert cost == pytest.approx(-2.0)


def test_variable_cost_sell_ratio_scales_export_revenue():
    config = zero_om_config()
    config = dataclasses.replace(
        config, grid=dataclasses.replace(config.grid, sell_price_ratio=0.5))
    cost = variable_cost(trace([dict(grid_export_kw=10.0)]),
                         horizon(price=0.20), config)
    assert cost == pytest.approx(-1.0)


def test_variable_cost_dg_fuel_and_running_om():
    config = zero_om_config()
    config = dataclasses.replace(
        config, diesel=dataclasses.replace(config.diesel, om_cost=0.03,
                                           fuel_cost_per_kwh=1.0))
    flows = trace([dict(dg_kw=60.0), dict(dg_kw=30.0), {}])
    inputs = horizon(demand=np.zeros(3))
    # fuel: 90 kWh * 1.0; running O&M: 2 h * 60 kW capacity * 0.03
    cost = variable_cost(flows, inputs, config)
    assert cost == pytest.approx(90.0 + 3.6)


def test_fixed_annual_om_sums_pv_wind_and_battery_om():
    config = make_config()
    expected = (250.0 * 10.0 + 120.0 * 207.0 + 660.0 * 10.0)
    assert fixed_annual_om(config) == pytest.approx(expected)


# --- npc / crf / lcoe ----------------------------------------------------------

def test_npc_zero_discount_sums_years():
    assert npc(1000.0, 0.0, 0.0, 2) == pytest.approx(2000.0, rel=1e-12)


def test_npc_discounts_one_year():
    assert npc(1100.0, 0.0, 0.10, 1) == pytest.approx(1000.0, rel=1e-9)


def test_npc_capex_only():
    assert npc(0.0, 5000.0, 0.07, 30) == 5000.0


def test_npc_matches_annuity_oracle():
    # oracle: explicit year-by-year present values
    rate, years, annual, capex = 0.08, 25, 12_345.0, 1_000.0
    expected = capex + sum(annual / (1 + rate) ** y
                           for y in range(1, years + 1))
    assert npc(annual, capex, rate, years) == pytest.approx(expected, rel=1e-12)


def test_npc_rejects_zero_lifetime():
    with pytest.raises(ValueError):
        npc(1.0, 0.0, 0.05, 0)


@given(st.floats(min_value=0, max_value=0.5),
       st.floats(min_value=0, max_value=0.5))
def test_npc_monotone_nonincreasing_in_discount_rate(a, b):
    low, high = sorted((a, b))
    assert npc(1000.0, 0.0, high, 20) <= npc(1000.0, 0.0, low, 20) + 1e-9


def test_crf_zero_rate_is_inverse_lifetime():
    assert capital_recovery_factor(0.0, 25) == pytest.approx(1.0 / 25.0)


def test_crf_of_a_rate_too_small_to_move_one_is_inverse_lifetime():
    # (1 + 1e-20) ** 25 rounds to 1.0, which would divide by zero
    assert capital_recovery_factor(1e-20, 25) == 1.0 / 25.0


def test_crf_matches_annuity_oracle():
    # oracle: CRF is the reciprocal of the annuity present-value factor
    rate, years = 0.08, 25
    annuity = sum(1.0 / (1 + rate) ** y for y in range(1, years + 1))
    assert capital_recovery_factor(rate, years) == pytest.approx(
        1.0 / annuity, rel=1e-12)


def test_lcoe_zero_discount_case():
    assert lcoe(2000.0, 0.0, 2, 1000.0) == pytest.approx(1.0, rel=1e-12)


def test_lcoe_headline_scale():
    # an annualized cost of 163 over 1000 kWh/yr prices energy at 0.163
    years = 25
    npc_value = 163.0 * years
    assert lcoe(npc_value, 0.0, years, 1000.0) == pytest.approx(0.163,
                                                                rel=1e-12)


def test_lcoe_halves_when_served_doubles():
    one = lcoe(5000.0, 0.08, 20, 1000.0)
    two = lcoe(5000.0, 0.08, 20, 2000.0)
    assert two == pytest.approx(one / 2.0, rel=1e-12)


def test_lcoe_rejects_zero_served_energy():
    with pytest.raises(ValueError):
        lcoe(1000.0, 0.05, 10, 0.0)


@given(st.floats(min_value=1.0, max_value=1e6),
       st.integers(min_value=1, max_value=50),
       st.floats(min_value=1.0, max_value=1e7))
def test_lcoe_npc_round_trip_at_zero_discount(annual, years, served):
    # annualizing the NPC of a constant annual cost recovers that cost
    value = lcoe(npc(annual, 0.0, 0.0, years), 0.0, years, served)
    assert value == pytest.approx(annual / served, rel=1e-9)


# --- renewable fraction / percent change ---------------------------------------

def test_renewable_fraction_fully_renewable():
    t = totals(pv_kwh=60.0, wind_kwh=40.0, served_kwh=100.0)
    assert renewable_fraction(t) == 1.0


def test_renewable_fraction_mixed():
    t = totals(pv_kwh=40.0, wind_kwh=20.0, served_kwh=100.0)
    assert renewable_fraction(t) == pytest.approx(0.6)


def test_renewable_fraction_nets_out_curtailment():
    t = totals(pv_kwh=80.0, wind_kwh=20.0, curtailed_kwh=30.0,
               served_kwh=100.0)
    assert renewable_fraction(t) == pytest.approx(0.7)


def test_renewable_fraction_clamps_and_rejects_zero_served():
    assert renewable_fraction(totals(pv_kwh=500.0, served_kwh=100.0)) == 1.0
    with pytest.raises(ValueError):
        renewable_fraction(totals())


def test_percent_change_reference_pairs():
    assert percent_change(4.47e6, 1.69e6) == pytest.approx(-62.19, abs=0.01)
    assert percent_change(189_939.0, 29_188.0) == pytest.approx(-84.63, abs=0.01)
    assert percent_change(0.190, 0.163) == pytest.approx(-14.21, abs=0.01)
    assert percent_change(47.8, 92.3) == pytest.approx(93.10, abs=0.01)


def test_percent_change_identity_and_zero_base():
    assert percent_change(123.4, 123.4) == 0.0
    with pytest.raises(ValueError):
        percent_change(0.0, 1.0)


@given(st.floats(min_value=1e-3, max_value=1e6),
       st.floats(min_value=-0.99, max_value=5.0))
def test_percent_change_scaling_property(base, p):
    assert percent_change(base, base * (1 + p)) == pytest.approx(100 * p,
                                                                 abs=1e-6)


# --- emissions ------------------------------------------------------------------

def test_emissions_zero_factors_zero_mass():
    result = emissions(totals(dg_kwh=100.0, imported_kwh=100.0),
                       EmissionFactors())
    assert all(v == 0.0 for v in result.net_kg.values())


def test_emissions_import_contribution():
    factors = EmissionFactors(grid={"co2": 0.5})
    result = emissions(totals(imported_kwh=1000.0), factors)
    assert result.net_kg["co2"] == pytest.approx(500.0)
    assert result.net_kg["so2"] == 0.0


def test_emissions_offsets_can_go_negative():
    factors = EmissionFactors(dg={"co2": 0.7}, grid={"co2": 0.5},
                              export_offset_enabled=True)
    t = totals(dg_kwh=100.0, imported_kwh=200.0, exported_kwh=1000.0)
    result = emissions(t, factors)
    assert result.net_kg["co2"] == pytest.approx(70.0 + 100.0 - 500.0)
    assert result.net_kg["co2"] < 0
    disabled = EmissionFactors(dg=factors.dg, grid=factors.grid,
                               export_offset_enabled=False)
    assert emissions(t, disabled).net_kg["co2"] >= 0


@given(st.floats(min_value=0, max_value=1e5),
       st.floats(min_value=0, max_value=1e5),
       st.floats(min_value=0, max_value=1e5),
       st.floats(min_value=0, max_value=2),
       st.floats(min_value=1, max_value=4))
def test_emissions_linear_in_totals_and_factors(dg_kwh, imported, exported,
                                                factor, scale):
    factors = EmissionFactors(dg={"co2": factor}, grid={"co2": factor * 0.5},
                              export_offset_enabled=True)
    t1 = totals(dg_kwh=dg_kwh, imported_kwh=imported, exported_kwh=exported)
    t2 = totals(dg_kwh=dg_kwh * scale, imported_kwh=imported * scale,
                exported_kwh=exported * scale)
    one = emissions(t1, factors).net_kg["co2"]
    scaled = emissions(t2, factors).net_kg["co2"]
    assert scaled == pytest.approx(one * scale, rel=1e-9, abs=1e-9)
    double_factors = EmissionFactors(dg={"co2": factor * 2},
                                     grid={"co2": factor},
                                     export_offset_enabled=True)
    assert emissions(t1, double_factors).net_kg["co2"] == pytest.approx(
        one * 2, rel=1e-9, abs=1e-9)


# --- project economics ----------------------------------------------------------

def test_capital_cost_sums_component_outlays():
    config = make_config()
    expected = (250.0 * 1300.0 + 120.0 * 2300.0 + 60.0 * 400.0
                + 660.0 * 700.0 + 250.0 * 300.0)  # converter at 250 kW
    assert capital_cost(config) == pytest.approx(expected)


def test_project_npc_replacements_and_salvage():
    # one component (battery, 10-yr life) in a 25-yr project at zero discount:
    # replacements at years 10 and 20, salvage of half the last unit's life.
    config = make_config()
    config = dataclasses.replace(
        config,
        pv=dataclasses.replace(config.pv, capacity_kw=0.0),
        wind=dataclasses.replace(config.wind, capacity_kw=0.0),
        diesel=dataclasses.replace(config.diesel, capacity_kw=0.0),
        battery=dataclasses.replace(config.battery, capacity_kwh=100.0,
                                    max_charge_kw=0.0, max_discharge_kw=0.0),
        economics=dataclasses.replace(config.economics, discount_rate=0.0),
    )
    battery_install = 100.0 * 700.0
    expected = battery_install + 2 * battery_install - 0.5 * battery_install
    assert project_npc(0.0, config) == pytest.approx(expected, rel=1e-12)


def test_project_npc_no_salvage_when_lifetime_divides_project():
    config = make_config()
    config = dataclasses.replace(
        config,
        pv=dataclasses.replace(config.pv, capacity_kw=0.0),
        wind=dataclasses.replace(config.wind, capacity_kw=0.0),
        diesel=dataclasses.replace(config.diesel, capacity_kw=0.0),
        battery=dataclasses.replace(config.battery, capacity_kwh=100.0,
                                    max_charge_kw=0.0, max_discharge_kw=0.0),
        economics=dataclasses.replace(config.economics, discount_rate=0.0,
                                      project_lifetime_years=20),
    )
    battery_install = 100.0 * 700.0
    # replacement at year 10 only; the second unit dies exactly at year 20
    assert project_npc(0.0, config) == pytest.approx(2 * battery_install,
                                                     rel=1e-12)


def test_project_npc_discounts_lifecycle_flows():
    config = make_config()
    config = dataclasses.replace(
        config,
        pv=dataclasses.replace(config.pv, capacity_kw=0.0),
        wind=dataclasses.replace(config.wind, capacity_kw=0.0),
        diesel=dataclasses.replace(config.diesel, capacity_kw=0.0),
        battery=dataclasses.replace(config.battery, capacity_kwh=100.0,
                                    max_charge_kw=0.0, max_discharge_kw=0.0),
    )
    rate = config.economics.discount_rate
    install = 100.0 * 700.0
    expected = (install
                + install / (1 + rate) ** 10
                + install / (1 + rate) ** 20
                - install * 0.5 / (1 + rate) ** 25)
    assert project_npc(0.0, config) == pytest.approx(expected, rel=1e-12)


# --- build_report -------------------------------------------------------------

def test_build_report_names_the_first_field_that_is_not_finite():
    base = make_config()
    config = dataclasses.replace(
        base, pv=dataclasses.replace(base.pv, capital_cost=1e308))
    with pytest.raises(ValueError, match=r"^report field economics\.capex is "
                                         r"not finite: inf$"):
        build_report(trace([dict(grid_import_kw=50.0)]),
                     horizon(demand=50.0, price=0.1), config)


def test_build_report_allows_undefined_ratios_when_nothing_is_served():
    report = build_report(trace([{}]), horizon(), make_config())
    assert report.economics.lcoe is None
    assert report.economics.renewable_fraction is None
