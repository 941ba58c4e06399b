"""Shared fixtures: the example community day and a config factory."""

from __future__ import annotations

import contextlib
import importlib.resources
import os
import re
from unittest import mock

import numpy as np
import pytest

from mgems import scenarios
from mgems.configio import load_config
from mgems.model import (BatterySpec, DieselSpec, EconomicsConfig,
                         EmissionFactors, EmsConfig, GridSpec,
                         MicrogridConfig, PvSpec, WindSpec)
from mgems.profiles import Profile, load_profile
from mgems.scenarios import Scenario

# hourly demand (kW) and real-time price (cents/kWh) of the example day
DAY_DEMAND_KW = [
    99.96, 73.5, 70.56, 69.972, 92.904, 93.492, 102.9, 161.7, 135.24, 88.2,
    87.024, 87.024, 88.2, 170.52, 161.7, 164.052, 182.28, 185.22, 211.68,
    226.38, 235.2, 129.36, 128.184, 94.08,
]
DAY_PRICES_CENTS = [
    12.168, 12.24, 8.496, 9.36, 11.52, 15.12, 22.896, 22.752, 25.92, 25.2,
    27.0, 26.64, 26.424, 21.6, 23.184, 22.968, 23.256, 26.28, 28.872, 26.496,
    28.08, 20.52, 18.0, 12.6,
]

# a scenario that changes nothing, to derive others from with replace()
IDENTITY_SCENARIO = Scenario(id="identity")


def data_path(name: str):
    return importlib.resources.files("mgems") / "data" / name


def example_config_text(changes: dict) -> str:
    """The example config file's text with the key of each (section, key)
    of ``changes`` set to its value, or left out where the value is None."""
    lines = []
    section = None
    for line in data_path("example_config.ini").read_text().splitlines():
        match = re.fullmatch(r"\[(.+)\]", line.strip())
        if match:
            section = match.group(1)
            lines.append(line)
            lines += [f"{key} = {value}" for (name, key), value
                      in changes.items() if name == section and value is not None]
        elif (section, line.split("=")[0].strip()) not in changes:
            lines.append(line)
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def split_from(min_steps: int):
    """The scenario matrix forking from ``min_steps`` kernel steps, as with
    two CPUs free."""
    with mock.patch.object(scenarios, "MIN_KERNEL_STEPS", min_steps), \
            mock.patch.object(os, "sched_getaffinity", return_value={0, 1}):
        yield


def horizon(demand=0.0, price=0.0, grid=True, pv=0.0, wind=0.0) -> Profile:
    """A Profile of the given columns; a scalar repeats to the columns'
    length, and all-scalar arguments make one step."""
    columns = (demand, price, grid, pv, wind)
    n = max((len(c) for c in columns if np.ndim(c)), default=1)
    return Profile(*(np.broadcast_to(c, n) for c in columns))


def make_config(**overrides) -> MicrogridConfig:
    """A valid reference config; override whole sub-specs as needed."""
    fields = dict(
        pv=PvSpec(capacity_kw=250.0, derating_factor=0.8, capital_cost=1300.0,
                  replacement_cost=1300.0, om_cost=10.0, lifetime_years=20.0),
        wind=WindSpec(capacity_kw=120.0, unit_rated_kw=3.0, cut_in_ms=4.0,
                      cut_out_ms=24.0, rated_speed_ms=12.0, hub_height_m=15.0,
                      anemometer_height_m=15.0, shear_exponent=1.0 / 7.0,
                      capital_cost=2300.0, om_cost=207.0, lifetime_years=20.0),
        diesel=DieselSpec(capacity_kw=60.0, capital_cost=400.0, om_cost=0.03,
                          fuel_cost_per_kwh=1.0, min_loading_fraction=0.0),
        battery=BatterySpec(capacity_kwh=660.0, roundtrip_efficiency=0.9,
                            depth_of_discharge=0.8, soc_min=0.2, soc_max=0.8,
                            max_charge_kw=100.0, max_discharge_kw=250.0,
                            capital_cost=700.0, om_cost=10.0,
                            lifetime_years=10.0),
        grid=GridSpec(import_limit_kw=250.0, export_limit_kw=200.0,
                      sell_price_ratio=1.0),
        ems=EmsConfig(threshold_mode="price-percentile", percentile=0.75),
        economics=EconomicsConfig(discount_rate=0.08,
                                  project_lifetime_years=25,
                                  converter_efficiency=0.95,
                                  converter_capital_cost=300.0),
        emissions=EmissionFactors(dg={"co2": 0.7}, grid={"co2": 0.79}),
        step_hours=1.0,
    )
    fields.update(overrides)
    return MicrogridConfig(**fields)


@pytest.fixture(scope="session")
def example_config():
    return load_config(data_path("example_config.ini"))


@pytest.fixture(scope="session")
def example_inputs(example_config):
    return load_profile(data_path("example_day.csv"), "generation",
                        example_config.config, example_config.price_unit)
