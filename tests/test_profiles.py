"""Profile parsing and renewable conversion tests."""

import dataclasses
import math
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mgems import profiles
from mgems.errors import ProfileFormatError
from mgems.model import PvSpec, WindSpec
from mgems.profiles import (Profile, ResourceProfile, convert_prices,
                            parse_profile, resource_to_inputs)

from conftest import EMPTY_HORIZON, horizon, make_config
from resource_reference import pv_power, serialize_profile, wind_power

GEN_HEADER = "index,demand_kw,price,grid_available,pv_kw,wind_kw"
RES_HEADER = "index,demand_kw,price,grid_available,irradiance_wm2,wind_speed_ms"


def test_parse_example_day_first_row(example_inputs):
    assert example_inputs.demand_kw[0] == 99.96
    assert example_inputs.price[0] == 0.12168  # cents converted at ingestion
    assert example_inputs.grid_available[0] == 1


def test_parse_single_row():
    data = (GEN_HEADER + "\n1,99.96,0.12168,1,12.5,3.25\n").encode()
    assert parse_profile(data, "generation") == \
        horizon(demand=99.96, price=0.12168, pv=12.5, wind=3.25)


def test_indices_are_renumbered_in_file_order():
    data = (GEN_HEADER + "\n7,1,1,1,0,0\n3,2,2,0,0,0\n").encode()
    records = parse_profile(data, "generation")
    assert records.demand_kw.tolist() == [1.0, 2.0]
    assert records.grid_available.tolist() == [1, 0]


def test_crlf_and_blank_lines_are_accepted():
    data = (GEN_HEADER + "\r\n0,1,1,1,0,0\r\n\r\n1,2,2,1,0,0\r\n").encode()
    assert len(parse_profile(data, "generation")) == 2


@pytest.mark.parametrize("row,fragment", [
    ("0,99.96,0.12,1,0", "line 2: expected 6 fields, got 5"),
    ("0,abc,0.12,1,0,0", "line 2, column demand_kw"),
    ("0,-5,0.12,1,0,0", "column demand_kw: must be >= 0"),
    ("0,5,-0.12,1,0,0", "column price: must be >= 0"),
    ("0,5,0.12,2,0,0", "column grid_available"),
    ("0,5,0.12,1,-1,0", "column pv_kw: must be >= 0"),
    ("0,5,0.12,1,0,nan?", "column wind_kw"),
])
def test_malformed_rows_name_line_and_column(row, fragment):
    data = (GEN_HEADER + "\n" + row + "\n").encode()
    with pytest.raises(ProfileFormatError, match=None) as exc:
        parse_profile(data, "generation")
    assert fragment in str(exc.value)


def test_wrong_header_is_rejected():
    with pytest.raises(ProfileFormatError, match="expected header"):
        parse_profile(b"a,b,c,d,e,f\n", "generation")


def test_an_unknown_mode_is_rejected():
    with pytest.raises(ValueError) as exc:
        parse_profile((GEN_HEADER + "\n0,5,0.12,1,0,0\n").encode(), "hourly")
    assert str(exc.value) == "unknown profile mode: 'hourly'"


def test_resource_mode_negative_speed_is_rejected():
    data = (RES_HEADER + "\n0,5,0.12,1,100,-3\n").encode()
    with pytest.raises(ProfileFormatError, match="wind_speed_ms"):
        parse_profile(data, "resource")


finite_power = st.floats(min_value=0, max_value=1e6, allow_nan=False)


@given(st.lists(
    st.tuples(finite_power, finite_power, st.booleans(), finite_power,
              finite_power),
    min_size=1, max_size=30))
def test_parse_serialize_parse_round_trip(rows):
    records = Profile(*zip(*rows))
    once = parse_profile(serialize_profile(records), "generation")
    assert once == records
    assert parse_profile(serialize_profile(once), "generation") == once


def test_price_conversion_from_cents():
    records = horizon(demand=1.0, price=12.168)
    assert convert_prices(records, "cents_per_kwh").price[0] == 0.12168
    assert convert_prices(records, "currency_per_kwh") == records
    with pytest.raises(ValueError) as exc:
        convert_prices(records, "mills_per_kwh")
    assert str(exc.value) == "unknown price unit: 'mills_per_kwh'"


PV = PvSpec(capacity_kw=100.0, derating_factor=0.8, capital_cost=0.0,
            replacement_cost=0.0, om_cost=0.0, lifetime_years=20.0)


def test_pv_power_reference_points():
    assert pv_power(0.0, PV) == 0.0
    assert pv_power(1000.0, PV) == 80.0
    assert pv_power(1500.0, PV) == 80.0  # clamped at reference irradiance
    assert pv_power(500.0, PV) == pytest.approx(40.0)


def test_pv_power_rejects_negative_irradiance():
    with pytest.raises(ValueError):
        pv_power(-1.0, PV)


@given(st.floats(min_value=0, max_value=2000),
       st.floats(min_value=0, max_value=2000))
def test_pv_power_is_monotone_and_bounded(a, b):
    low, high = sorted((a, b))
    assert pv_power(low, PV) <= pv_power(high, PV)
    assert 0.0 <= pv_power(high, PV) <= PV.capacity_kw * PV.derating_factor


WT = WindSpec(capacity_kw=3.0, unit_rated_kw=3.0, cut_in_ms=4.0,
              cut_out_ms=24.0, rated_speed_ms=12.0, hub_height_m=15.0,
              anemometer_height_m=15.0, shear_exponent=1.0 / 7.0,
              capital_cost=0.0, om_cost=0.0, lifetime_years=20.0)


def test_wind_power_curve_regions():
    assert wind_power(3.0, WT) == 0.0            # below cut-in
    assert wind_power(24.0, WT) == 0.0           # at cut-out
    assert wind_power(30.0, WT) == 0.0           # beyond cut-out
    assert wind_power(12.0, WT) == 3.0           # rated point
    assert wind_power(18.0, WT) == 3.0           # rated plateau
    # cubic interpolation between cut-in and rated
    expected = 3.0 * (8.0**3 - 4.0**3) / (12.0**3 - 4.0**3)
    assert wind_power(8.0, WT) == pytest.approx(expected)
    assert wind_power(4.0, WT) == pytest.approx(0.0)


def test_wind_power_shear_correction():
    sheared = WindSpec(capacity_kw=3.0, unit_rated_kw=3.0, cut_in_ms=4.0,
                       cut_out_ms=24.0, rated_speed_ms=12.0, hub_height_m=15.0,
                       anemometer_height_m=10.0, shear_exponent=1.0 / 7.0,
                       capital_cost=0.0, om_cost=0.0, lifetime_years=20.0)
    v_hub = 10.0 * (15.0 / 10.0) ** (1.0 / 7.0)
    expected = 3.0 * (v_hub**3 - 4.0**3) / (12.0**3 - 4.0**3)
    assert wind_power(10.0, sheared) == pytest.approx(expected)
    # a measured speed below cut-in can clear it at hub height
    assert wind_power(3.85, sheared) > 0.0


@given(st.floats(min_value=0, max_value=12.0),
       st.floats(min_value=0, max_value=12.0))
def test_wind_power_monotone_below_rated(a, b):
    low, high = sorted((a, b))
    assert wind_power(low, WT) <= wind_power(high, WT)


@given(st.floats(min_value=0, max_value=50.0))
def test_wind_power_zero_outside_operating_band(speed):
    power = wind_power(speed, WT)
    if speed < WT.cut_in_ms or speed >= WT.cut_out_ms:
        assert power == 0.0
    else:
        assert 0.0 <= power <= WT.capacity_kw


def test_resource_rows_convert_and_pass_through():
    config = make_config()
    rows = ResourceProfile(demand_kw=[50.0, 60.25], price=[0.1, 0.2],
                           grid_available=[1, 0], irradiance_wm2=[0.0, 1000.0],
                           wind_speed_ms=[0.0, 12.0])
    inputs = resource_to_inputs(rows, config)
    assert inputs.pv_kw[0] == 0.0 and inputs.wind_kw[0] == 0.0
    assert inputs.pv_kw[1] == config.pv.capacity_kw * config.pv.derating_factor
    assert inputs.wind_kw[1] == config.wind.capacity_kw
    # demand/price/availability pass through bit-identical
    for name in ("demand_kw", "price", "grid_available"):
        assert getattr(inputs, name).tolist() == getattr(rows, name).tolist()



def test_a_conversion_hands_its_new_columns_to_the_profile_uncopied():
    rows = ResourceProfile(demand_kw=[50.0, 60.25], price=[0.1, 0.2],
                           grid_available=[1, 0], irradiance_wm2=[0.0, 1000.0],
                           wind_speed_ms=[0.0, 12.0])
    config, cents = make_config(), horizon(price=[10.0, 20.0])
    received = []
    real_frozen_column = profiles._frozen_column

    def frozen_column(name, values):
        column = real_frozen_column(name, values)
        received.append((values, column))
        return column

    with mock.patch.object(profiles, "_frozen_column", frozen_column):
        resource_to_inputs(rows, config)
        convert_prices(cents, "cents_per_kwh")
    assert len(received) == 10
    assert all(column is values for values, column in received)

def test_wind_fleet_scales_with_capacity():
    fleet = WindSpec(capacity_kw=120.0, unit_rated_kw=3.0, cut_in_ms=4.0,
                     cut_out_ms=24.0, rated_speed_ms=12.0, hub_height_m=15.0,
                     anemometer_height_m=15.0, shear_exponent=1.0 / 7.0,
                     capital_cost=0.0, om_cost=0.0, lifetime_years=20.0)
    assert wind_power(12.0, fleet) == 120.0
    assert wind_power(8.0, fleet) == pytest.approx(40.0 * wind_power(8.0, WT))


# --- non-finite values and the columnar Profile ------------------------------

@pytest.mark.parametrize("row,column", [
    ("0,nan,0.12,1,0,0", "demand_kw"),
    ("0,5,inf,1,0,0", "price"),
    ("0,5,0.12,1,NaN,0", "pv_kw"),
    ("0,5,0.12,1,0,-inf", "wind_kw"),
])
def test_non_finite_values_are_rejected_with_line_and_column(row, column):
    data = (GEN_HEADER + "\n0,1,1,1,0,0\n" + row + "\n").encode()
    with pytest.raises(ProfileFormatError) as exc:
        parse_profile(data, "generation")
    assert f"line 3, column {column}: must be finite" in str(exc.value)


def test_non_finite_resource_value_is_rejected():
    data = (RES_HEADER + "\n0,5,0.12,1,inf,3\n").encode()
    with pytest.raises(ProfileFormatError,
                       match="line 2, column irradiance_wm2: must be finite"):
        parse_profile(data, "resource")


def test_profile_columns_are_read_only_and_slices_are_views():
    data = (GEN_HEADER + "\n7,1.5,0.25,0,2,3\n3,2.5,0.5,1,4,5\n").encode()
    profile = parse_profile(data, "generation")
    assert isinstance(profile, Profile)
    assert profile.demand_kw.dtype == np.float64
    assert profile.grid_available.dtype == np.uint8
    with pytest.raises(ValueError):
        profile.demand_kw[0] = 9.0
    last = profile[1:]
    assert last == horizon(demand=2.5, price=0.5, pv=4.0, wind=5.0)
    assert np.shares_memory(last.demand_kw, profile.demand_kw)
    with pytest.raises(TypeError, match="sliced, not indexed"):
        profile[0]


def test_profile_does_not_alias_a_writable_source():
    demand = np.array([1.0, 2.0])
    profile = Profile(demand, [0.1, 0.2], [1, 1], [0.0, 0.0], [0.0, 0.0])
    demand[0] = 5.0
    assert profile.demand_kw[0] == 1.0


def test_profile_columns_must_have_equal_length():
    with pytest.raises(ValueError, match="column price"):
        Profile([1.0, 2.0], [0.1], [1, 1], [0.0, 0.0], [0.0, 0.0])


def two_steps(kind, **columns):
    """A two-step horizon of ``kind`` with valid values but for ``columns``."""
    valid = ([5.0, 6.0], [0.1, 0.2], [1, 0], [0.0, 3.0], [1.0, 0.0])
    names = [field.name for field in dataclasses.fields(kind)]
    return kind(**{**dict(zip(names, valid)), **columns})


@pytest.mark.parametrize("kind", [Profile, ResourceProfile])
@pytest.mark.parametrize("name,values,shape", [
    ("demand_kw", [[5.0], [6.0]], (2, 1)),
    ("grid_available", [[1, 0]], (1, 2)),
    ("price", 0.1, ()),
])
def test_a_profile_column_must_be_one_dimensional(kind, name, values, shape):
    with pytest.raises(ValueError) as exc:
        two_steps(kind, **{name: values})
    assert str(exc.value) == f"a profile column must be 1-D, got shape {shape}"


def test_a_horizon_equals_only_its_own_type_with_equal_columns():
    profile, resource = two_steps(Profile), two_steps(ResourceProfile)
    assert profile == two_steps(Profile)
    assert profile != two_steps(Profile, price=[0.1, 0.3])
    assert profile != resource and resource != profile
    assert profile != 3 and resource != 3


@pytest.mark.parametrize("make", [
    pytest.param(lambda: Profile(*[[]] * 5), id="Profile"),
    pytest.param(lambda: ResourceProfile(*[np.empty(0)] * 5), id="ResourceProfile"),
    pytest.param(lambda: two_steps(Profile)[1:1], id="Profile-slice"),
    pytest.param(lambda: two_steps(ResourceProfile)[3:3],
                 id="ResourceProfile-slice-past-the-end"),
])
def test_a_horizon_has_at_least_one_step(make):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == EMPTY_HORIZON


NOT_A_FLOW = "expected a finite number >= 0"
NOT_A_FLAG = "expected 0 or 1"

# a column, its values and the error's text after "column NAME: "
SHARED_BREAKS = [
    ("demand_kw", [-100, 100], f"step 0 is -100.0, {NOT_A_FLOW}"),
    ("demand_kw", [5.0, -1e-10], f"step 1 is -1e-10, {NOT_A_FLOW}"),
    ("price", [0.1, float("inf")], f"step 1 is inf, {NOT_A_FLOW}"),
    ("price", [float("nan"), 0.1], f"step 0 is nan, {NOT_A_FLOW}"),
    ("grid_available", [2, 1], f"step 0 is 2, {NOT_A_FLAG}"),
    ("grid_available", [1, 0.5], f"step 1 is 0.5, {NOT_A_FLAG}"),
    ("grid_available", [257.0, 1], f"step 0 is 257.0, {NOT_A_FLAG}"),
    ("grid_available", [256, 1], f"step 0 is 256, {NOT_A_FLAG}"),
    ("grid_available", np.array([257, 1]), f"step 0 is 257, {NOT_A_FLAG}"),
    ("grid_available", [1, -1], f"step 1 is -1, {NOT_A_FLAG}"),
    ("grid_available", [1.0, float("nan")], f"step 1 is nan, {NOT_A_FLAG}"),
    ("demand_kw", [10**400, 1.0], f"step 0 is {10**400}, {NOT_A_FLOW}"),
    ("price", np.array([0.1, -10**400], dtype=object),
     f"step 1 is {-10**400}, {NOT_A_FLOW}"),
    ("demand_kw", [10**5000, 1.0], f"step 0 is an int of 16610 bits, {NOT_A_FLOW}"),
    ("price", [0.1, -10**5000],
     f"step 1 is a negative int of 16610 bits, {NOT_A_FLOW}"),
    ("grid_available", [10**5000, 1],
     f"step 0 is an int of 16610 bits, {NOT_A_FLAG}"),
]
RULE_BREAKS = (
    [pytest.param(Profile, *b, id=f"Profile-{b[0]}-{b[2]}") for b in SHARED_BREAKS
     + [("pv_kw", [float("nan"), 0.0], f"step 0 is nan, {NOT_A_FLOW}"),
        ("wind_kw", [0.0, -math.inf], f"step 1 is -inf, {NOT_A_FLOW}")]]
    + [pytest.param(ResourceProfile, *b, id=f"ResourceProfile-{b[0]}-{b[2]}")
       for b in SHARED_BREAKS
       + [("irradiance_wm2", [0.0, -1.0], f"step 1 is -1.0, {NOT_A_FLOW}"),
          ("wind_speed_ms", [-5e-324, 0.0], f"step 0 is -5e-324, {NOT_A_FLOW}")]])


@pytest.mark.parametrize("kind,name,values,message", RULE_BREAKS)
def test_a_horizon_rejects_a_value_outside_the_column_rule(kind, name, values,
                                                           message):
    with pytest.raises(ValueError) as exc:
        two_steps(kind, **{name: values})
    assert str(exc.value) == f"column {name}: {message}"


# the smallest and largest negative floats, one between, and the
# non-finite values: each is rejected in every float column
OUTSIDE_A_FLOW = [-5e-324, -2.2250738585072014e-308, -1e-10,
                  -1.7976931348623157e308, float("nan"), float("inf"),
                  float("-inf")]


@pytest.mark.parametrize("value", OUTSIDE_A_FLOW, ids=repr)
@pytest.mark.parametrize("kind,name", [
    (Profile, "demand_kw"), (Profile, "price"), (Profile, "pv_kw"),
    (Profile, "wind_kw"), (ResourceProfile, "irradiance_wm2"),
    (ResourceProfile, "wind_speed_ms")])
def test_every_float_column_rejects_a_negative_or_non_finite_value(
        kind, name, value):
    with pytest.raises(ValueError) as exc:
        two_steps(kind, **{name: np.array([1.0, value])})
    assert str(exc.value) == f"column {name}: step 1 is {value!r}, {NOT_A_FLOW}"


@pytest.mark.parametrize("kind", [Profile, ResourceProfile])
def test_a_horizon_accepts_negative_zero_and_flags_of_any_type(kind):
    names = [field.name for field in dataclasses.fields(kind)]
    zeros = two_steps(kind, **{name: [-0.0, 1.0] for name in names})
    for name in names:
        if name != "grid_available":
            assert math.copysign(1.0, getattr(zeros, name)[0]) == -1.0
    for flags in ([True, False], [1.0, -0.0], np.array([1, 0], dtype=np.int64)):
        grid = two_steps(kind, grid_available=flags).grid_available
        assert grid.dtype == np.uint8 and grid.tolist() == [1, 0]


# --- exactness of the column arithmetic --------------------------------------

SHEARED = WindSpec(capacity_kw=120.0, unit_rated_kw=3.0, cut_in_ms=3.5,
                   cut_out_ms=25.0, rated_speed_ms=11.5, hub_height_m=30.0,
                   anemometer_height_m=10.0, shear_exponent=1.0 / 7.0,
                   capital_cost=0.0, om_cost=0.0, lifetime_years=20.0)

irradiance = st.one_of(st.floats(min_value=0, max_value=1500),
                       st.sampled_from([0.0, 999.999, 1000.0, 1000.001, 1400.0]))
speed = st.one_of(st.floats(min_value=0, max_value=40),
                  st.sampled_from([WT.cut_in_ms, WT.rated_speed_ms,
                                   WT.cut_out_ms, 0.0]))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@given(st.lists(st.tuples(irradiance, speed), min_size=1, max_size=40),
       st.sampled_from([WT, SHEARED]))
def test_resource_conversion_equals_scalar_models_bitwise(rows, wind_spec):
    config = make_config(pv=PV, wind=wind_spec)
    irradiances, speeds = zip(*rows)
    records = ResourceProfile(demand_kw=np.full(len(rows), 10.0),
                              price=np.full(len(rows), 0.1),
                              grid_available=np.ones(len(rows)),
                              irradiance_wm2=irradiances, wind_speed_ms=speeds)
    profile = resource_to_inputs(records, config)
    assert _bits(profile.pv_kw) == _bits([pv_power(irr, PV) for irr, _ in rows])
    assert _bits(profile.wind_kw) == \
        _bits([wind_power(ws, wind_spec) for _, ws in rows])


def test_a_calm_profile_converts_where_the_curve_cubes_overflow():
    # rated_speed_ms ** 3 overflows a float, but no step is on the ramp
    wind_spec = dataclasses.replace(WT, rated_speed_ms=1e200, cut_out_ms=1e201)
    records = ResourceProfile(demand_kw=[10.0, 10.0], price=[0.1, 0.1],
                              grid_available=[1, 1], irradiance_wm2=[0.0, 0.0],
                              wind_speed_ms=[0.0, 1.0])
    profile = resource_to_inputs(records, make_config(pv=PV, wind=wind_spec))
    assert _bits(profile.wind_kw) == \
        _bits([wind_power(ws, wind_spec) for ws in (0.0, 1.0)]) == _bits([0.0, 0.0])


finite_value = st.floats(min_value=0, max_value=1e9, allow_nan=False,
                         allow_infinity=False)


@given(st.lists(finite_value, min_size=1, max_size=40))
def test_cents_conversion_equals_python_division(prices):
    records = horizon(demand=np.ones(len(prices)), price=prices)
    converted = convert_prices(records, "cents_per_kwh")
    assert _bits(converted.price) == _bits([p / 100.0 for p in prices])


# --- the C reader against the row loop --------------------------------------

# a body of a few thousand lines
LONG = 3 * 1024 + 7


def row_loop(data: bytes, mode: str):
    """_parse_rows' horizon of ``data``, or the message it raises."""
    header, kind = profiles._layout(mode)
    try:
        return kind(*profiles._parse_rows(profiles._split_lines(data, header),
                                          header, 2))
    except ProfileFormatError as exc:
        return str(exc)


class LeftToTheRowLoop(Exception):
    pass


def fast_block(data: bytes, header: tuple[str, ...]):
    """The block reader's (6, n) block of ``data``, or None where it leaves
    the file, or any line of it, to the row loop."""
    with mock.patch.object(profiles, "_parse_rows", side_effect=LeftToTheRowLoop):
        try:
            return profiles._parse_blocks(data, header)
        except LeftToTheRowLoop:
            return None


def assert_same_columns(got, want):
    """Equal fields, bit for bit and dtype for dtype."""
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        assert not a.flags.writeable and a.flags.c_contiguous


def assert_parses_as_the_row_loop(data: bytes, mode: str):
    """parse_profile gives the row loop's columns or raises its message, and
    the C reader gives its columns or leaves the file to it; returns the C
    reader's block or None."""
    want = row_loop(data, mode)
    header, kind = profiles._layout(mode)
    fast = fast_block(data, header)
    if fast is not None:
        assert not isinstance(want, str), want
        assert_same_columns(kind(*fast[1:]), want)
    if isinstance(want, str):
        with pytest.raises(ProfileFormatError) as exc:
            parse_profile(data, mode)
        assert str(exc.value) == want
    else:
        assert_same_columns(parse_profile(data, mode), want)
    return fast


def _number_texts(value: float) -> list[str]:
    return [repr(value), f"{value:e}", f"{value:.3E}", f"  {value!r} ",
            f"\t{value!r}"]


# odd cells: padded, signed or exponent-form numbers, subnormals, magnitudes
# near 1e308, -0.0, nan, inf and 1e400
number_cell = st.one_of(
    st.floats(min_value=0, max_value=1e12).flatmap(
        lambda v: st.sampled_from(_number_texts(v))),
    st.floats().map(repr),
    st.sampled_from(["0", "-0.0", "-0", "+3", ".5", "5.", "1e3", "1E-3", "00",
                     " 7 ", "5e-324", "1.7976931348623157e308", "1e400",
                     "-1e400", "nan", "inf", "Infinity", "-7",
                     # float() takes these, the C reader does not
                     "1_0", "1_000.25", "\uff11\uff10", "\u0663",
                     # neither takes these
                     "", "abc", "0x10", "1d3", "1 2", "5\x00"]))
finite_nonneg = st.floats(min_value=0, allow_infinity=False).map(repr)
# str.splitlines breaks a line at each of these; the C reader only at
# "\n" and "\r\n"
line_break = st.sampled_from(["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                              "\x1e", "\x85", "\u2028", "\u2029"])
odd_cell = st.one_of(
    number_cell,
    st.sampled_from(["+1", "01", "1.0", " 1 ", "0 ", "\t1", "2", "-0", ""]),
    # JSON values other than numbers, which orjson would read
    st.sampled_from(["true", "null", '"1"', "[1]", "NaN", "Infinity"]),
    # a lone "\r" inside a line; eleven fields, then one, in column 5
    st.sampled_from(["\r3", "1,1,1,1,1,1\n1"]),
    # a line break inside a line, where the C reader would strip it
    st.tuples(finite_nonneg, line_break).map("".join))
clean_row = st.tuples(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      finite_nonneg, finite_nonneg, st.sampled_from(["0", "1"]),
                      finite_nonneg, finite_nonneg).map(list)
blank_line = st.sampled_from(["", "   ", "\t", "\x0c", "\x1f"])
line_edit = st.one_of(blank_line.map(lambda text: ("blank", text)),
                      line_break.map(lambda text: ("break", text)))


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(clean_row, min_size=1, max_size=10),
       newline=st.sampled_from(["\n", "\n", "\r\n", "\r"]),
       cell_edits=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 7),
                                     odd_cell), max_size=2),
       line_edits=st.lists(st.tuples(st.integers(0, 10), line_edit), max_size=2),
       padded_header=st.booleans(),
       ending=st.sampled_from(["", "\n", "\r\n", "\n\n", "\n  \n"]),
       mode=st.sampled_from(["generation", "resource"]),
       block=st.sampled_from([1, 40, profiles._BLOCK_BYTES]))
@example(rows=[["0.0"] * 6 for _ in range(10)], newline="\n",
         cell_edits=[(0, 7, "0.0"), (0, 5, "0.0")], line_edits=[],
         padded_header=False, ending="", mode="generation",
         block=profiles._BLOCK_BYTES)
def test_fast_parse_equals_the_row_loop(rows, newline, cell_edits, line_edits,
                                        padded_header, ending, mode, block):
    # a valid body, then up to two odd cells (column 6 adds a seventh field,
    # column 7 drops the last, after every other edit, so that no edit
    # indexes a dropped cell) and up to two blank lines or odd breaks
    for row, column, text in sorted(cell_edits, key=lambda edit: edit[1] == 7):
        if row < len(rows):
            if column == 7:
                rows[row].pop()
            elif column == 6:
                rows[row].append(text)
            else:
                rows[row][column] = text
    lines = [[newline, ",".join(cells)] for cells in rows]
    for at, (kind, text) in line_edits:
        if kind == "blank":
            lines.insert(at % (len(lines) + 1), [newline, text])
        elif lines:
            lines[at % len(lines)][0] = text
    header = GEN_HEADER if mode == "generation" else RES_HEADER
    if padded_header:
        header = " , ".join(header.split(","))
    text = header + "".join(map("".join, lines)) + ending
    # blocks of a line or a few lines each, or the whole body in one
    with mock.patch.object(profiles, "_BLOCK_BYTES", block):
        assert_parses_as_the_row_loop(text.encode(), mode)


@pytest.mark.parametrize("body,message", [
    pytest.param("0,1_0,2,1,3,4\n", None, id="underscore"),
    pytest.param("0,\uff11,2,1,3,4\n", None, id="non-ascii-digit"),
    pytest.param("0,1,2, 1 ,3,4\n", None, id="padded-flag"),
    pytest.param("0,1,2,1,3,4\r1,1,2,0,3,4\r", None, id="cr-breaks"),
    pytest.param("0,1,2\x0c,1,3,4\n", "line 2: expected 6 fields, got 3",
                 id="form-feed-in-a-line"),
    pytest.param("0,1,2\r,1,3,4\n", "line 2: expected 6 fields, got 3",
                 id="carriage-return-in-a-line"),
    pytest.param("0,1,2,+1,3,4\n",
                 "line 2, column grid_available: expected 1 or 0, got '+1'",
                 id="plus-flag"),
    pytest.param("0,1,2,01,3,4\n",
                 "line 2, column grid_available: expected 1 or 0, got '01'",
                 id="zero-padded-flag"),
    pytest.param("0,1,2,1.0,3,4\n",
                 "line 2, column grid_available: expected 1 or 0, got '1.0'",
                 id="float-flag"),
    pytest.param("0,1,2,1,3,4#x\n",
                 "line 2, column wind_kw: not a number: '4#x'", id="hash"),
    pytest.param("0,1e400,2,1,3,4\n",
                 "line 2, column demand_kw: must be finite, got inf",
                 id="overflow"),
    # ten commas a line pass the grid_available check twice over
    pytest.param("1,1,1,1,1,1,1,1,1,1,1\n", "line 2: expected 6 fields, got 11",
                 id="eleven-fields"),
    # ten commas, as many as two six-field lines have
    pytest.param("1,1,1,1,1,1,1,1,1,1,1\n1\n", "line 2: expected 6 fields, got 11",
                 id="eleven-fields-then-one"),
    pytest.param("0,1,2,1,\r3,4\n", "line 2: expected 6 fields, got 5",
                 id="lone-carriage-return-before-a-cell"),
    # orjson reads these as JSON values, not as float() does
    pytest.param("0,true,2,1,3,4\n",
                 "line 2, column demand_kw: not a number: 'true'", id="true"),
    pytest.param("0,null,2,1,3,4\n",
                 "line 2, column demand_kw: not a number: 'null'", id="null"),
    pytest.param('0,"1",2,1,3,4\n',
                 "line 2, column demand_kw: not a number: '\"1\"'", id="string"),
    pytest.param("0,[1],2,1,3,4\n",
                 "line 2, column demand_kw: not a number: '[1]'", id="array"),
    pytest.param("0,NaN,2,1,3,4\n",
                 "line 2, column demand_kw: must be finite, got nan", id="NaN"),
    pytest.param("0,Infinity,2,1,3,4\n",
                 "line 2, column demand_kw: must be finite, got inf", id="Infinity"),
    # orjson reads "-0" as the int 0
    pytest.param("0,-0,2,1,3,4\n", None, id="negative-zero"),
])
def test_the_c_reader_leaves_these_to_the_row_loop(body, message):
    data = (GEN_HEADER + "\n" + body).encode()
    assert fast_block(data, profiles.GENERATION_HEADER) is None
    assert_parses_as_the_row_loop(data, "generation")
    if message is not None:
        assert row_loop(data, "generation") == message


@pytest.mark.parametrize("body", [
    pytest.param("0,1,2,1,3,4\n   \n1,1,2,0,3,4\n", id="spaces"),
    pytest.param("0,1,2,1,3,4\n\t\n \x1f \n1,1,2,0,3,4", id="tab-and-unit-sep"),
    pytest.param("0,1,2,1,3,4\r\n  \r\n1,1,2,0,3,4\r\n \t\r\n", id="crlf"),
    pytest.param("  \n0,1,2,1,3,4\n1,1,2,0,3,4\n  ", id="first-and-last"),
])
def test_the_c_reader_keeps_a_body_with_whitespace_only_lines(body):
    data = (GEN_HEADER + "\n" + body).encode()
    want = row_loop(data, "generation")
    with mock.patch.object(profiles, "_parse_rows",
                           side_effect=AssertionError("row loop")):
        assert_same_columns(parse_profile(data, "generation"), want)
    assert len(want) == 2


# what follows the header: only the bare header reaches the row loop, with
# no line; a header-only or blank body never does
@pytest.mark.parametrize("tail,row_loop_calls", [
    pytest.param("", 1, id="bare-header"),
    pytest.param("\n", 0, id="header-only"),
    pytest.param("\n\n\n", 0, id="blank-lines-only"),
    pytest.param("\n\n  \n", 0, id="whitespace-lines-only"),
    pytest.param("\n\r\n \t\r\n", 0, id="crlf"),
])
@pytest.mark.parametrize("mode", ["generation", "resource"])
@pytest.mark.parametrize("block", [1, profiles._BLOCK_BYTES])
def test_a_body_of_no_data_row_is_an_empty_horizon(tail, row_loop_calls, mode,
                                                   block):
    header = GEN_HEADER if mode == "generation" else RES_HEADER
    with mock.patch.object(profiles, "_BLOCK_BYTES", block), \
            mock.patch.object(profiles, "_parse_rows",
                              wraps=profiles._parse_rows) as rows, \
            pytest.raises(ValueError) as exc:
        parse_profile((header + tail).encode(), mode)
    assert str(exc.value) == EMPTY_HORIZON
    assert rows.call_count == row_loop_calls


def test_fast_parse_equals_the_row_loop_on_a_long_body():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 500, size=(LONG, 5))
    lines = [f"{i},{d!r},{p!r},{int(g > 250)},{a:e},{b!r}"
             for i, (d, p, g, a, b) in enumerate(values.tolist())]
    lines[1023] = lines[1024] = ""   # blank lines
    lines[2048] = "-5,-0.0,1e1,0, 3 ,4e-3"
    data = ("\r\n".join([GEN_HEADER] + lines) + "\r\n").encode()
    fast = assert_parses_as_the_row_loop(data, "generation")
    assert fast is not None and fast.shape == (6, LONG - 2)


# each malformed row sits deep in the body, on file line BAD_LINE
BAD_LINE = 1064


@pytest.mark.parametrize("mode,row,message", [
    ("generation", "0,1,2,1,3", "expected 6 fields, got 5"),
    ("generation", "0,1,2,1,3,4,5", "expected 6 fields, got 7"),
    ("generation", "0,1,abc,1,3,4", "column price: not a number: 'abc'"),
    ("generation", "x,1,2,1,3,4", "column index: not a number: 'x'"),
    ("generation", "0,1,2,2,3,4", "column grid_available: expected 1 or 0, got '2'"),
    ("generation", "0,1,2,1.0,3,4",
     "column grid_available: expected 1 or 0, got '1.0'"),
    ("generation", "0,1,2,nan,3,4",
     "column grid_available: expected 1 or 0, got 'nan'"),
    ("generation", "0,-1,2,1,3,4", "column demand_kw: must be >= 0, got -1.0"),
    ("generation", "0,1,-2,1,3,4", "column price: must be >= 0, got -2.0"),
    ("generation", "0,1,2,1,-3,4", "column pv_kw: must be >= 0, got -3.0"),
    ("generation", "0,1,2,1,3,-4", "column wind_kw: must be >= 0, got -4.0"),
    ("resource", "0,1,2,1,-3,4", "column irradiance_wm2: must be >= 0, got -3.0"),
    ("resource", "0,1,2,1,3,-4", "column wind_speed_ms: must be >= 0, got -4.0"),
    ("generation", "nan,1,2,1,3,4", "column index: must be finite, got nan"),
    ("generation", "-inf,1,2,1,3,4", "column index: must be finite, got -inf"),
    ("generation", "0,inf,2,1,3,4", "column demand_kw: must be finite, got inf"),
    ("generation", "0,1,NaN,1,3,4", "column price: must be finite, got nan"),
    ("generation", "0,1,2,1,inf,4", "column pv_kw: must be finite, got inf"),
    ("generation", "0,1,2,1,3,-inf", "column wind_kw: must be finite, got -inf"),
    ("resource", "0,1,2,1,nan,4", "column irradiance_wm2: must be finite, got nan"),
    ("resource", "0,1,2,1,3,inf", "column wind_speed_ms: must be finite, got inf"),
])
@pytest.mark.parametrize("newline", [pytest.param("\n", id="lf"),
                                     pytest.param("\r\n", id="crlf")])
def test_malformed_row_deep_in_the_body_names_line_and_column(mode, row,
                                                              message, newline):
    header = GEN_HEADER if mode == "generation" else RES_HEADER
    lines = [f"{i},1.5,0.25,1,2,3" for i in range(BAD_LINE + 20)]
    lines[BAD_LINE - 2] = row
    lines[BAD_LINE + 5] = "0,-1,2,1,3,4"   # a later error is not the one named
    data = (newline.join([header] + lines) + newline).encode()
    with pytest.raises(ProfileFormatError) as exc:
        parse_profile(data, mode)
    line = f"line {BAD_LINE}: " if "fields" in message else f"line {BAD_LINE}, "
    assert str(exc.value) == line + message


@pytest.mark.parametrize("row,message", [
    ("0,1,abc,1,3,4", "column price: not a number: 'abc'"),
    ("0,1,2,1,3", "expected 6 fields, got 5"),
    ("0,1,2,1,-3,4", "column pv_kw: must be >= 0, got -3.0"),
])
@pytest.mark.parametrize("bad_line", [pytest.param(12, id="first-half"),
                                      pytest.param(90, id="second-half")])
def test_a_bad_line_in_either_half_is_named(bad_line, row, message):
    lines = [f"{i},1.5,0.25,1,2,3" for i in range(99)]
    lines[bad_line - 2] = row
    lines[96] = "0,-1,2,1,3,4"   # a later error is not the one named
    data = ("\n".join([GEN_HEADER] + lines) + "\n").encode()
    with pytest.raises(ProfileFormatError) as exc:
        parse_profile(data, "generation")
    sep = ": " if "fields" in message else ", "
    assert str(exc.value) == f"line {bad_line}{sep}{message}"


def test_undecodable_profile_names_the_position_in_the_whole_file():
    data = GEN_HEADER.encode() + b"\n" + b"0,1,1,1,1,1\n" * 10 + b"\xff\n"
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    with pytest.raises(UnicodeDecodeError) as parsed:
        parse_profile(data, "generation")
    assert str(parsed.value) == str(whole.value)


def long_body(n: int) -> bytes:
    lines = [f"{i},{i * 0.5!r},0.25,{i % 2},{i / 7!r},3" for i in range(n)]
    return ("\n".join([GEN_HEADER] + lines) + "\n").encode()


@pytest.mark.parametrize("mode", ["generation", "resource"])
def test_parsed_columns_do_not_keep_the_reader_block(mode):
    # each column is copied out of the C reader's (n, 6) block, so the block
    # is freed once the horizon is built
    data = long_body(LONG)
    if mode == "resource":
        data = data.replace(GEN_HEADER.encode(), RES_HEADER.encode(), 1)
    assert fast_block(data, profiles._layout(mode)[0]) is not None
    parsed = parse_profile(data, mode)
    for field in dataclasses.fields(parsed):
        column = getattr(parsed, field.name)
        assert column.base is None, field.name
        assert column.flags.c_contiguous and not column.flags.writeable
    assert_same_columns(parsed, row_loop(data, mode))


def test_a_long_profile_is_parsed_in_this_process():
    data = long_body(100_000)
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(os, "fork",
                              side_effect=AssertionError("the parser forked")):
        parsed = parse_profile(data, "generation")
    assert len(parsed) == 100_000
    assert parsed.pv_kw[-1] == 99_999 / 7


@pytest.mark.parametrize("index", ["nan", "NaN", "inf", "-inf"])
def test_non_finite_index_is_rejected_by_both_parse_paths(index):
    data = (GEN_HEADER + "\n0,1,1,1,0,0\n" + index + ",5,0.12,1,0,0\n").encode()
    message = f"line 3, column index: must be finite, got {float(index)}"
    assert fast_block(data, profiles.GENERATION_HEADER) is None
    assert row_loop(data, "generation") == message
    with pytest.raises(ProfileFormatError) as exc:
        parse_profile(data, "generation")
    assert str(exc.value) == message


def test_negative_index_is_accepted():
    data = (GEN_HEADER + "\n-3,1,1,1,0,0\n-1e9,2,2,0,0,0\n").encode()
    assert parse_profile(data, "generation").demand_kw.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("cells,read_fast", [
    pytest.param("-0.0,-0e0,1,-0.0,-0E+3", True, id="float-spellings"),
    # orjson reads "-0" as the int 0, so the row loop reads these
    pytest.param("-0,-0,1,-0,-0", False, id="int-spellings"),
])
def test_a_negative_zero_cell_keeps_its_sign_bit(cells, read_fast):
    data = (GEN_HEADER + "\n0," + cells + "\n").encode()
    assert (fast_block(data, profiles.GENERATION_HEADER) is not None) == read_fast
    parsed = parse_profile(data, "generation")
    for column in (parsed.demand_kw, parsed.price, parsed.pv_kw, parsed.wind_kw):
        assert column.tolist() == [0.0] and np.signbit(column[0])


def _spelled(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


# number spellings: the shortest, "%e" and "%.17g" forms of any 64-bit
# pattern (nan and inf among them), 17-40 digit mantissas, subnormals and
# integers from 2**53, where float64 stops holding every integer, and from
# 2**64, which orjson reads as a float, not an int
number_spelling = st.one_of(
    st.tuples(st.integers(0, 2**64 - 1).map(_spelled),
              st.sampled_from(["{!r}", "{:e}", "{:.17g}"])).map(
        lambda pair: pair[1].format(pair[0])),
    st.tuples(st.integers(10**16, 10**40 - 1), st.integers(-360, 330),
              st.booleans()).map(
        lambda drawn: f"{'-' if drawn[2] else ''}{str(drawn[0])[0]}."
                      f"{str(drawn[0])[1:]}e{drawn[1]}"),
    st.sampled_from(["5e-324", "2e-324", "3e-324", "2.4703282292062328e-324",
                     "2.2250738585072011e-308", "4.9406564584124654e-324"]),
    st.integers(2**53, 2**64 + 2**12).map(str),
    st.integers(2**64, 2**80).map(str),
    st.integers(-2**70, -2**53).map(str))


@settings(max_examples=1000, deadline=None)
@given(number_spelling)
@example("-0")
@example("1e400")
def test_the_block_reader_reads_a_number_as_float_does(text):
    # in the index column, which takes a number of any sign
    out = np.zeros((1, 6))
    read = profiles._read_cells(f"{text},0,0,1,0,0\n".encode(), out)
    want = float(text)
    if not math.isfinite(want) or text == "-0":
        assert read is None
    else:
        assert read == 1
        assert out[0, 0].tobytes() == np.float64(want).tobytes(), text


def decade_like_body(lines: int) -> list[str]:
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 500, size=(lines, 5))
    return [f"{i},{d!r},{p!r},{int(g > 250)},{a!r},{b!r}"
            for i, (d, p, g, a, b) in enumerate(values.tolist())]


def test_a_decade_like_body_never_reaches_the_row_loop():
    lines = decade_like_body(30_000)
    for at in (0, 9_999, 20_000, 29_999):
        lines[at] = "-7,1e-05,5e-324,0,1.5E+2,0.0"
    data = ("\n".join([RES_HEADER] + lines) + "\n").encode()
    assert len(list(profiles._blocks(data))) > 2
    want = row_loop(data, "resource")
    with mock.patch.object(profiles, "_parse_rows",
                           side_effect=AssertionError("row loop")):
        assert_same_columns(parse_profile(data, "resource"), want)


def test_a_plus_sign_sends_one_block_to_the_row_loop():
    lines = decade_like_body(30_000)
    bad = 17_000
    lines[bad] = "17000,+1,0.25,1,2,3"
    data = ("\n".join([GEN_HEADER] + lines) + "\n").encode()
    want = row_loop(data, "generation")
    with mock.patch.object(profiles, "_parse_rows",
                           wraps=profiles._parse_rows) as row_parse:
        assert_same_columns(parse_profile(data, "generation"), want)
    (block_lines, header, first_line_no), = [c.args for c in row_parse.call_args_list]
    assert header == profiles.GENERATION_HEADER
    assert len(block_lines) < len(lines) // 2
    # file line bad + 2 holds body line bad
    assert block_lines[bad + 2 - first_line_no] == lines[bad]


def test_importing_the_cli_does_not_import_orjson():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mgems.cli; print('orjson' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
