"""Profile parsing and renewable conversion tests."""

import dataclasses
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgems import profiles
from mgems.errors import ProfileFormatError
from mgems.model import PvSpec, WindSpec
from mgems.profiles import (Profile, ResourceProfile, convert_prices,
                            parse_profile, resource_to_inputs)

from conftest import SPLIT_THRESHOLDS, horizon, make_config, split_from
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


def test_header_only_gives_empty_sequence():
    assert parse_profile((GEN_HEADER + "\n").encode(), "generation") == \
        horizon(demand=[])
    assert parse_profile(RES_HEADER.encode(), "resource") == \
        ResourceProfile(*[[]] * 5)


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


def test_resource_mode_negative_speed_is_rejected():
    data = (RES_HEADER + "\n0,5,0.12,1,100,-3\n").encode()
    with pytest.raises(ProfileFormatError, match="wind_speed_ms"):
        parse_profile(data, "resource")


finite_power = st.floats(min_value=0, max_value=1e6, allow_nan=False)


@given(st.lists(
    st.tuples(finite_power, finite_power, st.booleans(), finite_power,
              finite_power),
    max_size=30))
def test_parse_serialize_parse_round_trip(rows):
    records = Profile(*(list(zip(*rows)) or [[]] * 5))
    once = parse_profile(serialize_profile(records), "generation")
    assert once == records
    assert parse_profile(serialize_profile(once), "generation") == once


def test_price_conversion_from_cents():
    records = horizon(demand=1.0, price=12.168)
    assert convert_prices(records, "cents_per_kwh").price[0] == 0.12168
    assert convert_prices(records, "currency_per_kwh") == records


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


@given(st.lists(st.tuples(irradiance, speed), max_size=40),
       st.sampled_from([WT, SHEARED]))
def test_resource_conversion_equals_scalar_models_bitwise(rows, wind_spec):
    config = make_config(pv=PV, wind=wind_spec)
    irradiances, speeds = list(zip(*rows)) or ([], [])
    records = ResourceProfile(demand_kw=np.full(len(rows), 10.0),
                              price=np.full(len(rows), 0.1),
                              grid_available=np.ones(len(rows)),
                              irradiance_wm2=irradiances, wind_speed_ms=speeds)
    profile = resource_to_inputs(records, config)
    assert _bits(profile.pv_kw) == _bits([pv_power(irr, PV) for irr, _ in rows])
    assert _bits(profile.wind_kw) == \
        _bits([wind_power(ws, wind_spec) for _, ws in rows])


finite_value = st.floats(min_value=0, max_value=1e9, allow_nan=False,
                         allow_infinity=False)


@given(st.lists(finite_value, max_size=40))
def test_cents_conversion_equals_python_division(prices):
    records = horizon(demand=np.ones(len(prices)), price=prices)
    converted = convert_prices(records, "cents_per_kwh")
    assert _bits(converted.price) == _bits([p / 100.0 for p in prices])


# --- bulk parse against the row loop -----------------------------------------

CHUNK = profiles._PARSE_CHUNK_LINES


def both_paths(data: bytes, mode: str):
    """(bulk block or None, row-loop columns, parse_profile result)."""
    header, _, lines = profiles._split_lines(data, mode)
    return (profiles._parse_bulk(lines), profiles._parse_rows(lines, header),
            parse_profile(data, mode))


def assert_paths_agree(bulk, rows, parsed):
    """The bulk block, the row loop and parse_profile hold the same bits."""
    demand, price, grid, a, b = rows
    for k, column in zip((1, 2, 4, 5), (demand, price, a, b)):
        assert _bits(bulk[k]) == _bits(column)
    assert np.array_equal(bulk[3].astype(np.uint8), np.asarray(grid, np.uint8))
    for got, want in zip((getattr(parsed, field.name) for field in
                          dataclasses.fields(parsed)), rows):
        if got.dtype == np.uint8:
            assert np.array_equal(got, np.asarray(want, np.uint8))
        else:
            assert _bits(got) == _bits(want)
        assert not got.flags.writeable and got.flags.c_contiguous


def _number_texts(value: float) -> list[str]:
    return [repr(value), f"{value:e}", f"{value:.3E}", f"  {value!r} ",
            f"\t{value!r}"]


nonneg_cell = st.one_of(
    st.floats(min_value=0, max_value=1e12).flatmap(
        lambda v: st.sampled_from(_number_texts(v))),
    st.sampled_from(["0", "-0.0", "-0", "1_0", "1_000.25", "+3", ".5", "5.",
                     "1e3", "1E-3", "00", "\uff11\uff10", " 7 "]))
index_cell = st.one_of(
    nonneg_cell,
    st.floats(min_value=-1e12, max_value=0).map(repr),
    st.sampled_from(["-7", "-1e3", "-0.0", "1_0"]))
flag_cell = st.sampled_from(["0", "1"])
padded_flag_cell = st.sampled_from([" 1", "0 ", " 0 "])
body_line = st.tuples(index_cell, nonneg_cell, nonneg_cell, flag_cell,
                      nonneg_cell, nonneg_cell).map(",".join)
blank_line = st.sampled_from(["", "   ", "\t"])


@SPLIT_THRESHOLDS
@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(body_line, body_line, body_line, blank_line),
                      max_size=25),
       padded_flag=st.one_of(st.none(),
                             st.tuples(st.integers(0, 24), padded_flag_cell)),
       newline=st.sampled_from(["\n", "\r\n"]),
       mode=st.sampled_from(["generation", "resource"]),
       chunk=st.sampled_from([1, 2, 3, 5, CHUNK]))
def test_bulk_parse_equals_the_row_loop_bitwise(lines, padded_flag, newline,
                                                mode, chunk, min_rows):
    header = GEN_HEADER if mode == "generation" else RES_HEADER
    padded = False
    if padded_flag is not None and lines:
        at, flag = padded_flag
        at %= len(lines)
        cells = lines[at].split(",")
        if len(cells) == 6:
            cells[3] = flag
            lines[at] = ",".join(cells)
            padded = True
    data = newline.join([header] + lines + [""]).encode()
    with mock.patch.object(profiles, "_PARSE_CHUNK_LINES", chunk), \
            split_from(min_rows):
        bulk, rows, parsed = both_paths(data, mode)
    if padded:
        # a padded flag is valid but left to the row loop
        assert bulk is None
        return
    assert bulk is not None
    assert_paths_agree(bulk, rows, parsed)


@SPLIT_THRESHOLDS
def test_bulk_parse_equals_the_row_loop_across_real_chunks(min_rows):
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 500, size=(3 * CHUNK + 7, 5))
    lines = [f"{i},{d!r},{p!r},{int(g > 250)},{a:e},{b!r}"
             for i, (d, p, g, a, b) in enumerate(values.tolist())]
    lines[CHUNK - 1] = lines[CHUNK] = ""   # blank lines on a chunk boundary
    lines[2 * CHUNK] = "-5,-0.0,1_0,0, 3 ,4e-3"
    data = ("\r\n".join([GEN_HEADER] + lines) + "\r\n").encode()
    with split_from(min_rows):
        bulk, rows, parsed = both_paths(data, "generation")
    assert bulk is not None and bulk.shape == (6, 3 * CHUNK + 5)
    assert_paths_agree(bulk, rows, parsed)


# each malformed row sits after the first chunk, on file line BAD_LINE
BAD_LINE = CHUNK + 40


@SPLIT_THRESHOLDS
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
def test_malformed_row_after_the_first_chunk_names_line_and_column(mode, row,
                                                                   message,
                                                                   min_rows):
    header = GEN_HEADER if mode == "generation" else RES_HEADER
    lines = [f"{i},1.5,0.25,1,2,3" for i in range(BAD_LINE + 20)]
    lines[BAD_LINE - 2] = row
    lines[BAD_LINE + 5] = "0,-1,2,1,3,4"   # a later error is not the one named
    data = ("\n".join([header] + lines) + "\n").encode()
    with split_from(min_rows), pytest.raises(ProfileFormatError) as exc:
        parse_profile(data, mode)
    line = f"line {BAD_LINE}: " if "fields" in message else f"line {BAD_LINE}, "
    assert str(exc.value) == line + message


@pytest.mark.skipif(sys.platform != "linux", reason="splits only on Linux")
@pytest.mark.parametrize("row,message", [
    ("0,1,abc,1,3,4", "column price: not a number: 'abc'"),
    ("0,1,2,1,3", "expected 6 fields, got 5"),
    ("0,1,2,1,-3,4", "column pv_kw: must be >= 0, got -3.0"),
])
@pytest.mark.parametrize("bad_line", [pytest.param(12, id="parent-half"),
                                      pytest.param(90, id="child-half")])
def test_a_bad_line_in_either_half_is_named(bad_line, row, message):
    # 99 body lines split at body line 49, file line 51
    lines = [f"{i},1.5,0.25,1,2,3" for i in range(99)]
    lines[bad_line - 2] = row
    lines[96] = "0,-1,2,1,3,4"   # a later error is not the one named
    data = ("\n".join([GEN_HEADER] + lines) + "\n").encode()
    with split_from(2), mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            pytest.raises(ProfileFormatError) as exc:
        parse_profile(data, "generation")
    assert fork.call_count == 1
    sep = ": " if "fields" in message else ", "
    assert str(exc.value) == f"line {bad_line}{sep}{message}"


line_text = st.lists(st.sampled_from(
    ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ", "1,2",
     "\u00e9", "\uff11"]), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=line_text, block=st.sampled_from([1, 2, 3, 7]))
def test_blockwise_decode_splits_lines_as_the_whole_text_does(text, block):
    with mock.patch.object(profiles, "_DECODE_BLOCK_BYTES", block):
        assert profiles._decode_lines(text.encode()) == text.splitlines()


@pytest.mark.parametrize("block", [1, 4, 1 << 20])
def test_undecodable_profile_names_the_position_in_the_whole_file(block):
    data = b"a,b\n" * 10 + b"\xff\n" + b"c\n"
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    with mock.patch.object(profiles, "_DECODE_BLOCK_BYTES", block), \
            pytest.raises(UnicodeDecodeError) as blockwise:
        profiles._decode_lines(data)
    assert str(blockwise.value) == str(whole.value)


def long_body(n: int) -> bytes:
    lines = [f"{i},{i * 0.5!r},0.25,{i % 2},{i / 7!r},3" for i in range(n)]
    return ("\n".join([GEN_HEADER] + lines) + "\n").encode()


@SPLIT_THRESHOLDS
def test_parsed_columns_are_rows_of_one_block(min_rows):
    # the block the cells are parsed into is kept, not copied column by column
    with split_from(min_rows):
        parsed = parse_profile(long_body(3 * CHUNK + 7), "generation")
    block = parsed.demand_kw.base
    assert block is not None and block.shape == (6, 3 * CHUNK + 7)
    for column in (parsed.price, parsed.pv_kw, parsed.wind_kw):
        assert column.base is block


@pytest.mark.skipif(sys.platform != "linux", reason="splits only on Linux")
def test_a_payload_of_no_whole_lines_is_redone_in_the_parent():
    data = long_body(99)
    want = parse_profile(data, "generation")
    # only the child calls since(); five bytes are no whole line of cells
    with split_from(2), mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            mock.patch.object(profiles._Cells, "since",
                              lambda self, mark: [b"\0" * 5]):
        got = parse_profile(data, "generation")
    assert fork.call_count == 1
    assert got == want
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("index", ["nan", "NaN", "inf", "-inf"])
def test_non_finite_index_is_rejected_by_both_parse_paths(index):
    data = (GEN_HEADER + "\n0,1,1,1,0,0\n" + index + ",5,0.12,1,0,0\n").encode()
    message = f"line 3, column index: must be finite, got {float(index)}"
    with pytest.raises(ProfileFormatError) as exc:
        parse_profile(data, "generation")
    assert str(exc.value) == message
    header, _, lines = profiles._split_lines(data, "generation")
    assert profiles._parse_bulk(lines) is None
    with pytest.raises(ProfileFormatError) as exc:
        profiles._parse_rows(lines, header)
    assert str(exc.value) == message


def test_negative_index_is_accepted():
    data = (GEN_HEADER + "\n-3,1,1,1,0,0\n-1e9,2,2,0,0,0\n").encode()
    assert parse_profile(data, "generation").demand_kw.tolist() == [1.0, 2.0]
